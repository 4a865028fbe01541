/**
 * @file
 * Ablation: index structure choice (Section 4.2's cache organization)
 * on the recognition workload's key distribution — the exact flat
 * index that serves Linear and KdTree slots, naive enumeration over
 * distance(), approximate LSH and the ordered tree, at growing cache
 * sizes. Reports per-lookup latency, recall of the true nearest
 * neighbour, and for the flat index the share of stored rows that
 * reach its exact stage past the PCA lower-bound filter.
 *
 * Expected: enumeration exact but linear-cost; the flat index exact
 * at a few percent of enumeration's exact distances; LSH approximate
 * with near-flat latency; the ordered tree cheap but weak for
 * multi-dimensional keys.
 */
#include "bench_common.h"

#include "core/flat_index.h"
#include "core/index.h"
#include "core/lsh_index.h"
#include "features/downsample.h"
#include "util/clock.h"
#include "workload/dataset.h"

using namespace potluck;

namespace {

/** Index of the stored key nearest to `probe`, by enumeration. */
EntryId
enumerate(const std::vector<FeatureVector> &keys, size_t size,
          const FeatureVector &probe)
{
    EntryId best = 0;
    double best_d = 0.0;
    for (size_t i = 0; i < size; ++i) {
        double d = distance(probe, keys[i]);
        if (best == 0 || d < best_d) {
            best = i + 1;
            best_d = d;
        }
    }
    return best;
}

} // namespace

int
main()
{
    setLogVerbose(false);
    bench::banner("Ablation (index)",
                  "index structures on recognition keys",
                  "exact structures pay latency at scale; LSH stays "
                  "microsecond-scale with modest recall loss");

    // Realistic keys: Downsamp vectors of dataset images (768-d).
    Rng rng(3);
    DownsampleExtractor extractor(16, 16, false);
    CifarLikeOptions opt;
    std::vector<FeatureVector> keys;
    const size_t kMax = 8000;
    for (size_t i = 0; i < kMax; ++i) {
        int label = static_cast<int>(rng.uniformInt(0, 9));
        keys.push_back(
            extractor.extract(drawCifarLikeImage(rng, label, opt)));
    }
    // Near-duplicates of stored keys, and fresh frames of the same
    // classes: the recognition workload's lookups are the latter.
    std::vector<FeatureVector> probes;
    for (int i = 0; i < 100; ++i) {
        FeatureVector p = keys[i * 17 % kMax];
        p.values()[0] += 0.02f;
        probes.push_back(std::move(p));
    }
    std::vector<FeatureVector> fresh;
    for (int i = 0; i < 100; ++i) {
        int label = static_cast<int>(rng.uniformInt(0, 9));
        fresh.push_back(
            extractor.extract(drawCifarLikeImage(rng, label, opt)));
    }

    for (size_t size : {1000u, 4000u, 8000u}) {
        std::cout << "\n-- " << size << " entries --\n";
        bench::Table table({"index", "lookup (us)", "recall %", "exact %"});

        // Ground truth, and enumeration's own latency.
        std::vector<EntryId> truth, fresh_truth;
        Stopwatch enum_sw;
        for (const auto &p : probes)
            truth.push_back(enumerate(keys, size, p));
        table.cell("enumeration")
            .cell(enum_sw.elapsedUs() / probes.size(), 1)
            .cell(100, 0)
            .cell(100, 0);
        table.endRow();
        for (const auto &p : fresh)
            fresh_truth.push_back(enumerate(keys, size, p));

        FlatIndex flat(IndexKind::KdTree, Metric::L2);
        for (size_t i = 0; i < size; ++i)
            flat.insert(i + 1, keys[i]);
        auto runFlat = [&](const char *label,
                           const std::vector<FeatureVector> &queries,
                           const std::vector<EntryId> &want) {
            Stopwatch sw;
            for (const auto &q : queries)
                flat.nearest(q, 1);
            double us = sw.elapsedUs() / queries.size();
            int recalled = 0;
            size_t exact = 0, rows = 0;
            for (size_t q = 0; q < queries.size(); ++q) {
                size_t e = 0, r = 0;
                auto found = flat.nearest(queries[q], 1, e, r);
                recalled += !found.empty() && found[0].id == want[q];
                exact += e;
                rows += r;
            }
            table.cell(label).cell(us, 1).cell(recalled, 0).cell(
                100.0 * exact / rows, 1);
            table.endRow();
        };
        runFlat("flat", probes, truth);
        runFlat("flat (fresh)", fresh, fresh_truth);

        struct Candidate
        {
            const char *label;
            std::unique_ptr<Index> index;
        };
        std::vector<Candidate> candidates;
        candidates.push_back(
            {"lsh w=12", std::make_unique<LshIndex>(Metric::L2, 5, 12, 4,
                                                    12.0)});
        candidates.push_back(
            {"lsh w=5", std::make_unique<LshIndex>(Metric::L2, 5, 12, 6,
                                                   5.0)});
        candidates.push_back({"tree", makeIndex(IndexKind::Tree,
                                                Metric::L2, 5)});

        for (auto &candidate : candidates) {
            Index &index = *candidate.index;
            for (size_t i = 0; i < size; ++i)
                index.insert(i + 1, keys[i]);
            index.nearest(probes[0], 1); // settle lazy structures

            Stopwatch sw;
            int recalled = 0;
            for (size_t q = 0; q < probes.size(); ++q) {
                auto found = index.nearest(probes[q], 1);
                if (!found.empty() && found[0].id == truth[q])
                    ++recalled;
            }
            double us = sw.elapsedUs() / probes.size();
            table.cell(candidate.label).cell(us, 1).cell(recalled, 0).cell(
                "-");
            table.endRow();
        }
    }
    std::cout << "\n(recall = how often the structure returns the true "
                 "nearest neighbour; exact = stored rows whose exact "
                 "distance the flat probe computed. With clustered keys "
                 "and near-duplicate queries wide-bucket LSH degenerates "
                 "to scanning the whole cluster; narrow buckets restore "
                 "microsecond lookups at a recall cost. The flat index "
                 "stays exact: its filter ranks rows by a 16-component "
                 "PCA bound and compares only those the bound cannot "
                 "rule out.)\n";
    std::cout << "\nshape check: PASS (informational ablation)\n";
    return 0;
}
