/**
 * @file
 * Table 2 reproduction: cache lookup latency, LSH vs naive
 * enumeration, as the number of entries grows from 100 to 100,000 and
 * the key size from 100 to 5,000 bytes. 100 queries are averaged per
 * cell, as in Section 5.4.
 *
 * Expected shape: LSH lookups stay at microsecond scale and nearly
 * flat as the cache grows; enumeration grows linearly with N and with
 * the key size, becoming unusable for large caches (the paper leaves
 * the 100k x 5000B enumeration cell empty).
 *
 * Next to the paper's columns: the flat index that serves exact
 * (Linear / KdTree) slots, and the share of its rows that reach the
 * exact stage past its PCA lower-bound filter, for the near-duplicate
 * probes and for fresh keys that are no stored key's twin. The filter
 * needs keys whose variance sits in a few directions; the random
 * uniform keys of the paper's table are the case without that
 * property, so a second table repeats the probe on 768-d Downsamp keys
 * of dataset images.
 *
 * Also includes the k (NN fan-out) ablation called out in Section 3.4:
 * lookup time for k in {1, 2, 4, 8} at a fixed cache size.
 */
#include "bench_common.h"

#include "core/flat_index.h"
#include "core/lsh_index.h"
#include "features/downsample.h"
#include "util/clock.h"
#include "workload/dataset.h"

using namespace potluck;

namespace {

/** Keeps enumeration results alive so the loop cannot be dropped. */
volatile double g_sink = 0.0;

FeatureVector
randomKey(Rng &rng, size_t dim)
{
    std::vector<float> v(dim);
    for (auto &x : v)
        x = static_cast<float>(rng.uniformReal(-10.0, 10.0));
    return FeatureVector(std::move(v));
}

/** Average nearest(k=1) latency over 100 queries near stored keys. */
double
measureLookupUs(const Index &index, const std::vector<FeatureVector> &probes,
                size_t k = 1)
{
    // Warm-up pass so lazy structures (LSH projection growth) settle.
    index.nearest(probes[0], k);
    Stopwatch sw;
    for (const auto &probe : probes)
        index.nearest(probe, k);
    return sw.elapsedUs() / static_cast<double>(probes.size());
}

/** Naive enumeration: distance() to every stored key, keep the best. */
double
measureEnumUs(const std::vector<FeatureVector> &keys,
              const std::vector<FeatureVector> &probes)
{
    double sink = 0.0;
    Stopwatch sw;
    for (const auto &probe : probes) {
        double best = -1.0;
        for (const auto &key : keys) {
            double d = distance(probe, key);
            if (best < 0.0 || d < best)
                best = d;
        }
        sink += best;
    }
    double us = sw.elapsedUs() / static_cast<double>(probes.size());
    g_sink = g_sink + sink;
    return us;
}

/** Rows the flat probe compared exactly, % of the rows it held. */
double
exactPct(const FlatIndex &flat, const std::vector<FeatureVector> &queries)
{
    size_t exact = 0, rows = 0;
    for (const auto &query : queries) {
        size_t e = 0, r = 0;
        flat.nearest(query, 1, e, r);
        exact += e;
        rows += r;
    }
    return rows ? 100.0 * exact / rows : 0.0;
}

struct FlatResult
{
    double us = 0.0;
    double exact_pct = 0.0;       ///< on the near-duplicate probes
    double fresh_exact_pct = 0.0; ///< on fresh keys of the same kind
};

FlatResult
measureFlat(const std::vector<FeatureVector> &keys,
            const std::vector<FeatureVector> &probes,
            const std::vector<FeatureVector> &fresh)
{
    FlatIndex flat(IndexKind::KdTree, Metric::L2);
    for (size_t i = 0; i < keys.size(); ++i)
        flat.insert(i + 1, keys[i]);
    return {measureLookupUs(flat, probes), exactPct(flat, probes),
            exactPct(flat, fresh)};
}

double
measureLsh(const std::vector<FeatureVector> &keys,
           const std::vector<FeatureVector> &probes)
{
    LshIndex lsh(Metric::L2, /*seed=*/3);
    for (size_t i = 0; i < keys.size(); ++i)
        lsh.insert(i + 1, keys[i]);
    return measureLookupUs(lsh, probes);
}

/** The first 100 keys, nudged: near-duplicate queries. */
std::vector<FeatureVector>
nearDuplicates(const std::vector<FeatureVector> &keys)
{
    std::vector<FeatureVector> probes;
    for (size_t i = 0; i < keys.size() && probes.size() < 100; ++i) {
        FeatureVector probe = keys[i];
        probe.values()[0] += 0.01f;
        probes.push_back(std::move(probe));
    }
    return probes;
}

} // namespace

int
main()
{
    setLogVerbose(false);
    bench::banner("Table 2", "lookup latency: LSH vs enumeration",
                  "LSH ~3-8us, flat in N; enum linear in N and key "
                  "size (2210us at 10k x 100B)");

    struct Cell
    {
        size_t entries;
        size_t key_bytes;
        bool run_enum;
    };
    // The paper's rows; enumeration at 100k x 5000B is omitted there
    // ("-"), and we follow suit, for the flat probe too.
    std::vector<Cell> cells = {
        {100, 100, true},     {1000, 100, true},   {10000, 100, true},
        {100000, 100, true},  {100000, 1000, true}, {100000, 5000, false},
    };

    bench::Table table({"# of entry", "key size (B)", "LSH (us)",
                        "enum (us)", "flat (us)", "exact %",
                        "fresh exact %"});
    double lsh_small = 0, lsh_large = 0, enum_10k = 0;

    for (const Cell &cell : cells) {
        size_t dim = cell.key_bytes / sizeof(float);
        Rng rng(7 + cell.entries + cell.key_bytes);
        std::vector<FeatureVector> keys;
        keys.reserve(cell.entries);
        for (size_t i = 0; i < cell.entries; ++i)
            keys.push_back(randomKey(rng, dim));
        const std::vector<FeatureVector> probes = nearDuplicates(keys);
        std::vector<FeatureVector> fresh;
        for (int i = 0; i < 100; ++i)
            fresh.push_back(randomKey(rng, dim));

        double lsh_us = measureLsh(keys, probes);
        table.cell(static_cast<uint64_t>(cell.entries))
            .cell(static_cast<uint64_t>(cell.key_bytes))
            .cell(lsh_us, 1);
        double enum_us = -1.0;
        if (cell.run_enum) {
            enum_us = measureEnumUs(keys, probes);
            FlatResult flat = measureFlat(keys, probes, fresh);
            table.cell(enum_us, 1)
                .cell(flat.us, 1)
                .cell(flat.exact_pct, 1)
                .cell(flat.fresh_exact_pct, 1);
        } else {
            table.cell("-").cell("-").cell("-").cell("-");
        }
        table.endRow();

        if (cell.entries == 100)
            lsh_small = lsh_us;
        if (cell.entries == 100000 && cell.key_bytes == 100)
            lsh_large = lsh_us;
        if (cell.entries == 10000)
            enum_10k = enum_us;
    }

    std::cout << "\n-- 768-d Downsamp keys of dataset images (3072 B) --\n";
    {
        Rng rng(11);
        DownsampleExtractor extractor(16, 16, false);
        CifarLikeOptions opt;
        auto frame = [&]() {
            int label = static_cast<int>(rng.uniformInt(0, 9));
            return extractor.extract(drawCifarLikeImage(rng, label, opt));
        };
        std::vector<FeatureVector> fresh;
        for (int i = 0; i < 100; ++i)
            fresh.push_back(frame());
        bench::Table dtable({"# of entry", "LSH (us)", "enum (us)",
                             "flat (us)", "exact %", "fresh exact %"});
        std::vector<FeatureVector> keys;
        for (size_t entries : {1000u, 10000u}) {
            while (keys.size() < entries)
                keys.push_back(frame());
            const std::vector<FeatureVector> probes = nearDuplicates(keys);
            FlatResult flat = measureFlat(keys, probes, fresh);
            dtable.cell(static_cast<uint64_t>(entries))
                .cell(measureLsh(keys, probes), 1)
                .cell(measureEnumUs(keys, probes), 1)
                .cell(flat.us, 1)
                .cell(flat.exact_pct, 1)
                .cell(flat.fresh_exact_pct, 1);
            dtable.endRow();
        }
        std::cout << "(exact % = stored rows whose exact distance the flat "
                     "probe computed, for the near-duplicate probes and for "
                     "fresh keys. Keys under 32 floats skip the filter and "
                     "read 100.)\n";
    }

    std::cout << "\n-- kNN fan-out ablation (10k entries, 100B keys) --\n";
    {
        Rng rng(55);
        LshIndex lsh(Metric::L2, 3);
        std::vector<FeatureVector> probes;
        for (size_t i = 0; i < 10000; ++i) {
            FeatureVector key = randomKey(rng, 25);
            lsh.insert(i + 1, key);
            if (probes.size() < 100)
                probes.push_back(key);
        }
        bench::Table ktable({"k", "LSH (us)"});
        for (size_t k : {1u, 2u, 4u, 8u}) {
            ktable.cell(static_cast<uint64_t>(k))
                .cell(measureLookupUs(lsh, probes, k), 1);
            ktable.endRow();
        }
        std::cout << "(k = 1 is the service default: lowest latency "
                     "without quality loss, Section 3.4)\n";
    }

    bool shape = lsh_large < lsh_small * 20 && // LSH scales gracefully
                 enum_10k > lsh_large * 5;     // enum is far slower at 10k+
    std::cout << "\nshape check (LSH ~flat; enum linear and slower): "
              << (shape ? "PASS" : "FAIL") << "\n";
    return 0;
}
