/**
 * @file
 * perfbench_selftest: checks of the benchmark's own arithmetic and
 * inputs — the percentile helper's sample floor, the quiet quartile of
 * blocks, block rates, the self-time subtraction, and that op lists are
 * a pure function of the seed.
 * Exits non-zero when any check fails.
 */
#include <cmath>
#include <iostream>
#include <string>

#include "ops.h"
#include "stats.h"

using namespace perfbench;

namespace {

int g_failures = 0;

void
expect(bool ok, const std::string &what)
{
    std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
    if (!ok)
        ++g_failures;
}

std::vector<double>
ramp(size_t n)
{
    std::vector<double> v;
    for (size_t i = 0; i < n; ++i)
        v.push_back(static_cast<double>(n - i)); // unsorted on purpose
    return v;
}

void
testPercentile()
{
    expect(!percentile(ramp(199), 95),
           "no p95 from 199 samples (fewer than 10 beyond it)");
    std::optional<double> p95 = percentile(ramp(200), 95);
    // Ranks 1..200: rank 0.95 * 199 = 189.05 -> 190.05.
    expect(p95 && std::abs(*p95 - 190.05) < 1e-9, "p95 of 1..200 is 190.05");
    expect(!percentile(ramp(19), 50), "no p50 from 19 samples");
    expect(median({3.0, 1.0, 2.0}) == 2.0, "median of an odd sample");
    expect(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "median of an even sample");
    expect(!median({}), "no median of an empty sample");
}

void
testQuietQuartile()
{
    expect(quantile({4.0, 1.0, 3.0, 2.0}, 0.25) == 1.75,
           "the lower quartile interpolates");
    // Five blocks of 200 whose medians are 50, 40, 30, 20 and 10.
    std::vector<double> v;
    for (int b = 5; b >= 1; --b)
        v.insert(v.end(), 200, 10.0 * b);
    expect(quietPercentile(v, 50) == 20.0,
           "the lower quartile of five blocks' medians");
    expect(!quietPercentile(ramp(199), 95), "no p95 from 199 samples");
    // 399 samples are one block: the last block takes the remainder.
    std::optional<double> p95 = quietPercentile(ramp(399), 95);
    expect(p95 && std::abs(*p95 - 379.1) < 1e-9,
           "a short remainder joins the last block");
}

void
testBlockRates()
{
    // 450 ops in two blocks (the second takes the 50 left over): 300
    // requests in the first second, 400 in the next two.
    const std::vector<BlockMark> marks = {
        {0, 0}, {1'000'000'000, 300}, {2'000'000'000, 600}};
    const std::vector<double> r =
        blockRates(marks, 3'000'000'000, 700, 450);
    expect(r.size() == 2 && r[0] == 300.0 && r[1] == 200.0,
           "requests per second of each block");
    expect(blockRates({}, 0, 0, 0).empty(), "no blocks without ops");
}

void
testSelfTime()
{
    expect(selfTimeNs({100, 200}, {}) == 100, "self time without children");
    expect(selfTimeNs({100, 200}, {{110, 120}, {150, 170}}) == 70,
           "disjoint children are subtracted");
    expect(selfTimeNs({100, 200}, {{110, 130}, {120, 140}}) == 70,
           "overlapping children count once");
    expect(selfTimeNs({100, 200}, {{50, 120}, {190, 250}}) == 70,
           "children are clipped to the parent");
    expect(selfTimeNs({100, 200}, {{150, 160}, {110, 120}}) == 80,
           "children in any order");
    expect(selfTimeNs({100, 200}, {{90, 210}}) == 0,
           "a child covering the parent leaves no self time");
}

std::vector<uint8_t>
serializeRun(Workload w, uint64_t seed)
{
    std::vector<uint8_t> out;
    for (const OpList &ops : buildOps(w, seed, 1.0, Scale::Tiny)) {
        const std::vector<uint8_t> one = serializeOps(ops);
        out.insert(out.end(), one.begin(), one.end());
    }
    return out;
}

void
testOpLists()
{
    for (Workload w :
         {Workload::Recog, Workload::HotSmall, Workload::ChurnTiered}) {
        const std::string name = workloadName(w);
        const auto a = serializeRun(w, 7);
        const auto b = serializeRun(w, 7);
        const auto c = serializeRun(w, 8);
        expect(a == b, name + ": one seed gives byte-identical op lists");
        expect(a != c, name + ": another seed gives other op lists");
        const std::vector<OpList> runs = buildOps(w, 7, 1.0, Scale::Tiny);
        expect(runs.size() > 1 &&
                   serializeOps(runs[0]) != serializeOps(runs[1]),
               name + ": each set-up gets its own draw");
    }
}

} // namespace

int
main()
{
    testPercentile();
    testQuietQuartile();
    testBlockRates();
    testSelfTime();
    testOpLists();
    std::cout << (g_failures ? "selftest FAILED" : "selftest passed")
              << std::endl;
    return g_failures ? 1 : 0;
}
