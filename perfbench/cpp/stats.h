/**
 * @file
 * Order statistics and span arithmetic for the benchmark: percentiles
 * that refuse to report a tail the sample cannot support, and the
 * self-time subtraction the per-layer metrics are built from.
 */
#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace perfbench {

/** Samples that must lie beyond a reported percentile. */
inline constexpr double kTailSamples = 10.0;

/**
 * The p-th percentile (0 < p < 100) of `values`, by linear
 * interpolation between order statistics; nullopt unless at least
 * kTailSamples values lie beyond it (so p95 needs 200 samples).
 */
inline std::optional<double>
percentile(std::vector<double> values, double p)
{
    const double n = static_cast<double>(values.size());
    if (values.empty() || n * (1.0 - p / 100.0) < kTailSamples)
        return std::nullopt;
    std::sort(values.begin(), values.end());
    const double rank = p / 100.0 * (n - 1.0);
    const size_t lo = static_cast<size_t>(std::floor(rank));
    const size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values[lo] + frac * (values[hi] - values[lo]);
}

/** Median of any non-empty sample (the order-statistics median, with
 * no tail requirement); nullopt when empty. */
inline std::optional<double>
median(std::vector<double> values)
{
    if (values.empty())
        return std::nullopt;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/** Consecutive samples (or ops) per block: the fewest that leave
 * kTailSamples beyond a p95. */
inline constexpr size_t kBlockSamples = 200;

/** The q-quantile (0 <= q <= 1) of `values`, by linear interpolation
 * between order statistics; nullopt when empty. */
inline std::optional<double>
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return std::nullopt;
    std::sort(values.begin(), values.end());
    const double rank = q * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(rank));
    const size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (rank - static_cast<double>(lo)) *
                            (values[hi] - values[lo]);
}

/**
 * The run's quiet-quartile p-th percentile: the p-th percentile of each
 * block of kBlockSamples consecutive values (the last block also takes
 * the remainder), then the lower quartile of the block values. The
 * shared host slows memory-bound work by up to 2x in spells of seconds
 * to minutes; a block lies within one spell, and the lower quartile
 * keeps the run's quieter spells, so the figure follows the program
 * rather than how much of the run the host spent loaded. A change that
 * slows every request still moves it in full. A sample shorter than
 * one block is one block; nullopt when `percentile` cannot support p in
 * a block.
 */
inline std::optional<double>
quietPercentile(const std::vector<double> &values, double p)
{
    const size_t blocks = std::max<size_t>(1, values.size() / kBlockSamples);
    std::vector<double> per_block;
    for (size_t b = 0; b < blocks; ++b) {
        const auto first = values.begin() + b * kBlockSamples;
        const auto last =
            b + 1 == blocks ? values.end() : first + kBlockSamples;
        std::optional<double> v = p == 50.0
                                      ? median({first, last})
                                      : percentile({first, last}, p);
        if (!v)
            return std::nullopt;
        per_block.push_back(*v);
    }
    return quantile(per_block, 0.25);
}

/** Where each block of kBlockSamples consecutive ops of one generator
 * thread starts: its time and the requests sent before it. */
struct BlockMark
{
    uint64_t start_ns = 0;
    uint64_t requests_before = 0;
};

/**
 * Requests per second in each block of one thread's ops, given the
 * marks of its blocks and when and after how many requests the thread
 * ended; the last block also takes the remainder.
 */
inline std::vector<double>
blockRates(const std::vector<BlockMark> &marks, uint64_t end_ns,
           uint64_t requests, size_t ops)
{
    std::vector<double> rates;
    const size_t blocks =
        std::min(marks.size(), std::max<size_t>(1, ops / kBlockSamples));
    for (size_t b = 0; b < blocks; ++b) {
        const BlockMark next = b + 1 == blocks
                                   ? BlockMark{end_ns, requests}
                                   : marks[b + 1];
        if (next.start_ns > marks[b].start_ns)
            rates.push_back(
                static_cast<double>(next.requests_before -
                                    marks[b].requests_before) *
                1e9 / static_cast<double>(next.start_ns - marks[b].start_ns));
    }
    return rates;
}

/** A closed time interval on the steady clock, in nanoseconds. */
struct Interval
{
    uint64_t start = 0;
    uint64_t end = 0;
};

/**
 * Self time of `parent`: its duration minus the part of it that the
 * `children` intervals cover. Overlapping children are counted once
 * and children are clipped to the parent, so the result is never
 * negative.
 */
inline uint64_t
selfTimeNs(Interval parent, std::vector<Interval> children)
{
    if (parent.end <= parent.start)
        return 0;
    std::sort(children.begin(), children.end(),
              [](const Interval &a, const Interval &b) {
                  return a.start < b.start;
              });
    uint64_t covered = 0;
    uint64_t cursor = parent.start;
    for (const Interval &c : children) {
        const uint64_t s = std::max(c.start, cursor);
        const uint64_t e = std::min(c.end, parent.end);
        if (e > s) {
            covered += e - s;
            cursor = e;
        }
    }
    return parent.end - parent.start - covered;
}

} // namespace perfbench

#endif // PERFBENCH_STATS_H
