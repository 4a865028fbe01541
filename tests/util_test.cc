/**
 * @file
 * Unit tests for the util substrate: logging, RNG determinism, clocks,
 * the thread pool, statistics accumulators and string helpers.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>

#include "util/clock.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/stringutil.h"
#include "util/thread_pool.h"

namespace potluck {
namespace {

TEST(Logging, FatalThrowsWithMessage)
{
    try {
        POTLUCK_FATAL("bad config value " << 42);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("bad config value 42"),
                  std::string::npos);
    }
}

TEST(Logging, AssertPassesOnTrueCondition)
{
    POTLUCK_ASSERT(1 + 1 == 2, "arithmetic is broken");
    SUCCEED();
}

TEST(Logging, VerbositySwitchIsSticky)
{
    setLogVerbose(false);
    EXPECT_FALSE(logVerbose());
    setLogVerbose(true);
    EXPECT_TRUE(logVerbose());
}

TEST(Rng, SameSeedSameSequence)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.uniformInt(0, 1000000), b.uniformInt(0, 1000000));
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 50; ++i)
        if (a.uniformInt(0, 1 << 30) == b.uniformInt(0, 1 << 30))
            ++same;
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformIntRespectsBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        int64_t v = rng.uniformInt(-5, 5);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 5);
    }
}

TEST(Rng, UniformRealRespectsBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        double v = rng.uniformReal(2.0, 3.0);
        EXPECT_GE(v, 2.0);
        EXPECT_LT(v, 3.0);
    }
}

TEST(Rng, BernoulliMatchesProbability)
{
    Rng rng(99);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        if (rng.bernoulli(0.1))
            ++hits;
    double rate = static_cast<double>(hits) / n;
    EXPECT_NEAR(rate, 0.1, 0.02);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(5);
    RunningStats stats;
    for (int i = 0; i < 20000; ++i)
        stats.add(rng.gaussian(3.0, 2.0));
    EXPECT_NEAR(stats.mean(), 3.0, 0.1);
    EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(Rng, WeightedIndexFavorsHeavyWeights)
{
    Rng rng(11);
    std::vector<double> weights = {1.0, 0.0, 9.0};
    int counts[3] = {0, 0, 0};
    for (int i = 0; i < 5000; ++i)
        ++counts[rng.weightedIndex(weights)];
    EXPECT_EQ(counts[1], 0);
    EXPECT_GT(counts[2], counts[0] * 5);
}

TEST(Rng, SampleIndicesDistinct)
{
    Rng rng(3);
    auto sample = rng.sampleIndices(100, 30);
    std::set<size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 30u);
    for (size_t idx : sample)
        EXPECT_LT(idx, 100u);
}

TEST(Clock, VirtualClockAdvances)
{
    VirtualClock clock(1000);
    EXPECT_EQ(clock.nowUs(), 1000u);
    clock.advanceUs(500);
    EXPECT_EQ(clock.nowUs(), 1500u);
    clock.advanceMs(2.5);
    EXPECT_EQ(clock.nowUs(), 4000u);
}

TEST(Clock, SystemClockMonotone)
{
    SystemClock &clock = SystemClock::instance();
    uint64_t a = clock.nowUs();
    uint64_t b = clock.nowUs();
    EXPECT_LE(a, b);
}

TEST(Clock, StopwatchMeasuresElapsed)
{
    Stopwatch sw;
    volatile double sink = 0.0;
    for (int i = 0; i < 100000; ++i)
        sink = sink + std::sqrt(static_cast<double>(i));
    EXPECT_GT(sw.elapsedUs(), 0.0);
    (void)sink;
}

TEST(ThreadPool, ExecutesAllTasks)
{
    ThreadPool pool(4);
    std::atomic<int> counter{0};
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 100; ++i)
        futures.push_back(pool.submit([&counter]() { ++counter; }));
    for (auto &f : futures)
        f.get();
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ReturnsValues)
{
    ThreadPool pool(2);
    auto f = pool.submit([]() { return 6 * 7; });
    EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, PropagatesExceptions)
{
    ThreadPool pool(1);
    auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
    EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, WaitIdleBlocksUntilDrained)
{
    ThreadPool pool(2);
    std::atomic<int> done{0};
    for (int i = 0; i < 20; ++i)
        pool.submit([&done]() { ++done; });
    pool.waitIdle();
    EXPECT_EQ(done.load(), 20);
}

TEST(RunningStats, BasicMoments)
{
    RunningStats s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_NEAR(s.stddev(), 2.138, 0.01);
}

TEST(RunningStats, MergeEqualsCombined)
{
    RunningStats a, b, all;
    Rng rng(17);
    for (int i = 0; i < 100; ++i) {
        double v = rng.gaussian(0, 1);
        (i % 2 ? a : b).add(v);
        all.add(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(SampleSet, PercentilesInterpolate)
{
    SampleSet s;
    for (int i = 1; i <= 100; ++i)
        s.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 100.0);
    EXPECT_NEAR(s.median(), 50.5, 1e-9);
    EXPECT_NEAR(s.percentile(90), 90.1, 1e-9);
}

TEST(StringUtil, SplitAndJoinRoundTrip)
{
    auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(join(parts, ","), "a,b,,c");
}

TEST(StringUtil, TrimStripsWhitespace)
{
    EXPECT_EQ(trim("  hello \t\n"), "hello");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
}

TEST(StringUtil, StartsWith)
{
    EXPECT_TRUE(startsWith("potluck", "pot"));
    EXPECT_FALSE(startsWith("pot", "potluck"));
}

TEST(StringUtil, FormatBytes)
{
    EXPECT_EQ(formatBytes(512), "512 B");
    EXPECT_EQ(formatBytes(1536), "1.5 KB");
    EXPECT_EQ(formatBytes(3 * 1024 * 1024), "3.0 MB");
}

} // namespace
} // namespace potluck
