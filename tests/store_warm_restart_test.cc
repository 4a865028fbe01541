/**
 * @file
 * Warm-restart tests for the tiered store (DESIGN.md §12): a daemon
 * that dies without any shutdown path — closeDirty() is the in-process
 * stand-in for SIGKILL — must come back serving what it had, modulo
 * the torn tail of the active segment. Also covers the clean-restart
 * path — close() records each RAM entry's remaining TTL and hit count,
 * and the next start comes back through the sidecar — lazy value
 * verification of corrupted records, and tombstone durability.
 */
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include "core/potluck_service.h"
#include "features/downsample.h"
#include "store/segment_file.h"
#include "store/tiered_store.h"

namespace potluck {
namespace {

using store::SegmentFile;
using store::StoreConfig;
using store::TieredStore;

struct TempDir
{
    std::string path;

    explicit TempDir(const char *tag)
    {
        static std::atomic<int> counter{0};
        path = (std::filesystem::temp_directory_path() /
                ("potluck_warm_" + std::string(tag) + "_" +
                 std::to_string(::getpid()) + "_" +
                 std::to_string(counter++)))
                   .string();
    }

    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
};

PotluckConfig
cfg(size_t max_entries = 10000)
{
    PotluckConfig config;
    config.dropout_probability = 0.0;
    config.warmup_entries = 0;
    config.max_entries = max_entries;
    return config;
}

KeyTypeConfig
kt(const char *name = "vec")
{
    return KeyTypeConfig{name, Metric::L2, IndexKind::Linear, nullptr,
                         8,    6,          4.0};
}

StoreConfig
storeCfg(const std::string &dir, size_t segment_bytes = 1 << 20)
{
    StoreConfig scfg;
    scfg.dir = dir;
    scfg.segment_bytes = segment_bytes;
    scfg.maintenance_interval_ms = 0;
    return scfg;
}

FeatureVector
keyOf(int i)
{
    return FeatureVector({static_cast<float>(i), static_cast<float>(i % 7)});
}

void
flipByte(const std::string &path, size_t offset)
{
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(static_cast<std::streamoff>(offset));
    char b = 0;
    f.read(&b, 1);
    b ^= 0x5a;
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&b, 1);
}

/** Tail (append cursor) of a segment file, recovered by scanning. */
size_t
segmentTail(const std::string &path, size_t capacity)
{
    SegmentFile seg(path, 1, capacity);
    seg.scanFrom(0, [](size_t, const uint8_t *, size_t) {});
    return seg.tail();
}

TEST(WarmRestart, SigkillServesEveryPrekillEntry)
{
    TempDir dir("sigkill");
    const int kEntries = 200;
    VirtualClock clock;
    {
        // Half the entries live in RAM, half were demoted to disk.
        PotluckService service(cfg(100), &clock);
        TieredStore store(storeCfg(dir.path));
        store.attach(service);
        service.registerKeyType("f", kt());
        for (int i = 0; i < kEntries; ++i) {
            service.put("f", "vec", keyOf(i),
                        encodeString("v" + std::to_string(i)), {});
        }
        EXPECT_EQ(service.numEntries(), 100u);
        EXPECT_EQ(store.coldEntries(), 100u);
        store.closeDirty(); // SIGKILL: no sidecar rewrite, no msync
    }

    // A fresh daemon over the same directory: registrations and every
    // record come back from the raw log alone (there is no sidecar),
    // with NO recomputation — the ISSUE's >= 99% bar, hit at 100%.
    PotluckService service(cfg(100), &clock);
    TieredStore store(storeCfg(dir.path));
    store.attach(service);
    EXPECT_FALSE(store.recovery().sidecar_valid);
    EXPECT_EQ(store.recovery().records, static_cast<size_t>(kEntries));
    EXPECT_EQ(store.recovery().registrations, 1u);

    int hits = 0;
    for (int i = 0; i < kEntries; ++i) {
        LookupResult r = service.lookup("app", "f", "vec", keyOf(i));
        if (r.hit && decodeString(r.value) == "v" + std::to_string(i))
            ++hits;
    }
    EXPECT_GE(hits, (kEntries * 99) / 100);
    EXPECT_EQ(hits, kEntries);
}

TEST(WarmRestart, CleanCloseRestartsThroughSidecar)
{
    TempDir dir("sidecar");
    VirtualClock clock;
    {
        // A store that holds only a registration.
        PotluckService service(cfg(), &clock);
        TieredStore store(storeCfg(dir.path));
        store.attach(service);
        service.registerKeyType("f", kt());
        store.close();
    }
    {
        PotluckService service(cfg(), &clock);
        TieredStore store(storeCfg(dir.path));
        store.attach(service);
        EXPECT_TRUE(store.recovery().sidecar_valid);
        EXPECT_EQ(store.recovery().registrations, 1u);
        // The slot came back registered: a lookup misses, not throws.
        EXPECT_FALSE(service.lookup("app", "f", "vec", keyOf(0)).hit);
        for (int i = 0; i < 20; ++i) {
            service.put("f", "vec", keyOf(i),
                        encodeString("v" + std::to_string(i)), {});
        }
        store.close(); // rewrites the sidecar over the full log
    }

    PotluckService service(cfg(), &clock);
    TieredStore store(storeCfg(dir.path));
    store.attach(service);
    EXPECT_TRUE(store.recovery().sidecar_valid);
    EXPECT_EQ(store.recovery().from_sidecar, 20u);
    EXPECT_EQ(store.recovery().from_scan, 0u);
    for (int i = 0; i < 20; ++i) {
        LookupResult r = service.lookup("app", "f", "vec", keyOf(i));
        ASSERT_TRUE(r.hit) << "key " << i;
    }
}

TEST(WarmRestart, CleanCloseCarriesRemainingTtlToANewClock)
{
    TempDir dir("ttl");
    VirtualClock clock;
    {
        PotluckService service(cfg(), &clock);
        TieredStore store(storeCfg(dir.path));
        store.attach(service);
        service.registerKeyType("f", kt());
        PutOptions opts;
        opts.ttl_us = 1000;
        service.put("f", "vec", keyOf(1), encodeString("v"), opts);
        clock.advanceUs(400); // 600 us of validity left
        store.close();
    }

    VirtualClock fresh(50); // a different epoch, as after a reboot
    PotluckService service(cfg(), &fresh);
    TieredStore store(storeCfg(dir.path));
    store.attach(service);
    EXPECT_TRUE(service.lookup("app", "f", "vec", keyOf(1)).hit);
    fresh.advanceUs(700); // past the remaining 600 us
    EXPECT_FALSE(service.lookup("app", "f", "vec", keyOf(1)).hit);
    EXPECT_EQ(service.sweepExpired(), 1u);
}

TEST(WarmRestart, CleanCloseCarriesHitCountAndOverhead)
{
    TempDir dir("importance");
    VirtualClock clock;
    {
        PotluckService service(cfg(), &clock);
        TieredStore store(storeCfg(dir.path));
        store.attach(service);
        service.registerKeyType("f", kt());
        PutOptions costly;
        costly.compute_overhead_us = 5e6;
        service.put("f", "vec", keyOf(1), encodeString("v"), costly);
        for (int i = 0; i < 4; ++i)
            ASSERT_TRUE(service.lookup("app", "f", "vec", keyOf(1)).hit);
        store.close();
    }

    PotluckService service(cfg(), &clock);
    TieredStore store(storeCfg(dir.path));
    store.attach(service);
    ASSERT_TRUE(service.lookup("app", "f", "vec", keyOf(1)).hit);
    size_t entries = 0;
    service.forEachEntry([&](const CacheEntry &entry) {
        ++entries;
        EXPECT_DOUBLE_EQ(entry.compute_overhead_us, 5e6);
        // The put, 4 hits before the close, and the promoting hit.
        EXPECT_EQ(entry.access_frequency.load(), 6u);
    });
    EXPECT_EQ(entries, 1u);
}

TEST(WarmRestart, CleanCloseDropsWhatExpiredInRam)
{
    TempDir dir("expired");
    VirtualClock clock;
    {
        PotluckService service(cfg(), &clock);
        TieredStore store(storeCfg(dir.path));
        store.attach(service);
        service.registerKeyType("f", kt());
        PutOptions fleeting;
        fleeting.ttl_us = 10;
        service.put("f", "vec", keyOf(1), encodeString("gone"), fleeting);
        service.put("f", "vec", keyOf(2), encodeString("kept"), {});
        clock.advanceUs(100); // keyOf(1) expires in RAM, never swept
        store.close();
    }

    PotluckService service(cfg(), &clock);
    TieredStore store(storeCfg(dir.path));
    store.attach(service);
    EXPECT_EQ(store.recovery().records, 1u);
    EXPECT_FALSE(service.lookup("app", "f", "vec", keyOf(1)).hit);
    EXPECT_TRUE(service.lookup("app", "f", "vec", keyOf(2)).hit);
}

TEST(WarmRestart, MultiKeyEntryHitsUnderEveryKeyType)
{
    TempDir dir("multikey");
    VirtualClock clock;
    auto ex8 = std::make_shared<DownsampleExtractor>(8, 8, true);
    auto ex4 = std::make_shared<DownsampleExtractor>(4, 4, true);
    Image img(16, 16, 3, 77);
    {
        PotluckService service(cfg(), &clock);
        TieredStore store(storeCfg(dir.path));
        store.attach(service);
        service.registerKeyType("f", kt("k8"), ex8);
        service.registerKeyType("f", kt("k4"), ex4);
        PutOptions options;
        options.raw_input = &img;
        service.put("f", "k8", ex8->extract(img), encodeInt(7), options);
        store.close();
    }

    // Each restart promotes the entry through a different slot's cold
    // probe; the promoted entry then answers under every key type from
    // RAM, and the next clean close records it again.
    const std::map<std::string, FeatureVector> keys = {
        {"k8", ex8->extract(img)}, {"k4", ex4->extract(img)}};
    for (const char *first : {"k8", "k4"}) {
        PotluckService service(cfg(), &clock);
        TieredStore store(storeCfg(dir.path));
        store.attach(service);
        LookupResult cold = service.lookup("a", "f", first, keys.at(first));
        ASSERT_TRUE(cold.hit) << first;
        EXPECT_EQ(decodeInt(cold.value), 7);
        for (const auto &[type, key] : keys)
            EXPECT_TRUE(service.lookup("a", "f", type, key).hit) << type;
        EXPECT_EQ(service.numEntries(), 1u);
    }
}

TEST(WarmRestart, TornTailLosesOnlyTheTornRecord)
{
    TempDir dir("torn");
    const size_t kSegmentBytes = 1 << 16;
    VirtualClock clock;
    {
        PotluckService service(cfg(), &clock);
        TieredStore store(storeCfg(dir.path, kSegmentBytes));
        store.attach(service);
        service.registerKeyType("f", kt());
        for (int i = 0; i < 10; ++i) {
            service.put("f", "vec", keyOf(i),
                        encodeString("v" + std::to_string(i)), {});
        }
        store.closeDirty();
    }
    // Tear the last appended frame: its trailing CRC byte never made
    // it to the media.
    const std::string seg_path = dir.path + "/seg-1.log";
    size_t tail = segmentTail(seg_path, kSegmentBytes);
    ASSERT_GT(tail, 0u);
    flipByte(seg_path, tail - 1);

    PotluckService service(cfg(), &clock);
    TieredStore store(storeCfg(dir.path, kSegmentBytes));
    store.attach(service);
    EXPECT_EQ(store.recovery().torn_segments, 1u);
    EXPECT_EQ(store.recovery().records, 9u); // all but the torn one
    for (int i = 0; i < 9; ++i) {
        LookupResult r = service.lookup("app", "f", "vec", keyOf(i));
        ASSERT_TRUE(r.hit) << "key " << i;
    }
    EXPECT_FALSE(service.lookup("app", "f", "vec", keyOf(9)).hit);
}

TEST(WarmRestart, CorruptValueIsRefusedAtPromotionTime)
{
    TempDir dir("lazycrc");
    const size_t kSegmentBytes = 1 << 16;
    VirtualClock clock;
    {
        PotluckService service(cfg(), &clock);
        TieredStore store(storeCfg(dir.path, kSegmentBytes));
        store.attach(service);
        service.registerKeyType("f", kt());
        for (int i = 0; i < 3; ++i) {
            service.put("f", "vec", keyOf(i),
                        encodeString(std::string(64, 'a' + i)), {});
        }
        store.close();
    }
    // Flip a value byte of the LAST record. The sidecar covers it, so
    // recovery's header-only parse accepts it — the damage must be
    // caught by the lazy CRC check when a promote faults the value in.
    const std::string seg_path = dir.path + "/seg-1.log";
    size_t tail = segmentTail(seg_path, kSegmentBytes);
    flipByte(seg_path, tail - sizeof(uint32_t) - 10); // inside the value

    PotluckService service(cfg(), &clock);
    TieredStore store(storeCfg(dir.path, kSegmentBytes));
    store.attach(service);
    EXPECT_TRUE(store.recovery().sidecar_valid);
    EXPECT_EQ(store.recovery().records, 3u);

    EXPECT_FALSE(service.lookup("app", "f", "vec", keyOf(2)).hit);
    EXPECT_EQ(service.metrics().counter("store.value_crc_failures").value(),
              1u);
    // The bad record is quarantined — still tracked (awaiting repair
    // from a replica or a local re-put), but never promoted again, so
    // the failed probe is not retried forever.
    EXPECT_EQ(store.trackedRecords(), 3u);
    EXPECT_EQ(store.quarantinedCount(), 1u);
    EXPECT_FALSE(service.lookup("app", "f", "vec", keyOf(2)).hit);
    EXPECT_EQ(service.metrics().counter("store.value_crc_failures").value(),
              1u); // the quarantined record never reached a second CRC check
    // Undamaged records are unaffected.
    EXPECT_TRUE(service.lookup("app", "f", "vec", keyOf(0)).hit);
    EXPECT_TRUE(service.lookup("app", "f", "vec", keyOf(1)).hit);
}

TEST(WarmRestart, TombstonesSurviveSigkill)
{
    TempDir dir("tombstone");
    VirtualClock clock;
    {
        PotluckConfig config = cfg(1);
        PotluckService service(config, &clock);
        TieredStore store(storeCfg(dir.path));
        store.attach(service);
        service.registerKeyType("f", kt());
        PutOptions opts;
        opts.ttl_us = 1000;
        service.put("f", "vec", keyOf(1), encodeString("dead"), opts);
        service.put("f", "vec", keyOf(2), encodeString("alive"), {});
        ASSERT_EQ(store.coldEntries(), 1u); // keyOf(1) was demoted
        clock.advanceUs(2000);
        ASSERT_EQ(store.sweepExpiredCold(), 1u);
        store.closeDirty();
    }

    // The swept record's tombstone is durable: it must not resurrect
    // with a fresh TTL on replay.
    PotluckService service(cfg(), &clock);
    TieredStore store(storeCfg(dir.path));
    store.attach(service);
    EXPECT_EQ(store.recovery().records, 1u);
    EXPECT_FALSE(service.lookup("app", "f", "vec", keyOf(1)).hit);
    EXPECT_TRUE(service.lookup("app", "f", "vec", keyOf(2)).hit);
}

TEST(WarmRestart, SecondRestartStacksOnRecoveredState)
{
    // Restart, add more entries, crash again: replay must merge both
    // epochs (recovered records + the new tail) correctly.
    TempDir dir("stacked");
    VirtualClock clock;
    {
        PotluckService service(cfg(), &clock);
        TieredStore store(storeCfg(dir.path));
        store.attach(service);
        service.registerKeyType("f", kt());
        for (int i = 0; i < 5; ++i)
            service.put("f", "vec", keyOf(i), encodeString("epoch1"), {});
        store.closeDirty();
    }
    {
        PotluckService service(cfg(), &clock);
        TieredStore store(storeCfg(dir.path));
        store.attach(service);
        for (int i = 5; i < 10; ++i)
            service.put("f", "vec", keyOf(i), encodeString("epoch2"), {});
        // Overwrite one epoch-1 key so replay must pick the newer one.
        service.put("f", "vec", keyOf(0), encodeString("epoch2"), {});
        store.closeDirty();
    }

    PotluckService service(cfg(), &clock);
    TieredStore store(storeCfg(dir.path));
    store.attach(service);
    EXPECT_EQ(store.recovery().records, 10u);
    LookupResult r = service.lookup("app", "f", "vec", keyOf(0));
    ASSERT_TRUE(r.hit);
    EXPECT_EQ(decodeString(r.value), "epoch2");
    for (int i = 1; i < 10; ++i)
        EXPECT_TRUE(service.lookup("app", "f", "vec", keyOf(i)).hit);
}

} // namespace
} // namespace potluck
