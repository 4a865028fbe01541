/**
 * @file
 * Tests for the tiered persistent store (DESIGN.md §12): SegmentFile
 * framing and torn-tail recovery, sidecar round trips, content
 * identity, and the TieredStore's write-through / demotion /
 * promotion / cold-capacity / compaction behavior against a live
 * service.
 */
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/potluck_service.h"
#include "store/cold_index.h"
#include "store/segment_file.h"
#include "store/tiered_store.h"

namespace potluck {
namespace {

using store::SegmentFile;
using store::SegmentScanReport;
using store::SidecarEntry;
using store::SidecarImage;
using store::SidecarRegistration;
using store::SidecarSegment;
using store::StoreConfig;
using store::TieredStore;

/** Unique per-test store directory, removed on scope exit. */
struct TempDir
{
    std::string path;

    explicit TempDir(const char *tag)
    {
        static std::atomic<int> counter{0};
        path = (std::filesystem::temp_directory_path() /
                ("potluck_store_" + std::string(tag) + "_" +
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
cfg()
{
    PotluckConfig config;
    config.dropout_probability = 0.0;
    config.warmup_entries = 0;
    return config;
}

KeyTypeConfig
kt(const char *name = "vec")
{
    return KeyTypeConfig{name, Metric::L2, IndexKind::Linear, nullptr,
                         8,    6,          4.0};
}

/** Maintenance-thread-free store config (tests drive steps directly). */
StoreConfig
storeCfg(const std::string &dir, size_t segment_bytes = 1 << 20)
{
    StoreConfig scfg;
    scfg.dir = dir;
    scfg.segment_bytes = segment_bytes;
    scfg.maintenance_interval_ms = 0;
    return scfg;
}

/** Flip one byte of a file in place (simulated media corruption). */
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

/** Append that must succeed (no fault injection installed). */
size_t
appendOk(SegmentFile &seg, const void *payload, size_t n)
{
    size_t offset = 0;
    EXPECT_TRUE(seg.append(payload, n, offset));
    return offset;
}

// ----------------------------------------------------------- SegmentFile

TEST(SegmentFileTest, AppendScanRoundTrip)
{
    TempDir dir("segrt");
    std::filesystem::create_directories(dir.path);
    const std::string path = dir.path + "/seg-1.log";

    SegmentFile seg(path, 1, 4096);
    EXPECT_EQ(seg.tail(), 0u);
    std::vector<std::string> payloads = {"alpha", "bravo-longer",
                                         std::string(100, 'x')};
    std::vector<size_t> offsets;
    for (const std::string &p : payloads) {
        ASSERT_TRUE(seg.fits(p.size()));
        offsets.push_back(appendOk(seg, p.data(), p.size()));
    }
    EXPECT_GT(seg.tail(), 0u);
    EXPECT_FALSE(seg.fits(8192)); // larger than the whole segment

    // Trusted reads return the exact payloads.
    for (size_t i = 0; i < payloads.size(); ++i) {
        size_t n = 0;
        const uint8_t *p = seg.payloadAt(offsets[i], n);
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(std::string(reinterpret_cast<const char *>(p), n),
                  payloads[i]);
        EXPECT_TRUE(seg.verifyAt(offsets[i]));
    }

    // A checksum-verified walk sees all three, in order.
    std::vector<std::string> seen;
    SegmentScanReport report =
        seg.scanFrom(0, [&](size_t, const uint8_t *p, size_t n) {
            seen.emplace_back(reinterpret_cast<const char *>(p), n);
        });
    EXPECT_EQ(report.records, 3u);
    EXPECT_FALSE(report.torn_tail);
    EXPECT_EQ(seen, payloads);
}

TEST(SegmentFileTest, TornTailStopsScanAndAppendsResume)
{
    TempDir dir("segtorn");
    std::filesystem::create_directories(dir.path);
    const std::string path = dir.path + "/seg-1.log";

    size_t third_offset = 0, tail = 0;
    {
        SegmentFile seg(path, 1, 4096);
        appendOk(seg, "first", 5);
        appendOk(seg, "second", 6);
        third_offset = appendOk(seg, "third", 5);
        tail = seg.tail();
        seg.sync();
    }
    // Corrupt the LAST frame's trailing CRC byte: the torn-write shape
    // a crash mid-append leaves behind.
    flipByte(path, tail - 1);

    SegmentFile seg(path, 1, 4096);
    std::vector<std::string> seen;
    SegmentScanReport report =
        seg.scanFrom(0, [&](size_t, const uint8_t *p, size_t n) {
            seen.emplace_back(reinterpret_cast<const char *>(p), n);
        });
    EXPECT_EQ(report.records, 2u);
    EXPECT_TRUE(report.torn_tail);
    EXPECT_EQ(seen, (std::vector<std::string>{"first", "second"}));
    // The append cursor parked at the torn frame, so new records
    // overwrite it.
    EXPECT_EQ(seg.tail(), third_offset);
    appendOk(seg, "fourth", 6);
    SegmentScanReport again = seg.scanFrom(0, [](size_t, const uint8_t *,
                                                 size_t) {});
    EXPECT_EQ(again.records, 3u);
    EXPECT_FALSE(again.torn_tail);
}

TEST(SegmentFileTest, VerifyAtCatchesPayloadCorruption)
{
    TempDir dir("segverify");
    std::filesystem::create_directories(dir.path);
    const std::string path = dir.path + "/seg-1.log";

    size_t offset = 0;
    {
        SegmentFile seg(path, 1, 4096);
        const std::string payload(64, 'v');
        offset = appendOk(seg, payload.data(), payload.size());
        EXPECT_TRUE(seg.verifyAt(offset));
        seg.sync();
    }
    // One bit anywhere in the payload breaks the lazy fault-in check
    // even though the untrusted header still parses.
    flipByte(path, offset + sizeof(uint64_t) + 10);
    SegmentFile seg(path, 1, 4096);
    size_t n = 0;
    EXPECT_NE(seg.payloadAt(offset, n), nullptr);
    EXPECT_FALSE(seg.verifyAt(offset));
}

// ------------------------------------------------------------- Sidecar

TEST(ColdIndexTest, SidecarRoundTrip)
{
    TempDir dir("sidecar");
    std::filesystem::create_directories(dir.path);
    const std::string path = dir.path + "/index.sidecar";

    SidecarImage image;
    image.registrations.push_back({"recognize", kt()});
    image.segments.push_back({1, 2048});
    image.segments.push_back({2, 512});
    image.entries.push_back({0xdeadbeefULL, 1, 0});
    image.entries.push_back({0xfeedf00dULL, 2, 128});
    store::saveSidecar(image, path);

    SidecarImage loaded;
    ASSERT_TRUE(store::loadSidecar(loaded, path));
    ASSERT_EQ(loaded.registrations.size(), 1u);
    EXPECT_EQ(loaded.registrations[0].function, "recognize");
    EXPECT_EQ(loaded.registrations[0].config.name, "vec");
    EXPECT_EQ(loaded.registrations[0].config.metric, Metric::L2);
    ASSERT_EQ(loaded.segments.size(), 2u);
    EXPECT_EQ(loaded.segments[0].generation, 1u);
    EXPECT_EQ(loaded.segments[0].indexed_len, 2048u);
    ASSERT_EQ(loaded.entries.size(), 2u);
    EXPECT_EQ(loaded.entries[1].key_hash, 0xfeedf00dULL);
    EXPECT_EQ(loaded.entries[1].offset, 128u);
}

TEST(ColdIndexTest, MissingOrCorruptSidecarFallsBackToScan)
{
    TempDir dir("sidecarbad");
    std::filesystem::create_directories(dir.path);
    const std::string path = dir.path + "/index.sidecar";

    SidecarImage loaded;
    EXPECT_FALSE(store::loadSidecar(loaded, path)); // missing

    SidecarImage image;
    image.entries.push_back({1, 1, 0});
    store::saveSidecar(image, path);
    flipByte(path, std::filesystem::file_size(path) / 2);
    EXPECT_FALSE(store::loadSidecar(loaded, path)); // corrupt
}

// ------------------------------------------------------ Content identity

TEST(TieredStoreTest, ContentIdentityIgnoresEntryIds)
{
    CacheEntry a;
    a.id = 7;
    a.function = "resize";
    a.keys["vec"] = FeatureVector({1.0f, 2.0f});
    CacheEntry b;
    b.id = 9000; // restarts renumber entries; identity must not care
    b.function = "resize";
    b.keys["vec"] = FeatureVector({1.0f, 2.0f});
    EXPECT_EQ(TieredStore::contentIdentity(a),
              TieredStore::contentIdentity(b));

    b.keys["vec"] = FeatureVector({1.0f, 2.5f});
    EXPECT_NE(TieredStore::contentIdentity(a),
              TieredStore::contentIdentity(b));
    b.keys["vec"] = FeatureVector({1.0f, 2.0f});
    b.function = "rotate";
    EXPECT_NE(TieredStore::contentIdentity(a),
              TieredStore::contentIdentity(b));
}

// ------------------------------------------------- TieredStore + service

TEST(TieredStoreTest, EveryPutIsWrittenThrough)
{
    TempDir dir("admit");
    VirtualClock clock;
    PotluckService service(cfg(), &clock);
    TieredStore store(storeCfg(dir.path));
    store.attach(service);

    service.registerKeyType("f", kt());
    for (int i = 0; i < 3; ++i) {
        service.put("f", "vec",
                    FeatureVector({static_cast<float>(i), 0.0f}),
                    encodeString("v" + std::to_string(i)), {});
    }
    EXPECT_EQ(store.trackedRecords(), 3u);
    EXPECT_EQ(store.coldEntries(), 0u); // all resident, none probe-visible
    EXPECT_EQ(service.metrics().counter("store.admits").value(), 3u);

    // Re-putting the same content supersedes the old frame.
    service.put("f", "vec", FeatureVector({0.0f, 0.0f}),
                encodeString("v0-new"), {});
    EXPECT_EQ(store.trackedRecords(), 3u);
    EXPECT_EQ(service.metrics().counter("store.replaced").value(), 1u);

    store.close();
}

TEST(TieredStoreTest, EvictionDemotesAndLookupPromotes)
{
    TempDir dir("demote");
    PotluckConfig config = cfg();
    config.max_entries = 2;
    VirtualClock clock;
    PotluckService service(config, &clock);
    TieredStore store(storeCfg(dir.path));
    store.attach(service);

    service.registerKeyType("f", kt());
    for (int i = 0; i < 3; ++i) {
        service.put("f", "vec",
                    FeatureVector({static_cast<float>(10 * i), 0.0f}),
                    encodeString("v" + std::to_string(i)), {});
    }
    // Two fit in RAM; the capacity victim was demoted, not dropped.
    EXPECT_EQ(service.numEntries(), 2u);
    EXPECT_EQ(service.stats().evictions, 1u);
    EXPECT_EQ(store.coldEntries(), 1u);
    EXPECT_EQ(service.metrics().counter("store.demotions").value(), 1u);

    // Every key answers — the demoted one via cold-tier promotion.
    for (int i = 0; i < 3; ++i) {
        LookupResult r = service.lookup(
            "app", "f", "vec",
            FeatureVector({static_cast<float>(10 * i), 0.0f}));
        ASSERT_TRUE(r.hit) << "key " << i;
        EXPECT_EQ(decodeString(r.value), "v" + std::to_string(i));
    }
    EXPECT_GE(service.metrics().counter("store.promotions").value(), 1u);

    store.close();
}

TEST(TieredStoreTest, ExpiredVictimIsNotDemoted)
{
    TempDir dir("expired");
    PotluckConfig config = cfg();
    config.max_entries = 1;
    VirtualClock clock;
    PotluckService service(config, &clock);
    TieredStore store(storeCfg(dir.path));
    store.attach(service);

    service.registerKeyType("f", kt());
    PutOptions opts;
    opts.ttl_us = 100;
    service.put("f", "vec", FeatureVector({1.0f, 0.0f}),
                encodeString("short"), opts);
    clock.advanceUs(200); // the resident entry is now past expiry
    service.put("f", "vec", FeatureVector({2.0f, 0.0f}),
                encodeString("long"), {});
    // The victim had already expired: demotion would waste the write,
    // and its write-through record is dropped rather than left dead in
    // the log.
    EXPECT_EQ(store.coldEntries(), 0u);
    EXPECT_EQ(service.metrics().counter("store.demotions").value(), 0u);
    EXPECT_EQ(store.trackedRecords(), 1u);
    EXPECT_GE(service.metrics().counter("store.tombstones").value(), 1u);

    store.close();
}

TEST(TieredStoreTest, HashSlotColdProbeMatchesOnlyIdenticalKeys)
{
    TempDir dir("hashexact");
    PotluckConfig config = cfg();
    config.max_entries = 1;
    VirtualClock clock;
    PotluckService service(config, &clock);
    TieredStore store(storeCfg(dir.path));
    store.attach(service);

    service.registerKeyType("f", KeyTypeConfig{"vec", Metric::L2,
                                               IndexKind::Hash});
    service.setThreshold("f", "vec", 5.0);
    service.put("f", "vec", FeatureVector({1.0f, 0.0f}),
                encodeString("one"), {});
    service.put("f", "vec", FeatureVector({9.0f, 0.0f}),
                encodeString("nine"), {}); // demotes (1, 0)
    ASSERT_EQ(store.coldEntries(), 1u);

    // The RAM Hash index serves only identical keys, whatever the
    // threshold; a store attached behind it must not change that.
    EXPECT_FALSE(
        service.lookup("app", "f", "vec", FeatureVector({1.5f, 0.0f})).hit);
    EXPECT_EQ(store.coldEntries(), 1u);
    LookupResult r =
        service.lookup("app", "f", "vec", FeatureVector({1.0f, 0.0f}));
    ASSERT_TRUE(r.hit);
    EXPECT_EQ(decodeString(r.value), "one");

    store.close();
}

TEST(TieredStoreTest, ColdCapacityDropsLeastImportant)
{
    TempDir dir("coldcap");
    PotluckConfig config = cfg();
    config.max_entries = 1;
    VirtualClock clock;
    PotluckService service(config, &clock);
    StoreConfig scfg = storeCfg(dir.path);
    scfg.cold_capacity_bytes = 600; // a few small records' worth
    TieredStore store(scfg);
    store.attach(service);

    service.registerKeyType("f", kt());
    PutOptions opts;
    for (int i = 0; i < 12; ++i) {
        // Rising overhead makes later demotions strictly more
        // important, so the budget keeps the most recent ones.
        opts.compute_overhead_us = 1000.0 * (i + 1);
        service.put("f", "vec",
                    FeatureVector({static_cast<float>(i), 0.0f}),
                    encodeString("value-" + std::to_string(i)), opts);
    }
    EXPECT_GT(store.coldEntries(), 0u);
    EXPECT_LE(store.coldBytes(), 600u);
    EXPECT_GT(service.metrics().counter("store.cold_evictions").value(),
              0u);

    store.close();
}

TEST(TieredStoreTest, SweepTombstonesExpiredColdRecords)
{
    TempDir dir("sweep");
    PotluckConfig config = cfg();
    config.max_entries = 1;
    VirtualClock clock;
    PotluckService service(config, &clock);
    TieredStore store(storeCfg(dir.path));
    store.attach(service);

    service.registerKeyType("f", kt());
    PutOptions opts;
    opts.ttl_us = 1000;
    service.put("f", "vec", FeatureVector({1.0f, 0.0f}),
                encodeString("a"), opts);
    service.put("f", "vec", FeatureVector({2.0f, 0.0f}),
                encodeString("b"), opts); // demotes the first
    ASSERT_EQ(store.coldEntries(), 1u);

    clock.advanceUs(2000);
    EXPECT_EQ(store.sweepExpiredCold(), 1u);
    EXPECT_EQ(store.coldEntries(), 0u);
    EXPECT_GE(service.metrics().counter("store.tombstones").value(), 1u);

    // The tombstoned record must not resurrect as a cold hit.
    LookupResult r =
        service.lookup("app", "f", "vec", FeatureVector({1.0f, 0.0f}));
    EXPECT_FALSE(r.hit);

    store.close();
}

TEST(TieredStoreTest, CompactionReclaimsGarbageSegments)
{
    TempDir dir("compact");
    VirtualClock clock;
    PotluckService service(cfg(), &clock);
    // Small segments so rewrites of one key roll over many
    // generations, leaving sealed segments that are pure garbage.
    StoreConfig scfg = storeCfg(dir.path, 4096);
    TieredStore store(scfg);
    store.attach(service);

    service.registerKeyType("f", kt());
    const std::string value(256, 'z');
    for (int i = 0; i < 100; ++i) {
        service.put("f", "vec", FeatureVector({1.0f, 2.0f}),
                    encodeString(value), {});
    }
    EXPECT_EQ(store.trackedRecords(), 1u);
    size_t before = store.numSegments();
    ASSERT_GT(before, 1u);

    while (store.compactOnce() >= 0) {
    }
    EXPECT_LT(store.numSegments(), before);
    EXPECT_GT(service.metrics().counter("store.compactions").value(), 0u);

    // The surviving record is still promotable after its copy moved.
    clock.advanceUs(1);
    LookupResult r =
        service.lookup("app", "f", "vec", FeatureVector({1.0f, 2.0f}));
    EXPECT_TRUE(r.hit);

    store.close();
}

TEST(TieredStoreTest, CloseIsIdempotentAndDetaches)
{
    TempDir dir("close");
    VirtualClock clock;
    PotluckService service(cfg(), &clock);
    TieredStore store(storeCfg(dir.path));
    store.attach(service);

    service.registerKeyType("f", kt());
    service.put("f", "vec", FeatureVector({1.0f, 0.0f}),
                encodeString("v"), {});
    store.close();
    store.close(); // idempotent

    // A detached service keeps serving from RAM without the tier.
    LookupResult r =
        service.lookup("app", "f", "vec", FeatureVector({1.0f, 0.0f}));
    EXPECT_TRUE(r.hit);
    service.put("f", "vec", FeatureVector({2.0f, 0.0f}),
                encodeString("w"), {});
    EXPECT_EQ(store.trackedRecords(), 1u); // no write-through after close
}

} // namespace
} // namespace potluck
