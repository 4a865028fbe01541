/**
 * @file
 * Unit tests for the core building blocks beneath the service: value
 * codecs, cache entries and the importance metric, eviction policies,
 * the threshold tuner (Algorithm 1) and the storage/function tables.
 */
#include <gtest/gtest.h>

#include "core/cache_entry.h"
#include "core/data_storage.h"
#include "core/eviction.h"
#include "core/function_table.h"
#include "core/threshold_tuner.h"
#include "core/value.h"

namespace potluck {
namespace {

// ---------- Value codecs ----------

TEST(Value, IntRoundTrip)
{
    EXPECT_EQ(decodeInt(encodeInt(-123456789)), -123456789);
    EXPECT_EQ(decodeInt(encodeInt(0)), 0);
}

TEST(Value, StringRoundTrip)
{
    EXPECT_EQ(decodeString(encodeString("hello potluck")), "hello potluck");
    EXPECT_EQ(decodeString(encodeString("")), "");
}

TEST(Value, FloatsRoundTrip)
{
    std::vector<float> v = {1.5f, -2.25f, 0.0f};
    EXPECT_EQ(decodeFloats(encodeFloats(v)), v);
    EXPECT_TRUE(decodeFloats(encodeFloats({})).empty());
}

TEST(Value, ImageRoundTrip)
{
    Image img(5, 4, 3);
    img.setPixel(2, 2, 10, 20, 30);
    Image out = decodeImage(encodeImage(img));
    EXPECT_EQ(out, img);
}

TEST(Value, EqualityIsDeepAndNullSafe)
{
    Value a = encodeInt(7);
    Value b = encodeInt(7);
    Value c = encodeInt(8);
    EXPECT_TRUE(valueEquals(a, b));
    EXPECT_FALSE(valueEquals(a, c));
    EXPECT_TRUE(valueEquals(nullptr, nullptr));
    EXPECT_FALSE(valueEquals(a, nullptr));
}

TEST(Value, SizeAccounting)
{
    EXPECT_EQ(valueSize(nullptr), 0u);
    EXPECT_EQ(valueSize(encodeInt(1)), 8u);
}

TEST(Value, MalformedDecodeIsFatal)
{
    Value bogus = makeValue({1, 2, 3});
    EXPECT_DEATH(decodeInt(bogus), "not an int");
}

// ---------- CacheEntry and importance ----------

CacheEntry
makeEntry(double overhead_us, uint64_t freq, size_t value_bytes)
{
    CacheEntry e;
    e.id = 1;
    e.function = "f";
    e.keys["k"] = FeatureVector({1.0f}); // 4 bytes
    e.value = makeValue(std::vector<uint8_t>(value_bytes, 0));
    e.compute_overhead_us = overhead_us;
    e.access_frequency = freq;
    return e;
}

TEST(Importance, FormulaMatchesPaper)
{
    // importance = overhead * frequency / size
    CacheEntry e = makeEntry(1000.0, 4, 96); // size = 96 + 4 key bytes
    EXPECT_DOUBLE_EQ(e.sizeBytes(), 100.0);
    EXPECT_DOUBLE_EQ(e.importance(), 1000.0 * 4 / 100.0);
}

TEST(Importance, GrowsWithFrequencyAndOverhead)
{
    EXPECT_GT(makeEntry(1000, 8, 100).importance(),
              makeEntry(1000, 2, 100).importance());
    EXPECT_GT(makeEntry(5000, 2, 100).importance(),
              makeEntry(1000, 2, 100).importance());
    EXPECT_GT(makeEntry(1000, 2, 50).importance(),
              makeEntry(1000, 2, 500).importance());
}

TEST(CacheEntryMove, MoveConstructionStealsKeysAndValue)
{
    CacheEntry source = makeEntry(1000.0, 3, 64);
    CacheEntry moved(std::move(source));
    // The source gave up its key map, and the value changed hands
    // instead of gaining a second owner.
    EXPECT_TRUE(source.keys.empty()); // NOLINT(bugprone-use-after-move)
    ASSERT_EQ(moved.keys.count("k"), 1u);
    EXPECT_EQ(moved.value.use_count(), 1);
    EXPECT_EQ(moved.access_frequency.load(), 3u);
}

TEST(Importance, DegenerateZeroSizeSafe)
{
    CacheEntry e;
    e.compute_overhead_us = 100.0;
    e.access_frequency = 1;
    EXPECT_GT(e.importance(), 0.0); // no division by zero
}

// ---------- Eviction policies ----------

std::map<EntryId, CacheEntry>
threeEntries()
{
    std::map<EntryId, CacheEntry> entries;
    for (EntryId id = 1; id <= 3; ++id) {
        CacheEntry e = makeEntry(1000.0 * id, 1, 100);
        e.id = id;
        e.last_access_us = 100 * id;
        entries[id] = e;
    }
    return entries;
}

TEST(Eviction, ImportanceSelectsLowest)
{
    auto entries = threeEntries(); // id 1 has the lowest overhead
    ImportanceEviction policy;
    EXPECT_EQ(policy.selectVictim(entries), 1u);
    // Raise id 1's frequency so id 2 becomes least important.
    entries[1].access_frequency = 10;
    EXPECT_EQ(policy.selectVictim(entries), 2u);
}

TEST(Eviction, LruSelectsOldestAccess)
{
    auto entries = threeEntries();
    LruEviction policy;
    EXPECT_EQ(policy.selectVictim(entries), 1u);
    entries[1].last_access_us = 9999;
    EXPECT_EQ(policy.selectVictim(entries), 2u);
}

TEST(Eviction, RandomSelectsLiveEntry)
{
    auto entries = threeEntries();
    RandomEviction policy(7);
    for (int i = 0; i < 20; ++i) {
        EntryId victim = policy.selectVictim(entries);
        EXPECT_TRUE(entries.count(victim));
    }
}

TEST(Eviction, FactoryMatchesKind)
{
    for (EvictionKind kind : {EvictionKind::Importance, EvictionKind::Lru,
                              EvictionKind::Random})
        EXPECT_EQ(makeEvictionPolicy(kind, 1)->kind(), kind);
}

// ---------- ThresholdTuner (Algorithm 1) ----------

PotluckConfig
tunerConfig(size_t warmup = 4)
{
    PotluckConfig cfg;
    cfg.warmup_entries = warmup;
    cfg.tighten_factor = 4.0;
    cfg.loosen_ewma = 0.8;
    return cfg;
}

TEST(Tuner, StartsAtZeroAndInactive)
{
    ThresholdTuner tuner(tunerConfig());
    EXPECT_DOUBLE_EQ(tuner.threshold(), 0.0);
    EXPECT_FALSE(tuner.active());
    // Observations before warm-up are ignored.
    tuner.observe(10.0, true);
    EXPECT_DOUBLE_EQ(tuner.threshold(), 0.0);
}

TEST(Tuner, ActivatesAfterWarmup)
{
    ThresholdTuner tuner(tunerConfig(3));
    for (int i = 0; i < 3; ++i)
        tuner.noteInsert();
    EXPECT_TRUE(tuner.active());
}

TEST(Tuner, LoosensByEwmaOnMissedMatch)
{
    ThresholdTuner tuner(tunerConfig(0));
    // dist 10 > threshold 0, same value -> loosen:
    // thr = 0.2 * 10 + 0.8 * 0 = 2
    tuner.observe(10.0, true);
    EXPECT_NEAR(tuner.threshold(), 2.0, 1e-12);
    tuner.observe(10.0, true);
    EXPECT_NEAR(tuner.threshold(), 0.2 * 10 + 0.8 * 2.0, 1e-12);
}

TEST(Tuner, TightensByFactorOnFalsePositive)
{
    ThresholdTuner tuner(tunerConfig(0));
    tuner.setThreshold(8.0);
    // dist 4 <= threshold 8, different value -> thr /= 4
    tuner.observe(4.0, false);
    EXPECT_NEAR(tuner.threshold(), 2.0, 1e-12);
}

TEST(Tuner, NoChangeWhenConsistent)
{
    ThresholdTuner tuner(tunerConfig(0));
    tuner.setThreshold(5.0);
    tuner.observe(3.0, true);   // within threshold, same value: correct hit
    EXPECT_DOUBLE_EQ(tuner.threshold(), 5.0);
    tuner.observe(9.0, false);  // beyond threshold, different: correct miss
    EXPECT_DOUBLE_EQ(tuner.threshold(), 5.0);
}

TEST(Tuner, TightenIsFasterThanLoosen)
{
    // From threshold 1, count operations to shrink by 20x vs the
    // operations it took to grow: the paper's asymmetry.
    ThresholdTuner tuner(tunerConfig(0));
    tuner.setThreshold(1.0);
    int tighten_steps = 0;
    while (tuner.threshold() > 1.0 / 20.0) {
        tuner.observe(tuner.threshold() * 0.5, false);
        ++tighten_steps;
    }
    EXPECT_LE(tighten_steps, 3); // 4^3 = 64 > 20
}

TEST(Tuner, ResetClearsState)
{
    ThresholdTuner tuner(tunerConfig(0));
    tuner.observe(10.0, true);
    tuner.noteInsert();
    tuner.reset();
    EXPECT_DOUBLE_EQ(tuner.threshold(), 0.0);
    EXPECT_EQ(tuner.observations(), 0u);
}

TEST(Tuner, RejectsBadParameters)
{
    PotluckConfig cfg;
    cfg.tighten_factor = 1.0; // must be > 1
    EXPECT_DEATH(ThresholdTuner{cfg}, "tighten factor");
    PotluckConfig cfg2;
    cfg2.loosen_ewma = 1.5;
    EXPECT_DEATH(ThresholdTuner{cfg2}, "EWMA");
}

// ---------- DataStorage ----------

TEST(Storage, AddFindRemove)
{
    DataStorage storage;
    CacheEntry e = makeEntry(100, 1, 50);
    e.id = 5;
    e.expiry_us = 1000;
    storage.add(e);
    EXPECT_EQ(storage.numEntries(), 1u);
    EXPECT_EQ(storage.totalBytes(), e.sizeBytes());
    ASSERT_NE(storage.find(5), nullptr);
    EXPECT_EQ(storage.find(6), nullptr);
    CacheEntry removed = storage.remove(5);
    EXPECT_EQ(removed.id, 5u);
    EXPECT_EQ(storage.numEntries(), 0u);
    EXPECT_EQ(storage.totalBytes(), 0u);
}

TEST(Storage, DuplicateIdPanics)
{
    DataStorage storage;
    CacheEntry e = makeEntry(100, 1, 50);
    e.id = 5;
    storage.add(e);
    EXPECT_DEATH(storage.add(e), "duplicate entry");
}

TEST(Storage, ExpiryQueueOrdering)
{
    DataStorage storage;
    for (EntryId id = 1; id <= 3; ++id) {
        CacheEntry e = makeEntry(100, 1, 10);
        e.id = id;
        e.expiry_us = 1000 * (4 - id); // id 3 expires first (1000)
        storage.add(e);
    }
    EXPECT_EQ(storage.nextExpiryUs(), 1000u);
    auto expired = storage.expiredAt(2000);
    ASSERT_EQ(expired.size(), 2u); // ids 3 (1000) and 2 (2000)
    EXPECT_EQ(expired[0], 3u);
    EXPECT_EQ(expired[1], 2u);
    storage.remove(3);
    EXPECT_EQ(storage.nextExpiryUs(), 2000u);
}

TEST(Storage, EmptyQueueReportsZero)
{
    DataStorage storage;
    EXPECT_EQ(storage.nextExpiryUs(), 0u);
    EXPECT_TRUE(storage.expiredAt(1 << 30).empty());
}

// ---------- FunctionTable ----------

TEST(FunctionTableTest, EnsureIsIdempotent)
{
    PotluckConfig cfg;
    FunctionTable table(cfg);
    KeyTypeConfig kt{"downsamp", Metric::L2, IndexKind::KdTree};
    KeyIndex &a = table.ensure("recognize", kt);
    KeyIndex &b = table.ensure("recognize", kt);
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(table.numFunctions(), 1u);
}

TEST(FunctionTableTest, ConflictingReRegistrationIsFatal)
{
    PotluckConfig cfg;
    FunctionTable table(cfg);
    table.ensure("f", {"k", Metric::L2, IndexKind::KdTree});
    EXPECT_THROW(table.ensure("f", {"k", Metric::L1, IndexKind::KdTree}),
                 FatalError);
    EXPECT_THROW(table.ensure("f", {"k", Metric::L2, IndexKind::Hash}),
                 FatalError);
}

TEST(FunctionTableTest, FindUnknownReturnsNull)
{
    PotluckConfig cfg;
    FunctionTable table(cfg);
    EXPECT_EQ(table.find("nope", "k"), nullptr);
    table.ensure("f", {"k", Metric::L2, IndexKind::KdTree});
    EXPECT_EQ(table.find("f", "other"), nullptr);
    EXPECT_NE(table.find("f", "k"), nullptr);
}

TEST(FunctionTableTest, RemoveEntryClearsAllTypeIndices)
{
    PotluckConfig cfg;
    FunctionTable table(cfg);
    KeyIndex &k1 = table.ensure("f", {"a", Metric::L2, IndexKind::Linear});
    KeyIndex &k2 = table.ensure("f", {"b", Metric::L2, IndexKind::Linear});
    CacheEntry e;
    e.id = 9;
    e.function = "f";
    e.keys["a"] = FeatureVector({1.0f});
    e.keys["b"] = FeatureVector({2.0f, 3.0f});
    k1.index->insert(e.id, e.keys["a"]);
    k2.index->insert(e.id, e.keys["b"]);
    table.removeEntry(e);
    EXPECT_EQ(k1.index->size(), 0u);
    EXPECT_EQ(k2.index->size(), 0u);
}

TEST(FunctionTableTest, SlotsForListsAllTypes)
{
    PotluckConfig cfg;
    FunctionTable table(cfg);
    table.ensure("f", {"a", Metric::L2, IndexKind::Linear});
    table.ensure("f", {"b", Metric::L2, IndexKind::Linear});
    table.ensure("g", {"c", Metric::L2, IndexKind::Linear});
    EXPECT_EQ(table.slotsFor("f").size(), 2u);
    EXPECT_EQ(table.slotsFor("g").size(), 1u);
    EXPECT_TRUE(table.slotsFor("unknown").empty());
}

} // namespace
} // namespace potluck
