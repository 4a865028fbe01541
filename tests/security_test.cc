/**
 * @file
 * Tests for the Section 3.5 defense mechanisms: the reputation tracker
 * itself, the pollution-defense behaviour of the service (a malicious
 * app's wrong results get detected through the dropout/tuner path and
 * the app is barred), and the cross-device replication bridge of
 * Section 7.
 */
#include <gtest/gtest.h>

#include "core/potluck_service.h"
#include "core/replication.h"
#include "core/reputation.h"

namespace potluck {
namespace {

// ---------- ReputationTracker unit behaviour ----------

TEST(Reputation, UnknownAppIsNeutral)
{
    ReputationTracker tracker;
    EXPECT_DOUBLE_EQ(tracker.score("nobody"), 0.5);
    EXPECT_FALSE(tracker.banned("nobody"));
    EXPECT_TRUE(tracker.bannedApps().empty());
}

TEST(Reputation, ScoreMovesWithVotes)
{
    ReputationTracker tracker;
    tracker.recordPositive("good_app");
    tracker.recordPositive("good_app");
    tracker.recordNegative("bad_app");
    tracker.recordNegative("bad_app");
    EXPECT_GT(tracker.score("good_app"), 0.5);
    EXPECT_LT(tracker.score("bad_app"), 0.5);
}

TEST(Reputation, BanRequiresMinObservations)
{
    ReputationTracker tracker(0.25, 4);
    tracker.recordNegative("shady");
    tracker.recordNegative("shady");
    tracker.recordNegative("shady");
    EXPECT_FALSE(tracker.banned("shady")) << "only 3 of 4 required votes";
    tracker.recordNegative("shady");
    EXPECT_TRUE(tracker.banned("shady"));
    auto banned = tracker.bannedApps();
    ASSERT_EQ(banned.size(), 1u);
    EXPECT_EQ(banned[0], "shady");
}

TEST(Reputation, MixedRecordAboveBanScoreSurvives)
{
    ReputationTracker tracker(0.25, 4);
    // 3 positive, 3 negative -> score 0.5, well above 0.25.
    for (int i = 0; i < 3; ++i) {
        tracker.recordPositive("mixed");
        tracker.recordNegative("mixed");
    }
    EXPECT_FALSE(tracker.banned("mixed"));
}

TEST(Reputation, ResetForgives)
{
    ReputationTracker tracker(0.3, 2);
    tracker.recordNegative("app");
    tracker.recordNegative("app");
    // Laplace-smoothed score after 2 negatives: 1/4 = 0.25 < 0.3.
    EXPECT_TRUE(tracker.banned("app"));
    tracker.reset("app");
    EXPECT_FALSE(tracker.banned("app"));
    EXPECT_DOUBLE_EQ(tracker.score("app"), 0.5);
}

TEST(Reputation, EmptyAppNameIgnored)
{
    ReputationTracker tracker(0.25, 1);
    tracker.recordNegative("");
    EXPECT_FALSE(tracker.banned(""));
}

TEST(Reputation, InvalidBanScoreIsFatal)
{
    EXPECT_THROW(ReputationTracker(0.0, 1), FatalError);
    EXPECT_THROW(ReputationTracker(1.0, 1), FatalError);
}

// ---------- Service-level pollution defense ----------

PotluckConfig
defenseConfig()
{
    PotluckConfig cfg;
    cfg.dropout_probability = 0.0;
    cfg.warmup_entries = 0;
    cfg.enable_reputation = true;
    cfg.reputation_ban_score = 0.3;
    cfg.reputation_min_observations = 3;
    return cfg;
}

TEST(PollutionDefense, MaliciousAppGetsBannedAndSuppressed)
{
    VirtualClock clock;
    PotluckService service(defenseConfig(), &clock);
    service.registerKeyType(
        "f", KeyTypeConfig{"vec", Metric::L2, IndexKind::Linear});
    service.setThreshold("f", "vec", 1.0);

    // The attacker seeds wrong results across the key space.
    PutOptions evil;
    evil.app = "malware";
    for (int i = 0; i < 8; ++i)
        service.put("f", "vec", FeatureVector({static_cast<float>(i)}),
                    encodeInt(666), evil);

    // Honest apps recompute (e.g. after dropout) and put the true
    // results; each put observes the attacker's nearby wrong entry.
    PutOptions honest;
    honest.app = "lens";
    for (int i = 0; i < 8; ++i) {
        service.put("f", "vec",
                    FeatureVector({static_cast<float>(i) + 0.01f}),
                    encodeInt(i), honest);
        service.setThreshold("f", "vec", 1.0); // undo defensive tighten
    }

    EXPECT_TRUE(service.appBanned("malware"));
    EXPECT_LT(service.reputationScore("malware"), 0.3);
    EXPECT_FALSE(service.appBanned("lens"));

    // Banned entries are no longer served...
    LookupResult r =
        service.lookup("victim", "f", "vec", FeatureVector({0.0f}));
    if (r.hit) {
        EXPECT_NE(decodeInt(r.value), 666);
    }
    EXPECT_GT(service.stats().banned_hits_suppressed, 0u);

    // ...and new puts from the attacker are rejected.
    EntryId id = service.put("f", "vec", FeatureVector({99.0f}),
                             encodeInt(666), evil);
    EXPECT_EQ(id, 0u);
    EXPECT_EQ(service.stats().rejected_puts, 1u);
    EXPECT_FALSE(
        service.lookup("victim", "f", "vec", FeatureVector({99.0f})).hit);
}

TEST(PollutionDefense, HonestConsensusBuildsPositiveReputation)
{
    VirtualClock clock;
    PotluckService service(defenseConfig(), &clock);
    service.registerKeyType(
        "f", KeyTypeConfig{"vec", Metric::L2, IndexKind::Linear});
    service.setThreshold("f", "vec", 1.0);

    PutOptions alice;
    alice.app = "alice";
    PutOptions bob;
    bob.app = "bob";
    // Alice and Bob agree on the function's results for nearby inputs.
    for (int i = 0; i < 6; ++i) {
        service.put("f", "vec", FeatureVector({static_cast<float>(i)}),
                    encodeInt(i), alice);
        service.put("f", "vec",
                    FeatureVector({static_cast<float>(i) + 0.05f}),
                    encodeInt(i), bob);
    }
    EXPECT_GT(service.reputationScore("alice"), 0.5);
    EXPECT_FALSE(service.appBanned("alice"));
    EXPECT_FALSE(service.appBanned("bob"));
}

TEST(PollutionDefense, DisabledByDefault)
{
    VirtualClock clock;
    PotluckConfig cfg;
    cfg.dropout_probability = 0.0;
    cfg.warmup_entries = 0;
    PotluckService service(cfg, &clock);
    service.registerKeyType(
        "f", KeyTypeConfig{"vec", Metric::L2, IndexKind::Linear});
    service.setThreshold("f", "vec", 1.0);
    PutOptions evil;
    evil.app = "malware";
    for (int i = 0; i < 10; ++i) {
        service.put("f", "vec",
                    FeatureVector({static_cast<float>(i) * 0.1f}),
                    encodeInt(i % 2 ? 1 : 2), evil);
    }
    EXPECT_FALSE(service.appBanned("malware"));
    EXPECT_GT(service.put("f", "vec", FeatureVector({5.0f}), encodeInt(1),
                          evil),
              0u);
}

// ---------- Replication bridge (Section 7) ----------

PotluckConfig
plainConfig()
{
    PotluckConfig cfg;
    cfg.dropout_probability = 0.0;
    cfg.warmup_entries = 0;
    return cfg;
}

TEST(Replication, PutFlowsToPeer)
{
    VirtualClock clock;
    PotluckService phone(plainConfig(), &clock);
    PotluckService watch(plainConfig(), &clock);
    phone.registerKeyType(
        "recognize", KeyTypeConfig{"vec", Metric::L2, IndexKind::Linear});
    connectReplication(phone, watch, "phone");

    PutOptions options;
    options.app = "lens";
    phone.put("recognize", "vec", FeatureVector({1.0f}), encodeInt(7),
              options);

    // The watch can now answer without ever computing.
    LookupResult r =
        watch.lookup("watch_app", "recognize", "vec", FeatureVector({1.0f}));
    ASSERT_TRUE(r.hit);
    EXPECT_EQ(decodeInt(r.value), 7);
}

TEST(Replication, BidirectionalDoesNotLoop)
{
    VirtualClock clock;
    PotluckService a(plainConfig(), &clock);
    PotluckService b(plainConfig(), &clock);
    a.registerKeyType("f",
                      KeyTypeConfig{"vec", Metric::L2, IndexKind::Linear});
    b.registerKeyType("f",
                      KeyTypeConfig{"vec", Metric::L2, IndexKind::Linear});
    connectReplication(a, b, "a");
    connectReplication(b, a, "b");

    PutOptions options;
    options.app = "app";
    a.put("f", "vec", FeatureVector({1.0f}), encodeInt(1), options);
    // One entry on each side, not an infinite ping-pong.
    EXPECT_EQ(a.numEntries(), 1u);
    EXPECT_EQ(b.numEntries(), 1u);
    EXPECT_TRUE(b.lookup("x", "f", "vec", FeatureVector({1.0f})).hit);

    b.put("f", "vec", FeatureVector({2.0f}), encodeInt(2), options);
    EXPECT_EQ(a.numEntries(), 2u);
    EXPECT_EQ(b.numEntries(), 2u);
}

TEST(Replication, SinkSeesOnlyLocalEvents)
{
    VirtualClock clock;
    PotluckService a(plainConfig(), &clock);
    PotluckService b(plainConfig(), &clock);
    a.registerKeyType("f",
                      KeyTypeConfig{"vec", Metric::L2, IndexKind::Linear});
    connectReplication(a, b, "a");

    int sink_events = 0;
    connectReplicationSink(b, [&](const PotluckService::PutEvent &) {
        ++sink_events;
    });

    PutOptions options;
    options.app = "app";
    a.put("f", "vec", FeatureVector({1.0f}), encodeInt(1), options);
    // b received only a replicated event; its sink must stay silent.
    EXPECT_EQ(sink_events, 0);

    PutOptions local;
    local.app = "local_app";
    b.put("f", "vec", FeatureVector({5.0f}), encodeInt(5), local);
    EXPECT_EQ(sink_events, 1);
}

TEST(Replication, TargetSlotCreatedOnDemand)
{
    VirtualClock clock;
    PotluckService a(plainConfig(), &clock);
    PotluckService b(plainConfig(), &clock); // nothing registered on b
    a.registerKeyType("new_fn",
                      KeyTypeConfig{"vec", Metric::L2, IndexKind::Linear});
    connectReplication(a, b, "a");
    PutOptions options;
    options.app = "app";
    a.put("new_fn", "vec", FeatureVector({3.0f}), encodeInt(3), options);
    EXPECT_TRUE(b.lookup("x", "new_fn", "vec", FeatureVector({3.0f})).hit);
}

TEST(Replication, ObserverEventCarriesMetadata)
{
    VirtualClock clock;
    PotluckService service(plainConfig(), &clock);
    service.registerKeyType(
        "f", KeyTypeConfig{"vec", Metric::L2, IndexKind::Linear});
    PotluckService::PutEvent seen;
    service.addPutObserver(
        [&](const PotluckService::PutEvent &event) { seen = event; });
    PutOptions options;
    options.app = "producer";
    options.compute_overhead_us = 1234.0;
    service.put("f", "vec", FeatureVector({1.5f}), encodeInt(9), options);
    EXPECT_EQ(seen.function, "f");
    EXPECT_EQ(seen.key_type, "vec");
    EXPECT_EQ(seen.app, "producer");
    EXPECT_DOUBLE_EQ(seen.compute_overhead_us, 1234.0);
    EXPECT_EQ(decodeInt(seen.value), 9);
}

} // namespace
} // namespace potluck
