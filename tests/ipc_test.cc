/**
 * @file
 * Tests for the IPC layer: wire-format round trips, transport framing,
 * and end-to-end client/server operation over a Unix socket.
 */
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <random>
#include <thread>

#include "ipc/client.h"
#include "ipc/errors.h"
#include "ipc/fault_injection.h"
#include "ipc/message.h"
#include "ipc/retry.h"
#include "ipc/server.h"
#include "ipc/shm_ring.h"
#include "ipc/transport.h"
#include "util/clock.h"

namespace potluck {
namespace {

std::string
tempSocketPath(const char *tag)
{
    static std::atomic<int> counter{0};
    return (std::filesystem::temp_directory_path() /
            ("potluck_" + std::string(tag) + "_" +
             std::to_string(::getpid()) + "_" +
             std::to_string(counter++) + ".sock"))
        .string();
}

TEST(Message, RequestRoundTripAllFields)
{
    Request request;
    request.type = RequestType::Put;
    request.app = "my_app";
    request.function = "recognize";
    request.key_type = "downsamp";
    request.metric = Metric::Cosine;
    request.index_kind = IndexKind::Lsh;
    request.key = FeatureVector({1.5f, -2.0f, 3.25f});
    request.value = encodeString("result");
    request.ttl_us = 123456;
    request.compute_overhead_us = 78.5;

    Request decoded = decodeRequest(encodeRequest(request));
    EXPECT_EQ(decoded.type, request.type);
    EXPECT_EQ(decoded.app, request.app);
    EXPECT_EQ(decoded.function, request.function);
    EXPECT_EQ(decoded.key_type, request.key_type);
    EXPECT_EQ(decoded.metric, request.metric);
    EXPECT_EQ(decoded.index_kind, request.index_kind);
    EXPECT_EQ(decoded.key, request.key);
    EXPECT_TRUE(valueEquals(decoded.value, request.value));
    EXPECT_EQ(decoded.ttl_us, request.ttl_us);
    EXPECT_EQ(decoded.compute_overhead_us, request.compute_overhead_us);
}

TEST(Message, RequestRoundTripEmptyOptionals)
{
    Request request;
    request.type = RequestType::Lookup;
    Request decoded = decodeRequest(encodeRequest(request));
    EXPECT_FALSE(decoded.ttl_us.has_value());
    EXPECT_FALSE(decoded.compute_overhead_us.has_value());
    EXPECT_EQ(decoded.value, nullptr);
    EXPECT_TRUE(decoded.key.empty());
}

TEST(Message, ReplyRoundTrip)
{
    Reply reply;
    reply.type = RequestType::Lookup;
    reply.ok = true;
    reply.error = "";
    reply.hit = true;
    reply.dropped = false;
    reply.value = encodeInt(99);
    reply.entry_id = 424242;
    Reply decoded = decodeReply(encodeReply(reply));
    EXPECT_TRUE(decoded.ok);
    EXPECT_TRUE(decoded.hit);
    EXPECT_EQ(decodeInt(decoded.value), 99);
    EXPECT_EQ(decoded.entry_id, 424242u);
}

TEST(Message, ReplySnapshotRoundTrip)
{
    // The kStats verb ships a full registry snapshot in the Reply;
    // histogram buckets travel as sparse (index, count) pairs and must
    // reinflate to the dense layout.
    obs::MetricsRegistry registry;
    registry.counter("service.lookups").inc(12);
    registry.counter("fn.recognize.hits").inc(7);
    registry.gauge("cache.entries").set(-3); // gauges are signed
    obs::LatencyHistogram &hist = registry.histogram("lookup.total_ns");
    for (uint64_t v : {0ull, 5ull, 900ull, 123456ull, 1ull << 40})
        hist.record(v);

    Reply reply;
    reply.type = RequestType::Metrics;
    reply.ok = true;
    reply.snapshot = registry.snapshot();
    Reply decoded = decodeReply(encodeReply(reply));

    EXPECT_EQ(decoded.snapshot.counterValue("service.lookups"), 12u);
    EXPECT_EQ(decoded.snapshot.counterValue("fn.recognize.hits"), 7u);
    EXPECT_EQ(decoded.snapshot.gaugeValue("cache.entries"), -3);
    const obs::HistogramSnapshot *h =
        decoded.snapshot.findHistogram("lookup.total_ns");
    ASSERT_NE(h, nullptr);
    const obs::HistogramSnapshot *orig =
        reply.snapshot.findHistogram("lookup.total_ns");
    EXPECT_EQ(h->count, orig->count);
    EXPECT_EQ(h->sum, orig->sum);
    EXPECT_EQ(h->min, orig->min);
    EXPECT_EQ(h->max, orig->max);
    EXPECT_EQ(h->buckets, orig->buckets);
}

TEST(Message, EmptySnapshotRoundTrip)
{
    // Replies to non-Metrics verbs carry an empty snapshot — it must
    // cost little on the wire and decode back to empty.
    Reply decoded = decodeReply(encodeReply(Reply{}));
    EXPECT_TRUE(decoded.snapshot.counters.empty());
    EXPECT_TRUE(decoded.snapshot.gauges.empty());
    EXPECT_TRUE(decoded.snapshot.histograms.empty());
}

TEST(Message, ClusterStatsReplyRoundTrip)
{
    // The kClusterStats reply carries one tagged snapshot per node;
    // sections must round-trip in order, ok-flags intact, with
    // unreachable nodes' empty snapshots costing almost nothing.
    obs::MetricsRegistry registry;
    registry.counter("service.hits").inc(4);
    registry.histogram("lookup.total_ns").record(777);

    Reply reply;
    reply.type = RequestType::ClusterStats;
    reply.ok = true;
    NodeStatsSection up;
    up.node = "node-a";
    up.ok = true;
    up.snapshot = registry.snapshot();
    reply.node_stats.push_back(std::move(up));
    NodeStatsSection down;
    down.node = "node-b";
    down.ok = false;
    reply.node_stats.push_back(std::move(down));

    Reply decoded = decodeReply(encodeReply(reply));
    ASSERT_EQ(decoded.node_stats.size(), 2u);
    EXPECT_EQ(decoded.node_stats[0].node, "node-a");
    EXPECT_TRUE(decoded.node_stats[0].ok);
    EXPECT_EQ(decoded.node_stats[0].snapshot.counterValue("service.hits"),
              4u);
    const obs::HistogramSnapshot *h =
        decoded.node_stats[0].snapshot.findHistogram("lookup.total_ns");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count, 1u);
    EXPECT_EQ(decoded.node_stats[1].node, "node-b");
    EXPECT_FALSE(decoded.node_stats[1].ok);
    EXPECT_TRUE(decoded.node_stats[1].snapshot.counters.empty());
}

TEST(AppListenerTest, ClusterStatsFallsBackToLocalSection)
{
    // Without a coordinator-wired provider the verb still answers:
    // one "local" section, so `stats --cluster` works against a
    // standalone daemon; and hops > 1 is rejected like the peer verbs.
    PotluckConfig config;
    PotluckService service(config);
    AppListener listener(service);

    Request request;
    request.type = RequestType::ClusterStats;
    Reply reply = listener.handle(request);
    ASSERT_TRUE(reply.ok) << reply.error;
    ASSERT_EQ(reply.node_stats.size(), 1u);
    EXPECT_EQ(reply.node_stats[0].node, "local");
    EXPECT_TRUE(reply.node_stats[0].ok);
    // publishObservability ran: the uptime gauge family exists.
    bool has_uptime = false;
    for (const auto &g : reply.node_stats[0].snapshot.gauges)
        has_uptime = has_uptime || g.name == "service.uptime_seconds";
    EXPECT_TRUE(has_uptime);

    request.hops = 2;
    Reply rejected = listener.handle(request);
    EXPECT_FALSE(rejected.ok);
    EXPECT_EQ(rejected.error, "peer hop limit exceeded");
}

TEST(Message, TruncatedFrameIsFatal)
{
    Request request;
    request.app = "abc";
    auto bytes = encodeRequest(request);
    bytes.resize(bytes.size() / 2);
    EXPECT_THROW(decodeRequest(bytes), FatalError);
}

TEST(Message, TrailingBytesAreFatal)
{
    auto bytes = encodeReply(Reply{});
    bytes.push_back(0);
    EXPECT_THROW(decodeReply(bytes), FatalError);
}

TEST(Transport, FrameRoundTripOverSocketpair)
{
    std::string path = tempSocketPath("frame");
    ListenSocket listener = listenUnix(path);
    std::thread server([&listener]() {
        FrameSocket conn = listener.accept();
        std::vector<uint8_t> frame;
        while (conn.recvFrame(frame))
            conn.sendFrame(frame); // echo
    });
    FrameSocket client = connectUnix(path);
    for (size_t size : {0u, 1u, 100u, 100000u}) {
        std::vector<uint8_t> out(size);
        for (size_t i = 0; i < size; ++i)
            out[i] = static_cast<uint8_t>(i * 31);
        client.sendFrame(out);
        std::vector<uint8_t> in;
        ASSERT_TRUE(client.recvFrame(in));
        EXPECT_EQ(in, out);
    }
    client.close();
    server.join();
}

TEST(Transport, ConnectToMissingSocketIsFatal)
{
    EXPECT_THROW(connectUnix("/tmp/definitely_not_a_socket_potluck"),
                 FatalError);
}

TEST(AppListenerTest, HandlesFullFlow)
{
    PotluckConfig cfg;
    cfg.dropout_probability = 0.0;
    cfg.warmup_entries = 0;
    PotluckService service(cfg);
    AppListener listener(service, 2);

    Request reg;
    reg.type = RequestType::RegisterKeyType;
    reg.function = "f";
    reg.key_type = "vec";
    reg.index_kind = IndexKind::Linear;
    EXPECT_TRUE(listener.handle(reg).ok);

    Request put;
    put.type = RequestType::Put;
    put.app = "a";
    put.function = "f";
    put.key_type = "vec";
    put.key = FeatureVector({1.0f});
    put.value = encodeInt(5);
    Reply put_reply = listener.handle(put);
    EXPECT_TRUE(put_reply.ok);
    EXPECT_GT(put_reply.entry_id, 0u);

    Request lookup;
    lookup.type = RequestType::Lookup;
    lookup.app = "a";
    lookup.function = "f";
    lookup.key_type = "vec";
    lookup.key = FeatureVector({1.0f});
    Reply r = listener.handle(lookup);
    EXPECT_TRUE(r.ok);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(decodeInt(r.value), 5);
}

TEST(AppListenerTest, ErrorsBecomeReplyNotThrow)
{
    PotluckService service;
    AppListener listener(service, 1);
    Request lookup;
    lookup.type = RequestType::Lookup;
    lookup.function = "unregistered";
    lookup.key_type = "vec";
    Reply reply = listener.handle(lookup);
    EXPECT_FALSE(reply.ok);
    EXPECT_FALSE(reply.error.empty());
}

TEST(AppListenerTest, SubmitRunsOnPool)
{
    PotluckConfig cfg;
    cfg.dropout_probability = 0.0;
    PotluckService service(cfg);
    AppListener listener(service, 4);
    Request reg;
    reg.type = RequestType::RegisterKeyType;
    reg.function = "f";
    reg.key_type = "vec";
    reg.index_kind = IndexKind::Linear;
    listener.handle(reg);

    std::vector<std::future<Reply>> futures;
    for (int i = 0; i < 50; ++i) {
        Request put;
        put.type = RequestType::Put;
        put.function = "f";
        put.key_type = "vec";
        put.key = FeatureVector({static_cast<float>(i)});
        put.value = encodeInt(i);
        futures.push_back(listener.submit(std::move(put)));
    }
    for (auto &f : futures)
        EXPECT_TRUE(f.get().ok);
    EXPECT_EQ(service.numEntries(), 50u);
}

class ServerClientTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        PotluckConfig cfg;
        cfg.dropout_probability = 0.0;
        cfg.warmup_entries = 0;
        service_ = std::make_unique<PotluckService>(cfg);
        path_ = tempSocketPath("srv");
        server_ = std::make_unique<PotluckServer>(*service_, path_);
    }

    std::unique_ptr<PotluckService> service_;
    std::unique_ptr<PotluckServer> server_;
    std::string path_;
};

TEST_F(ServerClientTest, EndToEndLookupPut)
{
    PotluckClient client("test_app", path_);
    client.registerFunction("f", "vec", Metric::L2, IndexKind::Linear);

    LookupResult miss = client.lookup("f", "vec", FeatureVector({1.0f}));
    EXPECT_FALSE(miss.hit);

    EntryId id = client.put("f", "vec", FeatureVector({1.0f}),
                            encodeString("cached!"));
    EXPECT_GT(id, 0u);

    LookupResult hit = client.lookup("f", "vec", FeatureVector({1.0f}));
    ASSERT_TRUE(hit.hit);
    EXPECT_EQ(decodeString(hit.value), "cached!");
}

TEST_F(ServerClientTest, TwoClientsShareEntries)
{
    PotluckClient alice("alice", path_);
    alice.registerFunction("f", "vec", Metric::L2, IndexKind::Linear);
    alice.put("f", "vec", FeatureVector({3.0f}), encodeInt(30));

    PotluckClient bob("bob", path_);
    // bob's registration resets thresholds but entries persist.
    LookupResult r = bob.lookup("f", "vec", FeatureVector({3.0f}));
    ASSERT_TRUE(r.hit);
    EXPECT_EQ(decodeInt(r.value), 30);
    EXPECT_GE(server_->connectionsServed(), 2u);
}

TEST_F(ServerClientTest, ServerSurvivesClientErrors)
{
    {
        // A client that sends garbage and disconnects.
        FrameSocket raw = connectUnix(path_);
        raw.sendFrame({0xde, 0xad, 0xbe, 0xef});
    } // destructor closes the connection
    // The server must still accept and serve a well-behaved client.
    PotluckClient client("ok_app", path_);
    client.registerFunction("g", "vec", Metric::L2, IndexKind::Linear);
    client.put("g", "vec", FeatureVector({1.0f}), encodeInt(1));
    EXPECT_TRUE(client.lookup("g", "vec", FeatureVector({1.0f})).hit);
}

TEST_F(ServerClientTest, MetricsVerbEndToEnd)
{
    PotluckClient client("metrics_app", path_);
    client.registerFunction("recognize", "vec", Metric::L2,
                            IndexKind::Linear);
    client.put("recognize", "vec", FeatureVector({1.0f}), encodeInt(1));
    client.lookup("recognize", "vec", FeatureVector({1.0f}));  // hit
    client.lookup("recognize", "vec", FeatureVector({50.0f})); // miss

    PotluckClient::RemoteMetrics remote = client.fetchMetrics();

    // Flat stats and occupancy arrive alongside the snapshot.
    EXPECT_EQ(remote.num_entries, 1u);
    EXPECT_GT(remote.total_bytes, 0u);
    EXPECT_EQ(remote.stats.hits, 1u);
    EXPECT_EQ(remote.stats.misses, 1u);

    // Per-function counters registered by the daemon cross the wire.
    const obs::RegistrySnapshot &snap = remote.snapshot;
    EXPECT_EQ(snap.counterValue("fn.recognize.lookups"), 2u);
    EXPECT_EQ(snap.counterValue("fn.recognize.hits"), 1u);
    EXPECT_EQ(snap.counterValue("fn.recognize.misses"), 1u);
    EXPECT_EQ(snap.gaugeValue("cache.entries"), 1);
    // The server's own ipc.* counters cover this connection.
    EXPECT_GE(snap.counterValue("ipc.requests"), 5u);
    EXPECT_GE(snap.counterValue("ipc.connections"), 1u);
    // Tracing defaults on: the lookup histogram has our two samples.
    const obs::HistogramSnapshot *lookup_ns =
        snap.findHistogram("lookup.total_ns");
    ASSERT_NE(lookup_ns, nullptr);
    // The client kept its own round-trip latency histogram.
    obs::RegistrySnapshot mine = client.metrics().snapshot();
    const obs::HistogramSnapshot *rtt =
        mine.findHistogram("ipc.round_trip_ns");
    ASSERT_NE(rtt, nullptr);
#ifndef POTLUCK_OBS_NO_TRACE
    EXPECT_EQ(lookup_ns->count, 2u);
    EXPECT_GT(lookup_ns->percentile(99), 0.0);
    EXPECT_GE(rtt->count, 5u);
#endif
}

TEST_F(ServerClientTest, BadFramesAreCountedNotFatal)
{
    EXPECT_EQ(server_->badFrames(), 0u);
    {
        // Garbage body: framing succeeds, decodeRequest throws.
        FrameSocket raw = connectUnix(path_);
        raw.sendFrame({0xde, 0xad, 0xbe, 0xef});
    }
    {
        // Mid-frame disconnect: a length prefix promising 1 KiB,
        // then only 2 body bytes before close.
        FrameSocket raw = connectUnix(path_);
        const uint8_t partial[] = {0x00, 0x04, 0x00, 0x00, 0xaa, 0xbb};
        ASSERT_EQ(::send(raw.fd(), partial, sizeof(partial), 0),
                  static_cast<ssize_t>(sizeof(partial)));
    }
    // The handler threads count the bad frames asynchronously.
    for (int i = 0; i < 200 && server_->badFrames() < 2; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_EQ(server_->badFrames(), 2u);
    EXPECT_EQ(service_->metrics().snapshot().counterValue("ipc.bad_frame"),
              2u);

    // Both offending connections are closed; a well-behaved client is
    // still served.
    PotluckClient client("ok_app", path_);
    client.registerFunction("g", "vec", Metric::L2, IndexKind::Linear);
    client.put("g", "vec", FeatureVector({1.0f}), encodeInt(1));
    EXPECT_TRUE(client.lookup("g", "vec", FeatureVector({1.0f})).hit);
}

TEST(CircuitBreakerTest, OpensAfterThresholdAndRecovers)
{
    CircuitBreaker breaker(3, 100);
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::Closed);
    for (int i = 0; i < 3; ++i) {
        EXPECT_TRUE(breaker.allowRequest(1000));
        breaker.onFailure(1000);
    }
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::Open);
    // Refused until the cooldown elapses.
    EXPECT_FALSE(breaker.allowRequest(1050));
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::Open);
    // Exactly one half-open probe is let through.
    EXPECT_TRUE(breaker.allowRequest(1101));
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::HalfOpen);
    EXPECT_FALSE(breaker.allowRequest(1102));
    // The probe's success closes the circuit.
    breaker.onSuccess();
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::Closed);
    EXPECT_EQ(breaker.consecutiveFailures(), 0);
    EXPECT_TRUE(breaker.allowRequest(1103));
}

TEST(CircuitBreakerTest, HalfOpenProbeFailureReopens)
{
    CircuitBreaker breaker(2, 50);
    breaker.onFailure(0);
    breaker.onFailure(1);
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::Open);
    EXPECT_TRUE(breaker.allowRequest(52)); // half-open probe
    breaker.onFailure(52);                 // probe fails
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::Open);
    // The cooldown restarts from the reopen, not the original open.
    EXPECT_FALSE(breaker.allowRequest(101));
    EXPECT_TRUE(breaker.allowRequest(103));
}

TEST(CircuitBreakerTest, SuccessResetsFailureStreak)
{
    CircuitBreaker breaker(3, 100);
    breaker.onFailure(0);
    breaker.onFailure(1);
    breaker.onSuccess();
    breaker.onFailure(2);
    breaker.onFailure(3);
    // Never three *consecutive* failures, so still closed.
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::Closed);
}

TEST(BackoffScheduleTest, GrowsGeometricallyAndCaps)
{
    RetryPolicy policy;
    policy.initial_backoff_ms = 10;
    policy.backoff_multiplier = 2.0;
    policy.max_backoff_ms = 55;
    policy.jitter = 0.0;
    BackoffSchedule schedule(policy);
    EXPECT_EQ(schedule.delayMs(1), 10u);
    EXPECT_EQ(schedule.delayMs(2), 20u);
    EXPECT_EQ(schedule.delayMs(3), 40u);
    EXPECT_EQ(schedule.delayMs(4), 55u); // capped
    EXPECT_EQ(schedule.delayMs(5), 55u);
}

TEST(BackoffScheduleTest, JitterStaysWithinBounds)
{
    RetryPolicy policy;
    policy.initial_backoff_ms = 100;
    policy.backoff_multiplier = 1.0;
    policy.max_backoff_ms = 1000;
    policy.jitter = 0.25;
    BackoffSchedule schedule(policy);
    for (int i = 0; i < 200; ++i) {
        uint64_t d = schedule.delayMs(1);
        EXPECT_GE(d, 75u);
        EXPECT_LE(d, 125u);
    }
}

/** Small budgets so failure-path tests finish in milliseconds. */
RetryPolicy
fastPolicy()
{
    RetryPolicy policy;
    policy.max_attempts = 2;
    policy.initial_backoff_ms = 1;
    policy.max_backoff_ms = 4;
    policy.request_deadline_ms = 200;
    policy.breaker_failure_threshold = 2;
    policy.breaker_open_ms = 30;
    return policy;
}

TEST(Transport, RecvDeadlineThrowsTimeout)
{
    std::string path = tempSocketPath("deadline");
    ListenSocket listener = listenUnix(path);
    std::thread silent([&listener]() {
        // Accept, then hold the connection open without ever replying.
        FrameSocket conn = listener.accept();
        std::vector<uint8_t> frame;
        try {
            while (conn.recvFrame(frame)) {
            }
        } catch (const FatalError &) {
        }
    });
    FrameSocket client = connectUnix(path);
    client.setDeadlines(/*send_ms=*/0, /*recv_ms=*/50);
    client.sendFrame({1, 2, 3});
    std::vector<uint8_t> in;
    try {
        client.recvFrame(in);
        FAIL() << "recvFrame should have timed out";
    } catch (const TransportError &e) {
        EXPECT_EQ(e.code(), TransportErrc::Timeout);
    }
    client.close();
    silent.join();
}

TEST(RetryTest, ClientStartsDegradedWhenServiceMissing)
{
    // No server ever listens here: the constructor must not throw, and
    // lookups/puts degrade instead of blocking or killing the app.
    PotluckClient client("lonely_app", tempSocketPath("nosrv"),
                         fastPolicy());
    client.registerFunction("f", "vec", Metric::L2, IndexKind::Linear);
    LookupResult r = client.lookup("f", "vec", FeatureVector({1.0f}));
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(client.put("f", "vec", FeatureVector({1.0f}), encodeInt(1)),
              0u);
    EXPECT_TRUE(client.degraded());
    EXPECT_EQ(client.breakerState(), CircuitBreaker::State::Open);

    obs::RegistrySnapshot snap = client.metrics().snapshot();
    EXPECT_GE(snap.counterValue("ipc.degraded_lookups"), 1u);
    EXPECT_GE(snap.counterValue("ipc.degraded_puts"), 1u);
    EXPECT_EQ(snap.gaugeValue("ipc.breaker_state"), 2); // Open
}

TEST(RetryTest, StrictPolicyThrowsInsteadOfDegrading)
{
    RetryPolicy policy = fastPolicy();
    policy.degraded_mode = false;
    EXPECT_THROW(
        PotluckClient("strict_app", tempSocketPath("strict"), policy),
        TransportError);
}

TEST(RetryTest, FetchStatsPropagatesTransportError)
{
    // Even in degraded mode, stats/metrics fetches throw: returning a
    // fabricated zero snapshot would silently lie to dashboards.
    PotluckClient client("stats_app", tempSocketPath("nostats"),
                         fastPolicy());
    EXPECT_THROW(client.fetchStats(), TransportError);
    EXPECT_THROW(client.fetchMetrics(), TransportError);
}

TEST(RetryTest, DeadlineExpiryDegradesAndCounts)
{
    std::string path = tempSocketPath("slowsrv");
    ListenSocket listener = listenUnix(path);
    std::atomic<bool> stop{false};
    std::thread black_hole([&listener, &stop]() {
        // Accept every connection, read requests, never reply.
        std::vector<std::unique_ptr<FrameSocket>> conns;
        while (!stop) {
            try {
                conns.push_back(
                    std::make_unique<FrameSocket>(listener.accept()));
            } catch (const FatalError &) {
                break;
            }
        }
    });

    RetryPolicy policy = fastPolicy();
    policy.request_deadline_ms = 60;
    PotluckClient client("patient_app", path, policy);
    LookupResult r = client.lookup("f", "vec", FeatureVector({1.0f}));
    EXPECT_FALSE(r.hit);
    EXPECT_GE(client.metrics().snapshot().counterValue(
                  "ipc.deadline_exceeded"),
              1u);

    stop = true;
    try {
        // close() alone does not wake a thread blocked in accept();
        // poke it with one throwaway connection.
        FrameSocket poke = connectUnix(path);
    } catch (const FatalError &) {
    }
    black_hole.join();
    listener.close();
}

TEST(RetryTest, KillServerMidSessionClientDegradesAndRecovers)
{
    PotluckConfig cfg;
    cfg.dropout_probability = 0.0;
    cfg.warmup_entries = 0;
    PotluckService service(cfg);
    std::string path = tempSocketPath("killsrv");
    auto server = std::make_unique<PotluckServer>(service, path);

    PotluckClient client("survivor", path, fastPolicy());
    client.registerFunction("f", "vec", Metric::L2, IndexKind::Linear);
    client.put("f", "vec", FeatureVector({1.0f}), encodeInt(11));
    ASSERT_TRUE(client.lookup("f", "vec", FeatureVector({1.0f})).hit);

    // Kill the service out from under the connected client.
    server.reset();
    LookupResult r = client.lookup("f", "vec", FeatureVector({1.0f}));
    EXPECT_FALSE(r.hit); // degraded to a miss, not an exception
    EXPECT_TRUE(client.degraded());

    // Restart on the same path: the same client object recovers via a
    // half-open probe, replaying its registrations on reconnect.
    server = std::make_unique<PotluckServer>(service, path);
    bool recovered = false;
    for (int i = 0; i < 500 && !recovered; ++i) {
        recovered =
            client.lookup("f", "vec", FeatureVector({1.0f})).hit;
        if (!recovered)
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_TRUE(recovered);
    EXPECT_FALSE(client.degraded());

    obs::RegistrySnapshot snap = client.metrics().snapshot();
    EXPECT_GE(snap.counterValue("ipc.reconnect"), 1u);
    EXPECT_GE(snap.counterValue("ipc.degraded_lookups"), 1u);
}

#ifdef POTLUCK_FAULT_INJECTION

/** RAII install/uninstall so a failing test cannot leak the injector
 * into later tests. */
class InjectorScope
{
  public:
    explicit InjectorScope(const FaultInjector::Config &config)
        : injector_(config)
    {
        FaultInjector::install(&injector_);
    }
    ~InjectorScope() { FaultInjector::install(nullptr); }
    FaultInjector &operator*() { return injector_; }
    FaultInjector *operator->() { return &injector_; }

  private:
    FaultInjector injector_;
};

TEST(FaultInjectionTest, RefusedConnectsDegradeTheClient)
{
    PotluckConfig cfg;
    cfg.dropout_probability = 0.0;
    PotluckService service(cfg);
    std::string path = tempSocketPath("refuse");
    PotluckServer server(service, path);

    FaultInjector::Config fic;
    fic.refuse_connect = 1.0;
    InjectorScope scope(fic);

    PotluckClient client("refused_app", path, fastPolicy());
    EXPECT_FALSE(
        client.lookup("f", "vec", FeatureVector({1.0f})).hit);
    EXPECT_GE(scope->counts().refused, 1u);
    EXPECT_TRUE(client.degraded());
}

TEST(FaultInjectionTest, DroppedFramesHitTheDeadline)
{
    PotluckConfig cfg;
    cfg.dropout_probability = 0.0;
    PotluckService service(cfg);
    std::string path = tempSocketPath("drop");
    PotluckServer server(service, path);

    RetryPolicy policy = fastPolicy();
    policy.request_deadline_ms = 50;
    PotluckClient client("drop_app", path, policy);
    {
        FaultInjector::Config fic;
        fic.drop_frame = 1.0;
        InjectorScope scope(fic);
        // Every frame vanishes: requests starve until the deadline.
        EXPECT_FALSE(
            client.lookup("f", "vec", FeatureVector({1.0f})).hit);
        EXPECT_GE(scope->counts().dropped, 1u);
        EXPECT_GE(client.metrics().snapshot().counterValue(
                      "ipc.deadline_exceeded"),
                  1u);
    }
}

TEST(FaultInjectionTest, TruncatedFramesAreSurvived)
{
    PotluckConfig cfg;
    cfg.dropout_probability = 0.0;
    PotluckService service(cfg);
    std::string path = tempSocketPath("truncate");
    PotluckServer server(service, path);

    PotluckClient client("trunc_app", path, fastPolicy());
    client.registerFunction("f", "vec", Metric::L2, IndexKind::Linear);
    {
        FaultInjector::Config fic;
        fic.truncate_frame = 1.0;
        InjectorScope scope(fic);
        EXPECT_FALSE(
            client.lookup("f", "vec", FeatureVector({1.0f})).hit);
        EXPECT_GE(scope->counts().truncated, 1u);
    }
    // Injector gone: the same client and server recover fully. The
    // put must repeat inside the loop — while the breaker is still
    // open it is a counted no-op.
    bool recovered = false;
    for (int i = 0; i < 500 && !recovered; ++i) {
        client.put("f", "vec", FeatureVector({1.0f}), encodeInt(5));
        recovered =
            client.lookup("f", "vec", FeatureVector({1.0f})).hit;
        if (!recovered)
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_TRUE(recovered);
}

TEST(FaultInjectionTest, GarbledFramesAreRejectedNotTrusted)
{
    PotluckConfig cfg;
    cfg.dropout_probability = 0.0;
    PotluckService service(cfg);
    std::string path = tempSocketPath("garble");
    PotluckServer server(service, path);

    PotluckClient client("garble_app", path, fastPolicy());
    {
        FaultInjector::Config fic;
        fic.garble_frame = 1.0;
        InjectorScope scope(fic);
        // Bit-flipped frames must never decode into a bogus hit.
        LookupResult r =
            client.lookup("f", "vec", FeatureVector({1.0f}));
        EXPECT_FALSE(r.hit);
        EXPECT_GE(scope->counts().garbled, 1u);
    }
}

TEST(FaultInjectionTest, DelaysSlowButDoNotBreakRequests)
{
    PotluckConfig cfg;
    cfg.dropout_probability = 0.0;
    cfg.warmup_entries = 0;
    PotluckService service(cfg);
    std::string path = tempSocketPath("delay");
    PotluckServer server(service, path);

    PotluckClient client("delay_app", path, fastPolicy());
    client.registerFunction("f", "vec", Metric::L2, IndexKind::Linear);
    client.put("f", "vec", FeatureVector({1.0f}), encodeInt(3));
    {
        FaultInjector::Config fic;
        fic.delay_probability = 1.0;
        fic.delay_ms = 5;
        InjectorScope scope(fic);
        LookupResult r =
            client.lookup("f", "vec", FeatureVector({1.0f}));
        ASSERT_TRUE(r.hit);
        EXPECT_EQ(decodeInt(r.value), 3);
        EXPECT_GE(scope->counts().delayed, 1u);
    }
}

TEST(FaultInjectionTest, RefusedShmHandshakeFallsBackToUds)
{
    // A mid-fleet rollout hazard: the daemon accepts the connection
    // but nacks the ring. The client must carry on over the same
    // socket with zero application-visible failures.
    PotluckConfig cfg;
    cfg.dropout_probability = 0.0;
    cfg.warmup_entries = 0;
    PotluckService service(cfg);
    std::string path = tempSocketPath("shmrefuse");
    PotluckServer server(service, path);

    FaultInjector::Config fic;
    fic.refuse_shm = 1.0;
    InjectorScope scope(fic);

    RetryPolicy policy;
    policy.degraded_mode = false;
    TransportOptions topts;
    topts.try_shm = true;
    PotluckClient client("shmrefuse_app", path, policy, {}, topts);
    client.registerFunction("f", "vec", Metric::L2, IndexKind::Linear);
    client.put("f", "vec", FeatureVector({1.0f}), encodeInt(1));
    EXPECT_TRUE(client.lookup("f", "vec", FeatureVector({1.0f})).hit);
    EXPECT_GE(scope->counts().shm_refused, 1u);
    EXPECT_GE(service.metrics().snapshot().counterValue(
                  "ipc.shm_refused"),
              1u);
}

TEST(FaultInjectionTest, PoisonedRingReconnectsAndRecovers)
{
    // Ring corruption mid-stream: both sides abandon the segment, the
    // client's retry loop reconnects (renegotiating a fresh ring once
    // the fault clears) — PR 2's reconnect semantics, on shm.
    PotluckConfig cfg;
    cfg.dropout_probability = 0.0;
    cfg.warmup_entries = 0;
    PotluckService service(cfg);
    std::string path = tempSocketPath("poison");
    PotluckServer server(service, path);

    RetryPolicy policy = fastPolicy();
    TransportOptions topts;
    topts.try_shm = true;
    PotluckClient client("poison_app", path, policy, {}, topts);
    client.registerFunction("f", "vec", Metric::L2, IndexKind::Linear);
    client.put("f", "vec", FeatureVector({1.0f}), encodeInt(9));
    ASSERT_TRUE(client.lookup("f", "vec", FeatureVector({1.0f})).hit);
    {
        FaultInjector::Config fic;
        fic.poison_ring = 1.0;
        InjectorScope scope(fic);
        // Every ring op poisons: lookups degrade to misses, never
        // exceptions or hangs.
        EXPECT_FALSE(
            client.lookup("f", "vec", FeatureVector({1.0f})).hit);
        EXPECT_GE(scope->counts().rings_poisoned, 1u);
    }
    // Fault gone: the client recovers on a fresh ring.
    bool recovered = false;
    for (int i = 0; i < 500 && !recovered; ++i) {
        client.put("f", "vec", FeatureVector({1.0f}), encodeInt(9));
        recovered =
            client.lookup("f", "vec", FeatureVector({1.0f})).hit;
        if (!recovered)
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_TRUE(recovered);
}

TEST(FaultInjectionTest, InstallFromEnvParsesSpec)
{
    ASSERT_EQ(::setenv("POTLUCK_IPC_FAULTS_TEST",
                       "refuse_shm=1.0,seed=42", 1),
              0);
    FaultInjector::installFromEnv("POTLUCK_IPC_FAULTS_TEST");
    FaultInjector *active = FaultInjector::active();
    ASSERT_NE(active, nullptr);
    EXPECT_TRUE(active->shouldRefuseShm());
    EXPECT_GE(active->counts().shm_refused, 1u);
    FaultInjector::install(nullptr);
    ::unsetenv("POTLUCK_IPC_FAULTS_TEST");
}

#endif // POTLUCK_FAULT_INJECTION

TEST(LocalClient, InProcessModeWorksWithoutSockets)
{
    PotluckConfig cfg;
    cfg.dropout_probability = 0.0;
    cfg.warmup_entries = 0;
    PotluckService service(cfg);
    PotluckClient client("local_app", service);
    EXPECT_FALSE(client.remote());
    client.registerFunction("f", "vec", Metric::L2, IndexKind::Linear);
    client.put("f", "vec", FeatureVector({2.0f}), encodeInt(20));
    LookupResult r = client.lookup("f", "vec", FeatureVector({2.0f}));
    ASSERT_TRUE(r.hit);
    EXPECT_EQ(decodeInt(r.value), 20);
}

// ---------- Batched verbs (kLookupBatch / kPutBatch) ----------

TEST(Message, BatchRequestRoundTrip)
{
    Request request;
    request.type = RequestType::PutBatch;
    request.function = "f";
    request.key_type = "vec";
    request.batch_keys = {FeatureVector({1.0f, 2.0f}),
                          FeatureVector({3.0f})};
    request.batch_puts.push_back({FeatureVector({4.0f}), encodeInt(4)});
    request.batch_puts.push_back({FeatureVector({5.0f, 6.0f}), nullptr});

    Request decoded = decodeRequest(encodeRequest(request));
    ASSERT_EQ(decoded.batch_keys.size(), 2u);
    EXPECT_EQ(decoded.batch_keys[0], request.batch_keys[0]);
    EXPECT_EQ(decoded.batch_keys[1], request.batch_keys[1]);
    ASSERT_EQ(decoded.batch_puts.size(), 2u);
    EXPECT_EQ(decoded.batch_puts[0].key, request.batch_puts[0].key);
    EXPECT_TRUE(valueEquals(decoded.batch_puts[0].value,
                            request.batch_puts[0].value));
    EXPECT_EQ(decoded.batch_puts[1].key, request.batch_puts[1].key);
    EXPECT_EQ(decoded.batch_puts[1].value, nullptr);
}

TEST(Message, BatchReplyRoundTrip)
{
    Reply reply;
    reply.type = RequestType::LookupBatch;
    reply.ok = true;
    BatchLookupItem hit;
    hit.hit = true;
    hit.value = encodeInt(7);
    hit.id = 9;
    BatchLookupItem dropped;
    dropped.dropped = true;
    reply.batch_lookups = {hit, dropped, BatchLookupItem{}};
    reply.batch_entry_ids = {11, 0, 13};

    Reply decoded = decodeReply(encodeReply(reply));
    ASSERT_EQ(decoded.batch_lookups.size(), 3u);
    EXPECT_TRUE(decoded.batch_lookups[0].hit);
    EXPECT_EQ(decodeInt(decoded.batch_lookups[0].value), 7);
    EXPECT_EQ(decoded.batch_lookups[0].id, 9u);
    EXPECT_TRUE(decoded.batch_lookups[1].dropped);
    EXPECT_FALSE(decoded.batch_lookups[1].hit);
    EXPECT_FALSE(decoded.batch_lookups[2].hit);
    EXPECT_EQ(decoded.batch_entry_ids,
              (std::vector<EntryId>{11, 0, 13}));
}

TEST(Message, OversizedBatchIsRejectedOnDecode)
{
    // The decoder bounds batch sizes (4096): a hostile frame cannot
    // force an unbounded allocation.
    Request request;
    request.type = RequestType::LookupBatch;
    request.batch_keys.assign(4097, FeatureVector({1.0f}));
    std::vector<uint8_t> frame = encodeRequest(request);
    EXPECT_THROW(decodeRequest(frame), FatalError);
}

TEST(AppListenerTest, BatchPutThenBatchLookup)
{
    PotluckConfig cfg;
    cfg.dropout_probability = 0.0;
    cfg.warmup_entries = 0;
    PotluckService service(cfg);
    AppListener listener(service, 2);

    Request reg;
    reg.type = RequestType::RegisterKeyType;
    reg.function = "f";
    reg.key_type = "vec";
    reg.index_kind = IndexKind::Linear;
    ASSERT_TRUE(listener.handle(reg).ok);

    Request put;
    put.type = RequestType::PutBatch;
    put.app = "a";
    put.function = "f";
    put.key_type = "vec";
    for (int i = 0; i < 8; ++i)
        put.batch_puts.push_back(
            {FeatureVector({static_cast<float>(10 * i)}), encodeInt(i)});
    Reply put_reply = listener.handle(put);
    ASSERT_TRUE(put_reply.ok);
    ASSERT_EQ(put_reply.batch_entry_ids.size(), 8u);
    for (EntryId id : put_reply.batch_entry_ids)
        EXPECT_GT(id, 0u);
    EXPECT_EQ(service.numEntries(), 8u);

    Request lookup;
    lookup.type = RequestType::LookupBatch;
    lookup.app = "a";
    lookup.function = "f";
    lookup.key_type = "vec";
    for (int i = 0; i < 8; ++i)
        lookup.batch_keys.push_back(
            FeatureVector({static_cast<float>(10 * i)}));
    lookup.batch_keys.push_back(FeatureVector({5000.0f})); // a miss
    Reply r = listener.handle(lookup);
    ASSERT_TRUE(r.ok);
    ASSERT_EQ(r.batch_lookups.size(), 9u);
    for (int i = 0; i < 8; ++i) {
        EXPECT_TRUE(r.batch_lookups[i].hit) << "item " << i;
        EXPECT_EQ(decodeInt(r.batch_lookups[i].value), i);
    }
    EXPECT_FALSE(r.batch_lookups[8].hit);
}

TEST(AppListenerTest, BatchErrorsBecomeReplyNotThrow)
{
    PotluckService service;
    AppListener listener(service, 1);
    Request lookup;
    lookup.type = RequestType::LookupBatch;
    lookup.function = "unregistered";
    lookup.key_type = "vec";
    lookup.batch_keys = {FeatureVector({1.0f})};
    Reply reply = listener.handle(lookup);
    EXPECT_FALSE(reply.ok);
    EXPECT_FALSE(reply.error.empty());
}

TEST(EndToEnd, BatchVerbsOverSocket)
{
    PotluckConfig cfg;
    cfg.dropout_probability = 0.0;
    cfg.warmup_entries = 0;
    PotluckService service(cfg);
    std::string path = tempSocketPath("batch");
    PotluckServer server(service, path);
    RetryPolicy policy;
    policy.degraded_mode = false;
    PotluckClient client("batch_app", path, policy);
    client.registerFunction("f", "vec", Metric::L2, IndexKind::Linear);

    std::vector<BatchPutItem> items;
    for (int i = 0; i < 32; ++i)
        items.push_back(
            {FeatureVector({static_cast<float>(i), static_cast<float>(-i)}),
             encodeInt(i)});
    std::vector<EntryId> ids = client.putBatch("f", "vec", items);
    ASSERT_EQ(ids.size(), 32u);
    EXPECT_EQ(service.numEntries(), 32u);

    std::vector<FeatureVector> keys;
    for (int i = 0; i < 32; ++i)
        keys.push_back(
            FeatureVector({static_cast<float>(i), static_cast<float>(-i)}));
    std::vector<BatchLookupItem> results =
        client.lookupBatch("f", "vec", keys);
    ASSERT_EQ(results.size(), 32u);
    for (int i = 0; i < 32; ++i) {
        ASSERT_TRUE(results[i].hit) << "key " << i;
        EXPECT_EQ(decodeInt(results[i].value), i);
        EXPECT_EQ(results[i].id, ids[static_cast<size_t>(i)]);
    }
    server.shutdown();
}

TEST(EndToEnd, DegradedBatchLookupIsAllMisses)
{
    // No server behind the socket: with degraded mode on, the batch
    // verbs degrade exactly like their single-shot counterparts.
    PotluckClient client("ghost", tempSocketPath("ghost_batch"),
                         fastPolicy());
    std::vector<BatchLookupItem> results = client.lookupBatch(
        "f", "vec", {FeatureVector({1.0f}), FeatureVector({2.0f})});
    ASSERT_EQ(results.size(), 2u);
    EXPECT_FALSE(results[0].hit);
    EXPECT_FALSE(results[1].hit);
    std::vector<EntryId> ids = client.putBatch(
        "f", "vec", {{FeatureVector({1.0f}), encodeInt(1)}});
    ASSERT_EQ(ids.size(), 1u);
    EXPECT_EQ(ids[0], 0u);
}

// ---------- Hostile frames (decoder hardening) ----------

/** Byte-level frame forgery: writes the wire format by hand so tests
 * can claim lengths and counts the encoder would never produce. */
class FrameForge
{
  public:
    FrameForge &u8(uint8_t v)
    {
        bytes.push_back(v);
        return *this;
    }
    FrameForge &u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            bytes.push_back(static_cast<uint8_t>(v >> (8 * i)));
        return *this;
    }
    FrameForge &str(const std::string &s)
    {
        u64(s.size());
        bytes.insert(bytes.end(), s.begin(), s.end());
        return *this;
    }
    std::vector<uint8_t> bytes;
};

TEST(MessageHardening, HugeStringLengthIsRejected)
{
    // A string length promising 2^64-1 bytes in a 9-byte frame must
    // throw (and never attempt the allocation).
    FrameForge f;
    f.u8(static_cast<uint8_t>(RequestType::Lookup))
        .u64(0xffffffffffffffffull); // app length
    EXPECT_THROW(decodeRequest(f.bytes), FatalError);
}

TEST(MessageHardening, HugeFloatCountIsRejected)
{
    // A float count whose byte size overflows size_t (2^61 floats)
    // must be caught by the pre-allocation bound, not by a wrapped
    // multiplication.
    FrameForge f;
    f.u8(static_cast<uint8_t>(RequestType::Lookup))
        .str("")                      // app
        .str("")                      // function
        .str("")                      // key_type
        .u8(0)                        // metric
        .u8(0)                        // index kind
        .u64(1ull << 61);             // key float count
    EXPECT_THROW(decodeRequest(f.bytes), FatalError);
}

TEST(MessageHardening, TruncatedFloatArrayIsRejected)
{
    Request request;
    request.type = RequestType::Lookup;
    request.key = FeatureVector({1.0f, 2.0f, 3.0f, 4.0f, 5.0f});
    std::vector<uint8_t> frame = encodeRequest(request);
    // Cut into the float payload (the tail fields behind it are all
    // fixed-size, so any 3-byte cut lands inside *some* field).
    frame.resize(frame.size() - 3);
    EXPECT_THROW(decodeRequest(frame), FatalError);
}

TEST(MessageHardening, HugeUploadedCountIsRejected)
{
    // An uploaded-records count of 2^32 with no bytes behind it: the
    // reserve must be clamped to what the frame could possibly hold
    // and the first record read must then fail on truncation.
    FrameForge f;
    f.u8(static_cast<uint8_t>(RequestType::Lookup))
        .str("")
        .str("")
        .str("")
        .u8(0)                        // metric
        .u8(0)                        // index kind
        .u64(0)                       // key floats
        .u8(0)                        // value absent
        .u8(0)                        // ttl absent
        .u8(0)                        // overhead absent
        .u64(0)                       // trace id
        .u64(0)                       // span id
        .u64(1ull << 32);             // uploaded record count
    EXPECT_THROW(decodeRequest(f.bytes), FatalError);
}

TEST(MessageHardening, HugeBatchCountIsRejected)
{
    FrameForge f;
    f.u8(static_cast<uint8_t>(RequestType::LookupBatch))
        .str("")
        .str("")
        .str("")
        .u8(0)
        .u8(0)
        .u64(0)                       // key floats
        .u8(0)                        // value absent
        .u8(0)                        // ttl absent
        .u8(0)                        // overhead absent
        .u64(0)                       // trace id
        .u64(0)                       // span id
        .u64(0)                       // uploaded records
        .u64(0x7fffffffffffffffull);  // batch key count
    EXPECT_THROW(decodeRequest(f.bytes), FatalError);
}

TEST(MessageHardening, ReplyHugeSnapshotCountIsRejected)
{
    // Reply side: a snapshot counter count far beyond the frame's
    // remaining bytes must fail on truncation, clamped reserve first.
    FrameForge f;
    f.u8(static_cast<uint8_t>(RequestType::Metrics))
        .u8(1)                        // ok
        .str("")                      // error
        .u8(0)                        // hit
        .u8(0)                        // dropped
        .u8(0)                        // value absent
        .u64(0);                      // entry id
    for (int i = 0; i < 13; ++i)
        f.u64(0); // 11 stats + num_entries + total_bytes
    f.u64(1ull << 40); // snapshot counter count
    EXPECT_THROW(decodeReply(f.bytes), FatalError);
}

TEST(MessageHardening, DecoderSurvivesRandomMutations)
{
    // Property check: no single-byte corruption of a real frame may
    // crash or hang the decoder — every outcome is either a clean
    // decode or FatalError.
    Request request;
    request.type = RequestType::PutBatch;
    request.app = "app";
    request.function = "f";
    request.key_type = "vec";
    request.batch_puts.push_back({FeatureVector({1.0f, 2.0f}),
                                  encodeString("value")});
    std::vector<uint8_t> frame = encodeRequest(request);
    std::mt19937 rng(1234);
    for (int i = 0; i < 500; ++i) {
        std::vector<uint8_t> mutated = frame;
        size_t pos = rng() % mutated.size();
        mutated[pos] ^= static_cast<uint8_t>(1 + rng() % 255);
        try {
            decodeRequest(mutated);
        } catch (const FatalError &) {
            // rejected: fine
        }
    }
}

// ---------- Slow-loris (whole-frame deadline) ----------

TEST(Transport, TricklingPeerHitsFrameDeadline)
{
    // A peer that promises a 1 MiB frame and then trickles one byte
    // at a time never triggers the per-recv() timeout — the
    // whole-frame budget must kill the read anyway.
    std::string path = tempSocketPath("loris");
    ListenSocket listener = listenUnix(path);
    std::atomic<bool> stop{false};
    std::thread trickler([&listener, &stop]() {
        FrameSocket conn = listener.accept();
        const uint8_t header[] = {0x00, 0x00, 0x10, 0x00}; // 1 MiB
        (void)::send(conn.fd(), header, sizeof(header), MSG_NOSIGNAL);
        uint8_t byte = 0;
        while (!stop) {
            if (::send(conn.fd(), &byte, 1, MSG_NOSIGNAL) <= 0)
                break;
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
    });
    FrameSocket client = connectUnix(path);
    client.setDeadlines(/*send_ms=*/0, /*recv_ms=*/100);
    Stopwatch sw;
    std::vector<uint8_t> in;
    try {
        client.recvFrame(in);
        FAIL() << "trickled frame should have timed out";
    } catch (const TransportError &e) {
        EXPECT_EQ(e.code(), TransportErrc::Timeout);
    }
    // Well under the 200 s the trickle would need at one byte per
    // poll interval: the deadline spans the whole frame.
    EXPECT_LT(sw.elapsedMs(), 2000u);
    stop = true;
    client.close();
    trickler.join();
}

// ---------- Shared-memory ring transport ----------

/** A connected socketpair wrapped as two FrameSockets (no listener
 * needed for transport-level tests). */
std::pair<FrameSocket, FrameSocket>
socketPair()
{
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    return {FrameSocket(fds[0]), FrameSocket(fds[1])};
}

TEST(ShmRing, NegotiateUpgradesAndEchoes)
{
    auto [client_sock, server_sock] = socketPair();
    std::thread server([sock = std::move(server_sock)]() mutable {
        std::vector<uint8_t> hello;
        ASSERT_TRUE(sock.recvFrame(hello));
        ASSERT_TRUE(shm::isHello(hello));
        bool upgraded = false;
        std::unique_ptr<Transport> t = shm::acceptUpgrade(
            std::move(sock), hello, /*enabled=*/true,
            /*max_ring_bytes=*/1u << 16, &upgraded);
        EXPECT_TRUE(upgraded);
        EXPECT_STREQ(t->kind(), "shm");
        t->setDeadlines(5000, 5000);
        FrameView view;
        while (t->recvFrameView(view)) {
            std::vector<uint8_t> echo(view.data(),
                                      view.data() + view.size());
            t->sendFrame(echo);
        }
    });

    std::unique_ptr<Transport> t =
        shm::negotiate(std::move(client_sock), 1u << 16);
    EXPECT_STREQ(t->kind(), "shm");
    t->setDeadlines(5000, 5000);

    // Sizes chosen to hit: empty, tiny, the inline/spill boundary on a
    // 64 KiB ring (maxInline = 32 KiB - 16), and far beyond it.
    std::mt19937 rng(7);
    std::vector<size_t> sizes = {0,     1,     7,     4096,
                                 32752, 32753, 65536, 300000};
    for (int round = 0; round < 200; ++round)
        sizes.push_back(rng() % 50000);
    std::vector<uint8_t> in;
    for (size_t size : sizes) {
        std::vector<uint8_t> out(size);
        for (size_t i = 0; i < size; ++i)
            out[i] = static_cast<uint8_t>((i * 131) ^ size);
        t->sendFrame(out);
        ASSERT_TRUE(t->recvFrame(in)) << "size " << size;
        ASSERT_EQ(in, out) << "size " << size;
    }
    t->close();
    server.join();
}

TEST(ShmRing, RefusedHandshakeFallsBackToSocket)
{
    auto [client_sock, server_sock] = socketPair();
    std::thread server([sock = std::move(server_sock)]() mutable {
        std::vector<uint8_t> hello;
        ASSERT_TRUE(sock.recvFrame(hello));
        bool upgraded = true;
        std::unique_ptr<Transport> t = shm::acceptUpgrade(
            std::move(sock), hello, /*enabled=*/false,
            /*max_ring_bytes=*/1u << 16, &upgraded);
        EXPECT_FALSE(upgraded);
        EXPECT_STREQ(t->kind(), "uds");
        std::vector<uint8_t> frame;
        while (t->recvFrame(frame))
            t->sendFrame(frame);
    });

    // The client asked for shm, the server declined: same connection,
    // plain socket framing, no reconnect.
    std::unique_ptr<Transport> t =
        shm::negotiate(std::move(client_sock), 1u << 16);
    EXPECT_STREQ(t->kind(), "uds");
    std::vector<uint8_t> out = {9, 8, 7};
    t->sendFrame(out);
    std::vector<uint8_t> in;
    ASSERT_TRUE(t->recvFrame(in));
    EXPECT_EQ(in, out);
    t->close();
    server.join();
}

TEST(ShmRing, ClampRequestsToGrantedCapacity)
{
    // The server caps the ring at its configured maximum; an outsized
    // client request is granted the cap, not refused.
    auto [client_sock, server_sock] = socketPair();
    std::thread server([sock = std::move(server_sock)]() mutable {
        std::vector<uint8_t> hello;
        ASSERT_TRUE(sock.recvFrame(hello));
        bool upgraded = false;
        std::unique_ptr<Transport> t = shm::acceptUpgrade(
            std::move(sock), hello, true, /*max_ring_bytes=*/1u << 14,
            &upgraded);
        EXPECT_TRUE(upgraded);
        FrameView view;
        t->setDeadlines(5000, 5000);
        while (t->recvFrameView(view))
            t->sendFrameDirect(view.size(), [&](uint8_t *dst) {
                std::memcpy(dst, view.data(), view.size());
            });
    });
    std::unique_ptr<Transport> t =
        shm::negotiate(std::move(client_sock), 1u << 24);
    EXPECT_STREQ(t->kind(), "shm");
    t->setDeadlines(5000, 5000);
    // A frame larger than the granted 16 KiB ring travels via spill.
    std::vector<uint8_t> out(100000, 0x5a);
    t->sendFrame(out);
    std::vector<uint8_t> in;
    ASSERT_TRUE(t->recvFrame(in));
    EXPECT_EQ(in, out);
    t->close();
    server.join();
}

// ---------- Cross-transport conformance (UDS vs shm) ----------

/** Every client verb, end to end, on both transports. The parameter
 * is TransportOptions::try_shm. */
class TransportConformance : public ::testing::TestWithParam<bool>
{
  protected:
    void
    SetUp() override
    {
        PotluckConfig cfg;
        cfg.dropout_probability = 0.0;
        cfg.warmup_entries = 0;
        // A small ring so conformance traffic also crosses the
        // wrap/spill paths, not just the inline fast path.
        cfg.ipc_shm_ring_bytes = 1u << 16;
        service_ = std::make_unique<PotluckService>(cfg);
        path_ = tempSocketPath("conf");
        server_ = std::make_unique<PotluckServer>(*service_, path_);
    }

    PotluckClient
    makeClient(const std::string &app)
    {
        RetryPolicy policy;
        policy.degraded_mode = false;
        TransportOptions topts;
        topts.try_shm = GetParam();
        topts.shm_ring_bytes = 1u << 16;
        return PotluckClient(app, path_, policy, {}, topts);
    }

    std::unique_ptr<PotluckService> service_;
    std::unique_ptr<PotluckServer> server_;
    std::string path_;
};

TEST_P(TransportConformance, AllVerbsRoundTrip)
{
    PotluckClient client = makeClient("conf_app");
    client.registerFunction("f", "vec", Metric::L2, IndexKind::Linear);

    // Single-shot data path.
    EXPECT_FALSE(client.lookup("f", "vec", FeatureVector({1.0f})).hit);
    EntryId id = client.put("f", "vec", FeatureVector({1.0f}),
                            encodeString("small"));
    EXPECT_GT(id, 0u);
    LookupResult hit = client.lookup("f", "vec", FeatureVector({1.0f}));
    ASSERT_TRUE(hit.hit);
    EXPECT_EQ(decodeString(hit.value), "small");

    // A value larger than the ring rides the spill path intact.
    std::vector<uint8_t> big(200000);
    for (size_t i = 0; i < big.size(); ++i)
        big[i] = static_cast<uint8_t>(i * 17);
    client.put("f", "vec", FeatureVector({2.0f}),
               std::make_shared<const std::vector<uint8_t>>(big));
    LookupResult big_hit =
        client.lookup("f", "vec", FeatureVector({2.0f}));
    ASSERT_TRUE(big_hit.hit);
    EXPECT_EQ(*big_hit.value, big);

    // Batch verbs.
    std::vector<BatchPutItem> items;
    for (int i = 0; i < 64; ++i)
        items.push_back({FeatureVector({static_cast<float>(100 + i)}),
                         encodeInt(i)});
    std::vector<EntryId> ids = client.putBatch("f", "vec", items);
    ASSERT_EQ(ids.size(), 64u);
    std::vector<FeatureVector> keys;
    for (int i = 0; i < 64; ++i)
        keys.push_back(FeatureVector({static_cast<float>(100 + i)}));
    std::vector<BatchLookupItem> results =
        client.lookupBatch("f", "vec", keys);
    ASSERT_EQ(results.size(), 64u);
    for (int i = 0; i < 64; ++i) {
        ASSERT_TRUE(results[i].hit) << "key " << i;
        EXPECT_EQ(decodeInt(results[i].value), i);
    }

    // Control verbs.
    PotluckClient::RemoteStats stats = client.fetchStats();
    EXPECT_GE(stats.stats.puts, 66u);
    PotluckClient::RemoteMetrics metrics = client.fetchMetrics();
    EXPECT_GE(metrics.num_entries, 66u);
    EXPECT_GE(metrics.snapshot.counterValue("ipc.requests"), 5u);
    (void)client.fetchPeers();
    std::vector<NodeStatsSection> sections = client.fetchClusterStats();
    ASSERT_GE(sections.size(), 1u);
    EXPECT_EQ(client.triggerScrub(), 0u); // no cold tier configured
    (void)client.fetchTrace();

    // The server counted the transport this connection actually used.
    obs::RegistrySnapshot snap = service_->metrics().snapshot();
    if (GetParam())
        EXPECT_GE(snap.counterValue("ipc.shm_connections"), 1u);
    else
        EXPECT_EQ(snap.counterValue("ipc.shm_connections"), 0u);
}

TEST_P(TransportConformance, SurvivesServerRestart)
{
    // PR 2's reconnect/replay semantics hold on both transports: the
    // shm client renegotiates its ring on the fresh connection.
    RetryPolicy policy;
    policy.max_attempts = 2;
    policy.initial_backoff_ms = 1;
    policy.max_backoff_ms = 4;
    policy.request_deadline_ms = 500;
    policy.breaker_failure_threshold = 2;
    policy.breaker_open_ms = 30;
    TransportOptions topts;
    topts.try_shm = GetParam();
    PotluckClient client("restart_app", path_, policy, {}, topts);
    client.registerFunction("f", "vec", Metric::L2, IndexKind::Linear);
    client.put("f", "vec", FeatureVector({1.0f}), encodeInt(11));
    ASSERT_TRUE(client.lookup("f", "vec", FeatureVector({1.0f})).hit);

    server_.reset();
    EXPECT_FALSE(client.lookup("f", "vec", FeatureVector({1.0f})).hit);

    server_ = std::make_unique<PotluckServer>(*service_, path_);
    bool recovered = false;
    for (int i = 0; i < 500 && !recovered; ++i) {
        recovered = client.lookup("f", "vec", FeatureVector({1.0f})).hit;
        if (!recovered)
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_TRUE(recovered);
}

INSTANTIATE_TEST_SUITE_P(Transports, TransportConformance,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool> &info) {
                             return info.param ? "shm" : "uds";
                         });

TEST(ShmServerClient, ServerKillSwitchFallsBackToUds)
{
    // --no-shm daemon: clients asking for the ring get nacked and the
    // connection serves normally over the socket.
    PotluckConfig cfg;
    cfg.dropout_probability = 0.0;
    cfg.warmup_entries = 0;
    cfg.ipc_enable_shm = false;
    PotluckService service(cfg);
    std::string path = tempSocketPath("noshm");
    PotluckServer server(service, path);

    RetryPolicy policy;
    policy.degraded_mode = false;
    TransportOptions topts;
    topts.try_shm = true;
    PotluckClient client("noshm_app", path, policy, {}, topts);
    client.registerFunction("f", "vec", Metric::L2, IndexKind::Linear);
    client.put("f", "vec", FeatureVector({1.0f}), encodeInt(1));
    EXPECT_TRUE(client.lookup("f", "vec", FeatureVector({1.0f})).hit);

    obs::RegistrySnapshot snap = service.metrics().snapshot();
    EXPECT_GE(snap.counterValue("ipc.shm_refused"), 1u);
    EXPECT_EQ(snap.counterValue("ipc.shm_connections"), 0u);
}

} // namespace
} // namespace potluck
