/**
 * @file
 * Tests for the flight recorder and end-to-end request tracing: the
 * lock-free ring (publish/snapshot/drain, wraparound, torn-read
 * rejection), tail sampling, TraceScope/TracedSpan parenting, decision
 * events, the trace wire codec (including hostile inputs), the Chrome
 * and human exporters, and full client → transport → service trace
 * stitching in both loopback and socket modes.
 */
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>

#include "core/potluck_service.h"
#include "ipc/client.h"
#include "ipc/fault_injection.h"
#include "ipc/message.h"
#include "ipc/retry.h"
#include "ipc/server.h"
#include "obs/trace.h"
#include "obs/trace_export.h"

namespace potluck {
namespace {

std::string
tempSocketPath(const char *tag)
{
    static std::atomic<int> counter{0};
    return (std::filesystem::temp_directory_path() /
            ("potluck_trace_" + std::string(tag) + "_" +
             std::to_string(::getpid()) + "_" +
             std::to_string(counter++) + ".sock"))
        .string();
}

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

/** Recorder that keeps every trace (slo 0 beats any duration). */
obs::TraceConfig
keepAllConfig(size_t capacity = 256)
{
    obs::TraceConfig tc;
    tc.capacity = capacity;
    tc.slo_ns = 0;
    tc.sample_prob = 1.0;
    return tc;
}

obs::TraceRecord
spanRecord(uint64_t trace_id, uint64_t span_id, const char *name)
{
    obs::TraceRecord record;
    record.kind = obs::RecordKind::Span;
    record.trace_id = trace_id;
    record.span_id = span_id;
    record.setName(name);
    record.start_ns = span_id; // ordered for snapshot sorting
    record.dur_ns = 10;
    return record;
}

TEST(FlightRecorder, PublishSnapshotRoundTrip)
{
    obs::FlightRecorder recorder(keepAllConfig(16));
    for (uint64_t i = 1; i <= 5; ++i)
        recorder.publish(spanRecord(7, i, "stage"));
    std::vector<obs::TraceRecord> snap = recorder.snapshot();
    ASSERT_EQ(snap.size(), 5u);
    for (uint64_t i = 0; i < 5; ++i) {
        EXPECT_EQ(snap[i].span_id, i + 1); // oldest first
        EXPECT_EQ(snap[i].trace_id, 7u);
        EXPECT_STREQ(snap[i].name, "stage");
    }
}

TEST(FlightRecorder, CapacityRoundsUpToPowerOfTwo)
{
    obs::TraceConfig tc = keepAllConfig(100);
    obs::FlightRecorder recorder(tc);
    EXPECT_EQ(recorder.capacity(), 128u);
}

TEST(FlightRecorder, WrapAroundKeepsMostRecentWindow)
{
    obs::FlightRecorder recorder(keepAllConfig(16));
    for (uint64_t i = 1; i <= 40; ++i)
        recorder.publish(spanRecord(1, i, "s"));
    std::vector<obs::TraceRecord> snap = recorder.snapshot();
    ASSERT_EQ(snap.size(), 16u);
    // The ring holds exactly the newest capacity records.
    for (size_t i = 0; i < snap.size(); ++i)
        EXPECT_EQ(snap[i].span_id, 40 - 16 + 1 + i);
}

TEST(FlightRecorder, SnapshotIsNonDestructive)
{
    obs::FlightRecorder recorder(keepAllConfig(16));
    recorder.publish(spanRecord(1, 1, "s"));
    EXPECT_EQ(recorder.snapshot().size(), 1u);
    EXPECT_EQ(recorder.snapshot().size(), 1u);
}

TEST(FlightRecorder, DrainIsDestructiveAndResumes)
{
    obs::FlightRecorder recorder(keepAllConfig(16));
    for (uint64_t i = 1; i <= 5; ++i)
        recorder.publish(spanRecord(1, i, "s"));
    std::vector<obs::TraceRecord> out;
    EXPECT_EQ(recorder.drain(out, 3), 3u);
    EXPECT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0].span_id, 1u);
    EXPECT_EQ(recorder.drain(out, 10), 2u);
    EXPECT_EQ(out.size(), 5u);
    EXPECT_EQ(out[4].span_id, 5u);
    EXPECT_EQ(recorder.drain(out, 10), 0u);
    recorder.publish(spanRecord(1, 6, "s"));
    EXPECT_EQ(recorder.drain(out, 10), 1u);
    EXPECT_EQ(out.back().span_id, 6u);
}

TEST(FlightRecorder, DrainSkipsLappedRecords)
{
    obs::FlightRecorder recorder(keepAllConfig(16));
    for (uint64_t i = 1; i <= 40; ++i)
        recorder.publish(spanRecord(1, i, "s"));
    std::vector<obs::TraceRecord> out;
    size_t n = recorder.drain(out, 100);
    EXPECT_LE(n, 16u); // overwritten records are lost, not replayed
    for (const obs::TraceRecord &r : out)
        EXPECT_GE(r.span_id, 25u); // only the surviving window
}

TEST(FlightRecorder, KeepTraceHonorsSloAndIsDeterministic)
{
    obs::TraceConfig tc;
    tc.capacity = 16;
    tc.slo_ns = 1000;
    tc.sample_prob = 0.0;
    obs::FlightRecorder a(tc), b(tc);
    // Over-SLO traces are always kept; under-SLO with prob 0 never.
    EXPECT_TRUE(a.keepTrace(42, 2000));
    EXPECT_FALSE(a.keepTrace(42, 999));
    // The probabilistic verdict hashes the trace id, so two recorders
    // with the same config agree on every id.
    tc.sample_prob = 0.5;
    obs::FlightRecorder c(tc), d(tc);
    for (uint64_t id = 1; id < 200; ++id)
        EXPECT_EQ(c.keepTrace(id, 0), d.keepTrace(id, 0)) << id;
}

TEST(FlightRecorder, SampleProbBoundsAreSaturating)
{
    obs::TraceConfig tc;
    tc.slo_ns = UINT64_MAX;
    tc.sample_prob = 1.0;
    obs::FlightRecorder all(tc);
    tc.sample_prob = 0.0;
    obs::FlightRecorder none(tc);
    for (uint64_t id = 1; id < 100; ++id) {
        EXPECT_TRUE(all.keepTrace(id, 0));
        EXPECT_FALSE(none.keepTrace(id, 0));
    }
}

TEST(TraceScope, NullRecorderIsInactive)
{
    obs::TraceScope scope(nullptr, "root", {}, obs::kProcService);
    EXPECT_FALSE(scope.active());
    EXPECT_EQ(scope.context().trace_id, 0u);
    EXPECT_EQ(obs::activeTrace().recorder, nullptr);
}

TEST(TraceScope, RootScopeFlushesSpansOnKeep)
{
    obs::FlightRecorder recorder(keepAllConfig());
    uint64_t root_id = 0, child_id = 0, trace_id = 0;
    {
        obs::TraceScope root(&recorder, "root", {}, obs::kProcClient,
                             "detail_text");
        ASSERT_TRUE(root.active());
        root_id = root.spanId();
        trace_id = root.context().trace_id;
        EXPECT_NE(trace_id, 0u);
        {
            obs::TracedSpan child("child", nullptr);
            child_id = child.spanId();
            EXPECT_NE(child_id, 0u);
        }
        // Nothing reaches the ring until the root decides.
        EXPECT_EQ(recorder.snapshot().size(), 0u);
    }
    std::vector<obs::TraceRecord> snap = recorder.snapshot();
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_EQ(recorder.tracesKept(), 1u);
    const obs::TraceRecord *root_rec = nullptr, *child_rec = nullptr;
    for (const obs::TraceRecord &r : snap) {
        EXPECT_EQ(r.trace_id, trace_id);
        EXPECT_EQ(r.proc, obs::kProcClient);
        if (r.span_id == root_id)
            root_rec = &r;
        if (r.span_id == child_id)
            child_rec = &r;
    }
    ASSERT_NE(root_rec, nullptr);
    ASSERT_NE(child_rec, nullptr);
    EXPECT_EQ(child_rec->parent_span_id, root_id);
    EXPECT_STREQ(root_rec->detail, "detail_text");
    // The scope left no trace state behind on this thread.
    EXPECT_EQ(obs::activeTrace().recorder, nullptr);
    EXPECT_EQ(obs::activeTrace().pending_count, 0u);
}

TEST(TraceScope, SampledOutTraceDropsAllSpans)
{
    obs::TraceConfig tc;
    tc.capacity = 64;
    tc.slo_ns = UINT64_MAX;
    tc.sample_prob = 0.0;
    obs::FlightRecorder recorder(tc);
    {
        obs::TraceScope root(&recorder, "root", {}, obs::kProcService);
        obs::TracedSpan child("child", nullptr);
    }
    EXPECT_EQ(recorder.snapshot().size(), 0u);
    EXPECT_EQ(recorder.tracesKept(), 0u);
    EXPECT_EQ(recorder.tracesSampledOut(), 1u);
    EXPECT_EQ(obs::activeTrace().pending_count, 0u);
}

TEST(TraceScope, InboundContextIsAdopted)
{
    obs::FlightRecorder recorder(keepAllConfig());
    obs::TraceContext inbound{0xabcdef12, 0x77};
    {
        obs::TraceScope scope(&recorder, "ipc.handle", inbound,
                              obs::kProcService);
        EXPECT_EQ(scope.context().trace_id, 0xabcdef12u);
    }
    std::vector<obs::TraceRecord> snap = recorder.snapshot();
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_EQ(snap[0].trace_id, 0xabcdef12u);
    EXPECT_EQ(snap[0].parent_span_id, 0x77u); // stitches to the client
}

TEST(TraceScope, NestedScopeDegradesToChildSpan)
{
    obs::FlightRecorder recorder(keepAllConfig());
    uint64_t outer_trace = 0;
    {
        obs::TraceScope outer(&recorder, "outer", {}, obs::kProcClient);
        outer_trace = outer.context().trace_id;
        {
            // A second scope on the same thread (loopback: the server
            // scope opens inside the client's) joins the outer trace.
            obs::TraceScope inner(&recorder, "inner", {},
                                  obs::kProcService);
            EXPECT_TRUE(inner.active());
            EXPECT_EQ(inner.context().trace_id, outer_trace);
        }
    }
    std::vector<obs::TraceRecord> snap = recorder.snapshot();
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_EQ(snap[0].trace_id, outer_trace);
    EXPECT_EQ(snap[1].trace_id, outer_trace);
}

TEST(Decisions, BypassSamplingAndLandImmediately)
{
    obs::TraceConfig tc;
    tc.capacity = 64;
    tc.slo_ns = UINT64_MAX;
    tc.sample_prob = 0.0; // every trace sampled out...
    obs::FlightRecorder recorder(tc);
    obs::recordDecision(&recorder, obs::DecisionKind::Eviction, "evict",
                        "fn/app", 1500.0, 3.0, 4096.0, 17);
    std::vector<obs::TraceRecord> snap = recorder.snapshot();
    ASSERT_EQ(snap.size(), 1u); // ...but the decision is kept
    EXPECT_EQ(snap[0].kind, obs::RecordKind::Decision);
    EXPECT_EQ(snap[0].decision, obs::DecisionKind::Eviction);
    EXPECT_STREQ(snap[0].name, "evict");
    EXPECT_STREQ(snap[0].detail, "fn/app");
    EXPECT_DOUBLE_EQ(snap[0].a, 1500.0);
    EXPECT_DOUBLE_EQ(snap[0].b, 3.0);
    EXPECT_DOUBLE_EQ(snap[0].c, 4096.0);
    EXPECT_EQ(snap[0].u, 17u);
}

TEST(Decisions, InsideTraceInheritTraceIds)
{
    obs::FlightRecorder recorder(keepAllConfig());
    uint64_t trace_id = 0;
    {
        obs::TraceScope root(&recorder, "root", {}, obs::kProcService);
        trace_id = root.context().trace_id;
        obs::recordDecision(&recorder, obs::DecisionKind::ExpirySweep,
                            "expiry.sweep", "", 0.0, 0.0, 0.0, 3);
    }
    for (const obs::TraceRecord &r : recorder.snapshot()) {
        if (r.kind == obs::RecordKind::Decision) {
            EXPECT_EQ(r.trace_id, trace_id);
        }
    }
}

TEST(Decisions, NullRecorderIsNoOp)
{
    obs::recordDecision(nullptr, obs::DecisionKind::Eviction, "evict", "x",
                        1, 2, 3, 4); // must not crash
}

TEST(FlightRecorder, ConcurrentPublishersNeverTearRecords)
{
    obs::FlightRecorder recorder(keepAllConfig(64));
    std::atomic<bool> stop{false};
    std::vector<std::thread> writers;
    for (int t = 0; t < 4; ++t) {
        writers.emplace_back([&recorder, &stop, t]() {
            uint64_t i = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                obs::TraceRecord record;
                record.kind = obs::RecordKind::Span;
                record.setName("torn_check");
                // A torn copy would break the a == u correlation.
                record.u = static_cast<uint64_t>(t) * 1000000 + i;
                record.a = static_cast<double>(record.u);
                record.trace_id = 1;
                record.span_id = record.u + 1;
                recorder.publish(record);
                ++i;
            }
        });
    }
    for (int iter = 0; iter < 200; ++iter) {
        for (const obs::TraceRecord &r : recorder.snapshot()) {
            ASSERT_STREQ(r.name, "torn_check");
            ASSERT_DOUBLE_EQ(r.a, static_cast<double>(r.u));
        }
    }
    stop = true;
    for (std::thread &w : writers)
        w.join();
}

TEST(TraceWire, RequestCarriesContextAndUploads)
{
    Request request;
    request.type = RequestType::Lookup;
    request.app = "app";
    request.function = "fn";
    request.key_type = "vec";
    request.key = FeatureVector({1.0f});
    request.trace.trace_id = 0x1122334455667788ULL;
    request.trace.span_id = 0x99aabbccddeeff00ULL;
    obs::TraceRecord up = spanRecord(5, 6, "client.lookup");
    up.proc = obs::kProcClient;
    up.setDetail("fn");
    up.parent_span_id = 4;
    up.dur_ns = 1234;
    request.uploaded.push_back(up);

    Request decoded = decodeRequest(encodeRequest(request));
    EXPECT_EQ(decoded.trace.trace_id, request.trace.trace_id);
    EXPECT_EQ(decoded.trace.span_id, request.trace.span_id);
    ASSERT_EQ(decoded.uploaded.size(), 1u);
    EXPECT_EQ(decoded.uploaded[0].trace_id, 5u);
    EXPECT_EQ(decoded.uploaded[0].span_id, 6u);
    EXPECT_EQ(decoded.uploaded[0].parent_span_id, 4u);
    EXPECT_EQ(decoded.uploaded[0].dur_ns, 1234u);
    EXPECT_EQ(decoded.uploaded[0].proc, obs::kProcClient);
    EXPECT_STREQ(decoded.uploaded[0].name, "client.lookup");
    EXPECT_STREQ(decoded.uploaded[0].detail, "fn");
}

TEST(TraceWire, OversizedUploadListIsClampedAtEncode)
{
    Request request;
    request.type = RequestType::Lookup;
    request.app = "app";
    for (uint64_t i = 0; i < 300; ++i)
        request.uploaded.push_back(spanRecord(1, i + 1, "s"));
    Request decoded = decodeRequest(encodeRequest(request));
    EXPECT_EQ(decoded.uploaded.size(), 256u); // the codec's hard cap
}

TEST(TraceWire, ReplyCarriesTraceRecords)
{
    Reply reply;
    reply.type = RequestType::Trace;
    reply.ok = true;
    obs::TraceRecord decision;
    decision.kind = obs::RecordKind::Decision;
    decision.decision = obs::DecisionKind::BreakerTransition;
    decision.setName("breaker");
    decision.a = 0;
    decision.b = 2;
    reply.trace_records.push_back(decision);
    reply.trace_records.push_back(spanRecord(9, 10, "service.lookup"));

    Reply decoded = decodeReply(encodeReply(reply));
    ASSERT_EQ(decoded.trace_records.size(), 2u);
    EXPECT_EQ(decoded.trace_records[0].decision,
              obs::DecisionKind::BreakerTransition);
    EXPECT_EQ(decoded.trace_records[1].trace_id, 9u);
}

/**
 * Locate the byte that encodes a given record field by diffing two
 * encodings that differ only in that field, then corrupt it — keeps
 * the hostile-input tests independent of the exact wire layout.
 */
size_t
differingByte(const std::vector<uint8_t> &x, const std::vector<uint8_t> &y)
{
    EXPECT_EQ(x.size(), y.size());
    for (size_t i = 0; i < x.size(); ++i)
        if (x[i] != y[i])
            return i;
    ADD_FAILURE() << "encodings did not differ";
    return 0;
}

TEST(TraceWire, HostileRecordKindIsRejected)
{
    Reply reply;
    reply.type = RequestType::Trace;
    reply.ok = true;
    reply.trace_records.push_back(spanRecord(1, 2, "s"));
    std::vector<uint8_t> span_bytes = encodeReply(reply);
    reply.trace_records[0].kind = obs::RecordKind::Decision;
    std::vector<uint8_t> decision_bytes = encodeReply(reply);

    size_t kind_pos = differingByte(span_bytes, decision_bytes);
    span_bytes[kind_pos] = 0xc8; // no such RecordKind
    EXPECT_THROW(decodeReply(span_bytes), FatalError);
}

TEST(TraceWire, HostileDecisionKindIsRejected)
{
    Reply reply;
    reply.type = RequestType::Trace;
    reply.ok = true;
    obs::TraceRecord record;
    record.kind = obs::RecordKind::Decision;
    record.decision = obs::DecisionKind::Eviction;
    reply.trace_records.push_back(record);
    std::vector<uint8_t> eviction_bytes = encodeReply(reply);
    reply.trace_records[0].decision = obs::DecisionKind::ExpirySweep;
    std::vector<uint8_t> sweep_bytes = encodeReply(reply);

    size_t pos = differingByte(eviction_bytes, sweep_bytes);
    eviction_bytes[pos] = 0x7f; // no such DecisionKind
    EXPECT_THROW(decodeReply(eviction_bytes), FatalError);
}

TEST(TraceExport, ChromeTraceHasRequiredShape)
{
    std::vector<obs::TraceRecord> records;
    obs::TraceRecord span = spanRecord(1, 2, "service.lookup");
    span.proc = obs::kProcService;
    span.setDetail("recognize");
    records.push_back(span);
    obs::TraceRecord decision;
    decision.kind = obs::RecordKind::Decision;
    decision.decision = obs::DecisionKind::Eviction;
    decision.setName("evict");
    decision.setDetail("recognize/app_a");
    decision.a = 1500.0;
    decision.b = 3.0;
    decision.c = 4096.0;
    decision.u = 17;
    records.push_back(decision);

    std::string json = obs::toChromeTrace(records);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("service.lookup"), std::string::npos);
    EXPECT_NE(json.find("computation_overhead_us"), std::string::npos);
    EXPECT_NE(json.find("access_frequency"), std::string::npos);
    EXPECT_NE(json.find("size_bytes"), std::string::npos);
}

TEST(TraceExport, ChromeTraceEscapesHostileDetail)
{
    std::vector<obs::TraceRecord> records;
    obs::TraceRecord span = spanRecord(1, 2, "service.lookup");
    span.setDetail("evil\"name\x01\xff");
    records.push_back(span);
    std::string json = obs::toChromeTrace(records);
    EXPECT_NE(json.find("evil\\\"name\\u0001\\ufffd"), std::string::npos);
    EXPECT_EQ(json.find('\xff'), std::string::npos);
    EXPECT_EQ(json.find('\x01'), std::string::npos);
}

TEST(TraceExport, HumanTraceGroupsByTrace)
{
    std::vector<obs::TraceRecord> records;
    obs::TraceRecord root = spanRecord(1, 2, "client.lookup");
    root.proc = obs::kProcClient;
    records.push_back(root);
    obs::TraceRecord child = spanRecord(1, 3, "service.lookup");
    child.parent_span_id = 2;
    records.push_back(child);
    std::string text = obs::toHumanTrace(records);
    EXPECT_NE(text.find("client.lookup"), std::string::npos);
    EXPECT_NE(text.find("service.lookup"), std::string::npos);
    size_t root_pos = text.find("client.lookup");
    size_t child_pos = text.find("service.lookup");
    EXPECT_LT(root_pos, child_pos); // parent precedes child in the tree
}

TEST(TraceExport, EmptyRecordsProduceValidDocuments)
{
    std::vector<obs::TraceRecord> none;
    std::string json = obs::toChromeTrace(none);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_FALSE(obs::toHumanTrace(none).empty());
}

PotluckConfig
tracedServiceConfig()
{
    PotluckConfig cfg;
    cfg.dropout_probability = 0.0;
    cfg.warmup_entries = 0;
    cfg.trace_slo_ns = 0; // keep every trace: deterministic tests
    cfg.trace_sample_prob = 1.0;
    return cfg;
}

TEST(EndToEnd, LoopbackClientTraceStitchesClientAndService)
{
    PotluckService service(tracedServiceConfig());
    ASSERT_NE(service.recorder(), nullptr);
    PotluckClient client("app_a", service);
    client.registerFunction("recognize", "vec", Metric::L2,
                            IndexKind::Linear);
    client.put("recognize", "vec", FeatureVector({1.0f}), encodeInt(1));
    ASSERT_TRUE(
        client.lookup("recognize", "vec", FeatureVector({1.0f})).hit);

    std::vector<obs::TraceRecord> snap = service.recorder()->snapshot();
    const obs::TraceRecord *client_span = nullptr, *service_span = nullptr;
    for (const obs::TraceRecord &r : snap) {
        if (std::string(r.name) == "client.lookup")
            client_span = &r;
        if (std::string(r.name) == "service.lookup")
            service_span = &r;
    }
    ASSERT_NE(client_span, nullptr);
    ASSERT_NE(service_span, nullptr);
    EXPECT_EQ(client_span->trace_id, service_span->trace_id);
    // Loopback is one process: every span in the trace carries the
    // root's (client) process tag.
    EXPECT_EQ(client_span->proc, obs::kProcClient);
    EXPECT_EQ(service_span->proc, obs::kProcClient);
    EXPECT_STREQ(service_span->detail, "recognize");
}

TEST(EndToEnd, EvictionDecisionsCarryImportanceBreakdown)
{
    PotluckConfig cfg = tracedServiceConfig();
    cfg.max_entries = 4;
    PotluckService service(cfg);
    service.registerKeyType(
        "fn", KeyTypeConfig{"vec", Metric::L2, IndexKind::Linear, {}});
    for (int i = 0; i < 12; ++i) {
        PutOptions options;
        options.compute_overhead_us = 500.0 + i;
        service.put("fn", "vec",
                    FeatureVector({static_cast<float>(i) * 100.0f}),
                    encodeInt(i), options);
    }
    bool saw_eviction = false;
    for (const obs::TraceRecord &r : service.recorder()->snapshot()) {
        if (r.kind != obs::RecordKind::Decision ||
            r.decision != obs::DecisionKind::Eviction) {
            continue;
        }
        saw_eviction = true;
        EXPECT_GT(r.a, 0.0);  // computation overhead (us)
        EXPECT_GE(r.b, 0.0);  // access frequency
        EXPECT_GT(r.c, 0.0);  // size in bytes
        EXPECT_NE(r.u, 0u);   // victim entry id
        EXPECT_NE(r.detail[0], '\0'); // function/app context
    }
    EXPECT_TRUE(saw_eviction);
}

TEST(EndToEnd, RemoteTraceFetchShowsBothProcesses)
{
    PotluckService service(tracedServiceConfig());
    std::string path = tempSocketPath("fetch");
    PotluckServer server(service, path);
    PotluckClient client("app_remote", path, fastPolicy(),
                         keepAllConfig());
    client.registerFunction("recognize", "vec", Metric::L2,
                            IndexKind::Linear);
    client.put("recognize", "vec", FeatureVector({2.0f}), encodeInt(2));
    ASSERT_TRUE(
        client.lookup("recognize", "vec", FeatureVector({2.0f})).hit);
    // The lookup's client-side spans ride to the daemon on this next
    // request, so the fetched snapshot holds both halves.
    std::vector<obs::TraceRecord> records = client.fetchTrace();

    uint64_t lookup_trace = 0;
    for (const obs::TraceRecord &r : records) {
        if (std::string(r.name) == "client.lookup")
            lookup_trace = r.trace_id;
    }
    ASSERT_NE(lookup_trace, 0u);
    bool saw_round_trip = false, saw_handle = false, saw_service = false;
    for (const obs::TraceRecord &r : records) {
        if (r.trace_id != lookup_trace)
            continue;
        if (std::string(r.name) == "ipc.round_trip") {
            saw_round_trip = true;
            EXPECT_EQ(r.proc, obs::kProcClient);
        }
        if (std::string(r.name) == "ipc.handle") {
            saw_handle = true;
            EXPECT_EQ(r.proc, obs::kProcService);
        }
        if (std::string(r.name) == "service.lookup")
            saw_service = true;
    }
    EXPECT_TRUE(saw_round_trip);
    EXPECT_TRUE(saw_handle);
    EXPECT_TRUE(saw_service);
}

TEST(EndToEnd, RecorderDisabledMeansEmptyTraceNotError)
{
    PotluckConfig cfg = tracedServiceConfig();
    cfg.enable_recorder = false;
    PotluckService service(cfg);
    EXPECT_EQ(service.recorder(), nullptr);
    std::string path = tempSocketPath("norec");
    PotluckServer server(service, path);
    PotluckClient client("app_norec", path, fastPolicy());
    EXPECT_TRUE(client.fetchTrace().empty());
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

/**
 * Garbled frames must not corrupt the recorder or leak half-built
 * trace state: after the faults clear, the same client produces a
 * complete, well-formed trace.
 */
TEST(FaultInjectionTrace, GarbledFramesLeaveRecorderConsistent)
{
    PotluckService service(tracedServiceConfig());
    std::string path = tempSocketPath("garble");
    PotluckServer server(service, path);
    PotluckClient client("garble_app", path, fastPolicy(),
                         keepAllConfig());
    client.registerFunction("fn", "vec", Metric::L2, IndexKind::Linear);
    {
        FaultInjector::Config fic;
        fic.garble_frame = 1.0;
        InjectorScope scope(fic);
        for (int i = 0; i < 5; ++i)
            client.lookup("fn", "vec", FeatureVector({1.0f}));
        EXPECT_GE(scope->counts().garbled, 1u);
    }
    // No half-built trace survives on this thread.
    EXPECT_EQ(obs::activeTrace().recorder, nullptr);
    EXPECT_EQ(obs::activeTrace().pending_count, 0u);
    // Every record in both recorders is well-formed (spans have ids,
    // names are terminated strings the exporter can render).
    for (obs::FlightRecorder *recorder :
         {client.recorder(), service.recorder()}) {
        ASSERT_NE(recorder, nullptr);
        for (const obs::TraceRecord &r : recorder->snapshot()) {
            EXPECT_LE(static_cast<uint8_t>(r.kind), 1u);
            EXPECT_LE(static_cast<uint8_t>(r.decision), 5u);
            if (r.kind == obs::RecordKind::Span) {
                EXPECT_NE(r.span_id, 0u);
            }
        }
        // The exporters walk the snapshot without tripping ASan.
        obs::toChromeTrace(recorder->snapshot());
        obs::toHumanTrace(recorder->snapshot());
    }
    // The client recovers and produces a stitched trace again. The
    // put must repeat while the breaker reopens.
    bool recovered = false;
    for (int i = 0; i < 500 && !recovered; ++i) {
        client.put("fn", "vec", FeatureVector({1.0f}), encodeInt(5));
        recovered = client.lookup("fn", "vec", FeatureVector({1.0f})).hit;
        if (!recovered)
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_TRUE(recovered);
    std::vector<obs::TraceRecord> records = client.fetchTrace();
    bool saw_service_span = false;
    for (const obs::TraceRecord &r : records)
        saw_service_span |= std::string(r.name) == "service.lookup";
    EXPECT_TRUE(saw_service_span);
}

/** Truncated frames: same guarantee as garbled ones. */
TEST(FaultInjectionTrace, TruncatedFramesDoNotLeakSpans)
{
    PotluckService service(tracedServiceConfig());
    std::string path = tempSocketPath("trunc");
    PotluckServer server(service, path);
    PotluckClient client("trunc_app", path, fastPolicy(),
                         keepAllConfig());
    client.registerFunction("fn", "vec", Metric::L2, IndexKind::Linear);
    {
        FaultInjector::Config fic;
        fic.truncate_frame = 1.0;
        InjectorScope scope(fic);
        for (int i = 0; i < 5; ++i)
            client.lookup("fn", "vec", FeatureVector({1.0f}));
        EXPECT_GE(scope->counts().truncated, 1u);
    }
    EXPECT_EQ(obs::activeTrace().recorder, nullptr);
    EXPECT_EQ(obs::activeTrace().pending_count, 0u);
    for (const obs::TraceRecord &r : client.recorder()->snapshot()) {
        if (r.kind == obs::RecordKind::Span) {
            EXPECT_NE(r.span_id, 0u);
        }
    }
    obs::toChromeTrace(client.recorder()->snapshot());
}

#endif // POTLUCK_FAULT_INJECTION

} // namespace
} // namespace potluck
