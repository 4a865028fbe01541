/**
 * @file
 * Tests for the observability subsystem (src/obs): histogram bucket
 * layout and percentile accuracy, lock-free counters under threads,
 * registry behavior, exporters, and the ServiceStats snapshot view
 * derived from the registry (including the hit-rate denominator
 * contract).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/potluck_service.h"
#include "obs/build_info.h"
#include "obs/export.h"
#include "obs/histogram.h"
#include "obs/http_exporter.h"
#include "obs/metrics.h"
#include "obs/registry.h"
#include "obs/span.h"
#include "util/rng.h"

namespace potluck {
namespace {

using obs::HistogramSnapshot;
using obs::LatencyHistogram;
using obs::MetricsRegistry;

// --- Histogram bucket layout ---------------------------------------------

TEST(HistogramBuckets, SmallValuesAreExact)
{
    for (uint64_t v = 0; v < LatencyHistogram::kExactBuckets; ++v) {
        EXPECT_EQ(LatencyHistogram::bucketIndex(v), v);
        EXPECT_EQ(LatencyHistogram::bucketLowerBound(v), v);
    }
}

TEST(HistogramBuckets, IndexIsMonotoneAndConsistentWithBounds)
{
    size_t prev = 0;
    const std::vector<uint64_t> probes = {
        0,      1,          15,         16,         17,        31, 32, 100,
        1000,   123456,     1ull << 20, 1ull << 33, 1ull << 62,
        UINT64_MAX};
    for (uint64_t v : probes) {
        size_t idx = LatencyHistogram::bucketIndex(v);
        ASSERT_LT(idx, LatencyHistogram::kNumBuckets);
        EXPECT_GE(idx, prev) << "index not monotone at " << v;
        prev = idx;
        // The bucket's own range must contain the value.
        EXPECT_LE(LatencyHistogram::bucketLowerBound(idx), v);
        if (idx + 1 < LatencyHistogram::kNumBuckets) {
            EXPECT_GT(LatencyHistogram::bucketLowerBound(idx + 1), v);
        }
    }
}

TEST(HistogramBuckets, BoundsCoverEveryBucketBoundary)
{
    // bucketIndex(bucketLowerBound(i)) == i for every bucket: the
    // lower bound is the first value mapping into the bucket.
    for (size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
        uint64_t lo = LatencyHistogram::bucketLowerBound(i);
        EXPECT_EQ(LatencyHistogram::bucketIndex(lo), i) << "bucket " << i;
        if (lo > 0) {
            EXPECT_EQ(LatencyHistogram::bucketIndex(lo - 1), i - 1)
                << "bucket " << i;
        }
    }
}

TEST(HistogramBuckets, RelativeErrorBounded)
{
    // Log-linear with 8 sub-buckets per octave: bucket width is at
    // most 12.5% of the bucket's lower bound.
    for (size_t i = LatencyHistogram::kExactBuckets;
         i + 1 < LatencyHistogram::kNumBuckets; ++i) {
        double lo = static_cast<double>(LatencyHistogram::bucketLowerBound(i));
        double hi =
            static_cast<double>(LatencyHistogram::bucketLowerBound(i + 1));
        EXPECT_LE((hi - lo) / lo, 0.125 + 1e-12) << "bucket " << i;
    }
}

// --- Percentiles ----------------------------------------------------------

TEST(HistogramPercentiles, MatchSortedReferenceWithinBucketError)
{
    Rng rng(7);
    LatencyHistogram hist;
    std::vector<double> reference;
    for (int i = 0; i < 20000; ++i) {
        // Log-uniform over [1, 1e8): exercises many octaves.
        double v = std::exp(rng.uniformReal(0.0, std::log(1e8)));
        uint64_t u = static_cast<uint64_t>(v);
        hist.record(u);
        reference.push_back(static_cast<double>(u));
    }
    std::sort(reference.begin(), reference.end());
    HistogramSnapshot snap = hist.snapshot();
    EXPECT_EQ(snap.count, 20000u);
    for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9}) {
        double exact =
            reference[static_cast<size_t>(std::ceil(p / 100.0 * 20000)) - 1];
        double approx = snap.percentile(p);
        // Within one bucket width (12.5%) of the exact sample value.
        EXPECT_NEAR(approx, exact, exact * 0.13 + 1.0)
            << "p" << p << " exact=" << exact << " approx=" << approx;
    }
    EXPECT_EQ(snap.percentile(100.0), reference.back());
    EXPECT_EQ(static_cast<double>(snap.min), reference.front());
    EXPECT_EQ(static_cast<double>(snap.max), reference.back());
}

TEST(HistogramPercentiles, EmptyHistogramIsZero)
{
    LatencyHistogram hist;
    HistogramSnapshot snap = hist.snapshot();
    EXPECT_EQ(snap.count, 0u);
    EXPECT_EQ(snap.percentile(50), 0.0);
    EXPECT_EQ(snap.min, 0u);
    EXPECT_EQ(snap.max, 0u);
}

TEST(HistogramPercentiles, SingleValue)
{
    LatencyHistogram hist;
    hist.record(42);
    HistogramSnapshot snap = hist.snapshot();
    EXPECT_EQ(snap.percentile(0), 42.0);
    EXPECT_EQ(snap.percentile(50), 42.0);
    EXPECT_EQ(snap.percentile(100), 42.0);
    EXPECT_EQ(snap.mean(), 42.0);
}

// --- Merge ----------------------------------------------------------------

TEST(HistogramMerge, EqualsCombinedStream)
{
    Rng rng(11);
    LatencyHistogram a, b, combined;
    for (int i = 0; i < 5000; ++i) {
        uint64_t v = static_cast<uint64_t>(rng.uniformReal(0, 1e6));
        if (i % 2) {
            a.record(v);
        } else {
            b.record(v);
        }
        combined.record(v);
    }
    HistogramSnapshot merged = a.snapshot();
    merged.merge(b.snapshot());
    HistogramSnapshot expect = combined.snapshot();
    EXPECT_EQ(merged.count, expect.count);
    EXPECT_EQ(merged.sum, expect.sum);
    EXPECT_EQ(merged.min, expect.min);
    EXPECT_EQ(merged.max, expect.max);
    EXPECT_EQ(merged.buckets, expect.buckets);
    for (double p : {50.0, 90.0, 99.0})
        EXPECT_EQ(merged.percentile(p), expect.percentile(p));
}

TEST(HistogramMerge, MergeIntoEmpty)
{
    LatencyHistogram a;
    a.record(10);
    a.record(20);
    HistogramSnapshot empty;
    empty.merge(a.snapshot());
    EXPECT_EQ(empty.count, 2u);
    EXPECT_EQ(empty.min, 10u);
    EXPECT_EQ(empty.max, 20u);
}

// --- Concurrency ----------------------------------------------------------

TEST(CounterConcurrency, ParallelIncrementsAreExact)
{
    obs::Counter counter;
    obs::Gauge gauge;
    LatencyHistogram hist;
    constexpr int kThreads = 8;
    constexpr int kPerThread = 100000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&]() {
            for (int i = 0; i < kPerThread; ++i) {
                counter.inc();
                gauge.add(1);
                hist.record(static_cast<uint64_t>(i));
            }
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(counter.value(), uint64_t{kThreads} * kPerThread);
    EXPECT_EQ(gauge.value(), int64_t{kThreads} * kPerThread);
    HistogramSnapshot snap = hist.snapshot();
    EXPECT_EQ(snap.count, uint64_t{kThreads} * kPerThread);
    EXPECT_EQ(snap.min, 0u);
    EXPECT_EQ(snap.max, uint64_t{kPerThread} - 1);
}

// --- Registry -------------------------------------------------------------

TEST(Registry, SameNameSameObject)
{
    MetricsRegistry reg;
    obs::Counter &a = reg.counter("x");
    obs::Counter &b = reg.counter("x");
    EXPECT_EQ(&a, &b);
    EXPECT_NE(&a, &reg.counter("y"));
    // Kinds live in separate namespaces.
    reg.gauge("x").set(5);
    reg.histogram("x").record(1);
    a.inc(3);
    obs::RegistrySnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counterValue("x"), 3u);
    EXPECT_EQ(snap.gaugeValue("x"), 5);
    ASSERT_NE(snap.findHistogram("x"), nullptr);
    EXPECT_EQ(snap.findHistogram("x")->count, 1u);
    EXPECT_EQ(snap.findHistogram("missing"), nullptr);
    EXPECT_EQ(snap.counterValue("missing"), 0u);
}

TEST(Registry, SnapshotIsNameSorted)
{
    MetricsRegistry reg;
    reg.counter("zeta");
    reg.counter("alpha");
    reg.counter("mid");
    obs::RegistrySnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.counters.size(), 3u);
    EXPECT_EQ(snap.counters[0].name, "alpha");
    EXPECT_EQ(snap.counters[2].name, "zeta");
}

// --- Span -----------------------------------------------------------------

TEST(Span, RecordsIntoHistogramAndIgnoresNull)
{
    LatencyHistogram hist;
    {
        POTLUCK_SPAN(&hist);
    }
    {
        LatencyHistogram *off = nullptr;
        POTLUCK_SPAN(off); // must not crash
    }
#ifndef POTLUCK_OBS_NO_TRACE
    EXPECT_EQ(hist.count(), 1u);
#else
    EXPECT_EQ(hist.count(), 0u);
#endif
}

// --- Exporters ------------------------------------------------------------

TEST(Export, JsonContainsAllSections)
{
    MetricsRegistry reg;
    reg.counter("service.lookups").inc(7);
    reg.gauge("cache.entries").set(3);
    reg.histogram("lookup.total_ns").record(1000);
    std::string json = obs::toJson(reg.snapshot());
    EXPECT_NE(json.find("\"service.lookups\":7"), std::string::npos) << json;
    EXPECT_NE(json.find("\"cache.entries\":3"), std::string::npos);
    EXPECT_NE(json.find("\"lookup.total_ns\""), std::string::npos);
    EXPECT_NE(json.find("\"count\":1"), std::string::npos);
    EXPECT_NE(json.find("\"p99\":"), std::string::npos);
}

TEST(Export, PrometheusRewritesNamesAndEmitsTypes)
{
    MetricsRegistry reg;
    reg.counter("service.lookups").inc(7);
    reg.histogram("lookup.total_ns").record(1000);
    std::string prom = obs::toPrometheus(reg.snapshot());
    EXPECT_NE(prom.find("# TYPE service_lookups_total counter"),
              std::string::npos)
        << prom;
    EXPECT_NE(prom.find("service_lookups_total 7"), std::string::npos);
    EXPECT_NE(prom.find("# TYPE lookup_total_seconds summary"),
              std::string::npos);
    EXPECT_NE(prom.find("lookup_total_seconds{quantile=\"0.99\"}"),
              std::string::npos);
    EXPECT_NE(prom.find("lookup_total_seconds_count 1"), std::string::npos);
    EXPECT_EQ(obs::prometheusName("fn.recognize.hits"), "fn_recognize_hits");
}

// Metric names embed app-supplied strings (`fn.<function>.lookups`),
// so the exporters must survive hostile names: a registered function
// called `evil"}` or one carrying raw control bytes must not let an
// attacker break out of the JSON string or corrupt the Prometheus
// exposition format.

TEST(Export, JsonEscapesHostileNames)
{
    MetricsRegistry reg;
    reg.counter("fn.evil\"}{\\.lookups").inc(1);
    reg.counter(std::string("fn.ctrl\x01\n.hits")).inc(2);
    std::string json = obs::toJson(reg.snapshot());
    EXPECT_NE(json.find("fn.evil\\\"}{\\\\.lookups"), std::string::npos)
        << json;
    EXPECT_NE(json.find("fn.ctrl\\u0001\\u000a.hits"), std::string::npos)
        << json;
    // No raw quote or control byte survives inside a name.
    EXPECT_EQ(json.find('\x01'), std::string::npos);
    EXPECT_EQ(json.find('\n'), std::string::npos);
}

TEST(Export, JsonReplacesInvalidUtf8)
{
    // Lone continuation byte, truncated sequence, overlong slash, and
    // a CESU-8 surrogate half — each must become U+FFFD, never pass
    // through as raw bytes that would make the document non-UTF-8.
    EXPECT_EQ(obs::jsonEscape("a\x80z"), "a\\ufffdz");
    EXPECT_EQ(obs::jsonEscape("a\xc3"), "a\\ufffd");
    EXPECT_EQ(obs::jsonEscape("a\xc0\xafz"), "a\\ufffd\\ufffdz");
    EXPECT_EQ(obs::jsonEscape("a\xed\xa0\x80z"),
              "a\\ufffd\\ufffd\\ufffdz");
    // Well-formed multi-byte sequences pass through untouched.
    EXPECT_EQ(obs::jsonEscape("caf\xc3\xa9"), "caf\xc3\xa9");
    EXPECT_EQ(obs::jsonEscape("\xf0\x9f\x8e\x89"), "\xf0\x9f\x8e\x89");
}

TEST(Export, PrometheusSanitizesHostileNames)
{
    MetricsRegistry reg;
    reg.counter("fn.evil\" 1\n.lookups").inc(3);
    reg.counter("0leading").inc(4);
    std::string prom = obs::toPrometheus(reg.snapshot());
    // Every non-[a-zA-Z0-9_:] byte becomes '_': no injected newline
    // can forge an extra sample line, no quote can escape a label.
    EXPECT_NE(prom.find("fn_evil__1__lookups_total 3"), std::string::npos)
        << prom;
    EXPECT_EQ(obs::prometheusName("0leading"), "_leading");
    for (const char *line_breaker : {"\" 1", "evil\""})
        EXPECT_EQ(prom.find(line_breaker), std::string::npos) << prom;
}

// --- Prometheus exposition-format conformance -----------------------------
//
// Scraped by real Prometheus, the exporter must follow text format
// 0.0.4: counters carry a `_total` suffix, durations are exported in
// base seconds, and every family gets `# HELP` / `# TYPE` headers.
// The pre-conformance aliases (un-suffixed counters, raw-unit
// histograms) were served for one release and are gone: each test
// below also checks that no alias is emitted.

TEST(Export, PrometheusCountersGetTotalSuffixWithDeprecatedAlias)
{
    MetricsRegistry reg;
    reg.counter("service.hits").inc(9);
    std::string prom = obs::toPrometheus(reg.snapshot());
    EXPECT_NE(prom.find("# HELP service_hits_total "), std::string::npos)
        << prom;
    EXPECT_NE(prom.find("# TYPE service_hits_total counter"),
              std::string::npos);
    EXPECT_NE(prom.find("\nservice_hits_total 9\n"), std::string::npos);
    // No alias under the old name.
    EXPECT_EQ(prom.find("# TYPE service_hits counter"), std::string::npos);
    EXPECT_EQ(prom.find("\nservice_hits 9\n"), std::string::npos);
    EXPECT_EQ(prom.find("Deprecated"), std::string::npos);
}

TEST(Export, PrometheusCounterAlreadyTotalIsNotDoubled)
{
    MetricsRegistry reg;
    reg.counter("lookup.total").inc(2);
    std::string prom = obs::toPrometheus(reg.snapshot());
    EXPECT_NE(prom.find("\nlookup_total 2\n"), std::string::npos) << prom;
    EXPECT_EQ(prom.find("lookup_total_total"), std::string::npos);
    EXPECT_EQ(prom.find("Deprecated"), std::string::npos);
}

TEST(Export, PrometheusHistogramsScaleToBaseSeconds)
{
    MetricsRegistry reg;
    reg.histogram("lookup.total_ns").record(1000);
    std::string prom = obs::toPrometheus(reg.snapshot());
    // 1000 ns = 1e-6 s in the conformant family...
    EXPECT_NE(prom.find("# TYPE lookup_total_seconds summary"),
              std::string::npos)
        << prom;
    EXPECT_NE(prom.find("lookup_total_seconds_sum 1e-06"),
              std::string::npos);
    EXPECT_NE(prom.find("lookup_total_seconds_count 1"), std::string::npos);
    EXPECT_NE(prom.find("lookup_total_seconds{quantile=\"0.5\"}"),
              std::string::npos);
    // ...and no raw-nanosecond alias.
    EXPECT_EQ(prom.find("lookup_total_ns"), std::string::npos);
    EXPECT_EQ(prom.find("Deprecated"), std::string::npos);
}

TEST(Export, PrometheusByteHistogramsPassThroughUnscaled)
{
    MetricsRegistry reg;
    reg.histogram("ipc.request_bytes").record(512);
    std::string prom = obs::toPrometheus(reg.snapshot());
    // Bytes are already a base unit: no rename, no alias.
    EXPECT_NE(prom.find("# TYPE ipc_request_bytes summary"),
              std::string::npos)
        << prom;
    EXPECT_NE(prom.find("ipc_request_bytes_sum 512"), std::string::npos);
    EXPECT_EQ(prom.find("ipc_request_bytes_seconds"), std::string::npos);
}

TEST(Export, EveryFamilyHasHelpAndTypeHeaders)
{
    MetricsRegistry reg;
    reg.counter("service.puts").inc(1);
    reg.gauge("cache.entries").set(5);
    reg.histogram("put.total_ns").record(10);
    std::string prom = obs::toPrometheus(reg.snapshot());
    std::istringstream lines(prom);
    std::string line, last_family;
    std::set<std::string> typed;
    while (std::getline(lines, line)) {
        if (line.rfind("# TYPE ", 0) == 0) {
            typed.insert(line.substr(7, line.find(' ', 7) - 7));
            continue;
        }
        if (line.empty() || line[0] == '#')
            continue;
        // Sample line: its family (name minus {labels} and summary
        // suffixes) must have been typed already.
        std::string name = line.substr(0, line.find_first_of(" {"));
        for (const char *suffix : {"_sum", "_count"}) {
            size_t n = std::strlen(suffix);
            if (name.size() > n &&
                name.compare(name.size() - n, n, suffix) == 0) {
                std::string base = name.substr(0, name.size() - n);
                if (typed.count(base))
                    name = base;
            }
        }
        EXPECT_TRUE(typed.count(name)) << "untyped sample: " << line;
    }
}

TEST(Export, BuildInfoAndUptimeAreExported)
{
    MetricsRegistry reg;
    std::string prom = obs::toPrometheus(reg.snapshot());
    EXPECT_NE(prom.find("# TYPE potluck_build_info gauge"),
              std::string::npos)
        << prom;
    EXPECT_NE(prom.find("potluck_build_info{version=\""),
              std::string::npos);
    EXPECT_NE(prom.find("git_sha=\""), std::string::npos);
    EXPECT_NE(prom.find("sanitizer=\""), std::string::npos);
    EXPECT_NE(prom.find("} 1\n"), std::string::npos);
    EXPECT_NE(prom.find("# TYPE process_uptime_seconds gauge"),
              std::string::npos);

    std::string json = obs::toJson(reg.snapshot());
    EXPECT_EQ(json.rfind("{\"build_info\":{\"version\":\"", 0), 0u) << json;
    EXPECT_NE(json.find("\"process_uptime_seconds\":"), std::string::npos);

    obs::BuildInfo info = obs::buildInfo();
    EXPECT_GT(std::strlen(info.version), 0u);
    EXPECT_GT(std::strlen(info.git_sha), 0u);
    EXPECT_GT(std::strlen(info.sanitizer), 0u);
    EXPECT_GE(obs::processUptimeSeconds(), 0.0);
}

// --- HTTP exporter --------------------------------------------------------

/** One blocking HTTP exchange against 127.0.0.1:port. */
std::string
httpExchange(uint16_t port, const std::string &request)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
              static_cast<ssize_t>(request.size()));
    std::string response;
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
        response.append(buf, static_cast<size_t>(n));
    ::close(fd);
    return response;
}

TEST(HttpExporter, ServesRegisteredRoutes)
{
    obs::HttpExporter::Config cfg; // port 0: kernel-assigned
    obs::HttpExporter server(cfg);
    server.handle("/metrics", [] {
        obs::HttpResponse r;
        r.content_type = "text/plain; version=0.0.4; charset=utf-8";
        r.body = "potluck_build_info 1\n";
        return r;
    });
    server.handle("/healthz", [] {
        obs::HttpResponse r;
        r.status = 503;
        r.body = "{\"status\":\"degraded\"}";
        return r;
    });
    ASSERT_TRUE(server.start()) << server.lastError();
    ASSERT_NE(server.port(), 0);

    std::string ok = httpExchange(
        server.port(), "GET /metrics HTTP/1.0\r\n\r\n");
    EXPECT_NE(ok.find("HTTP/1.0 200 OK"), std::string::npos) << ok;
    EXPECT_NE(ok.find("version=0.0.4"), std::string::npos);
    EXPECT_NE(ok.find("potluck_build_info 1"), std::string::npos);
    EXPECT_NE(ok.find("Content-Length:"), std::string::npos);

    // The handler's status passes through (healthz degradation).
    std::string degraded = httpExchange(
        server.port(), "GET /healthz HTTP/1.0\r\n\r\n");
    EXPECT_NE(degraded.find("HTTP/1.0 503"), std::string::npos) << degraded;

    // Query strings are stripped before routing.
    std::string with_query = httpExchange(
        server.port(), "GET /metrics?name=x HTTP/1.0\r\n\r\n");
    EXPECT_NE(with_query.find("200 OK"), std::string::npos);

    // HEAD gets headers only; unknown paths 404; non-GET 405.
    std::string head = httpExchange(
        server.port(), "HEAD /metrics HTTP/1.0\r\n\r\n");
    EXPECT_NE(head.find("200 OK"), std::string::npos);
    EXPECT_EQ(head.find("potluck_build_info"), std::string::npos);
    EXPECT_NE(httpExchange(server.port(), "GET /nope HTTP/1.0\r\n\r\n")
                  .find("404"),
              std::string::npos);
    EXPECT_NE(httpExchange(server.port(), "POST /metrics HTTP/1.0\r\n\r\n")
                  .find("405"),
              std::string::npos);

    EXPECT_GE(server.requestsServed(), 6u);
    server.stop();
    EXPECT_FALSE(server.running());
    server.stop(); // idempotent
}

TEST(HttpExporter, GarbageRequestIsBadRequestNotCrash)
{
    obs::HttpExporter::Config cfg;
    obs::HttpExporter server(cfg);
    server.handle("/", [] { return obs::HttpResponse{}; });
    ASSERT_TRUE(server.start()) << server.lastError();
    std::string r = httpExchange(server.port(), "\r\n\r\n");
    EXPECT_NE(r.find("400"), std::string::npos) << r;
    // The server survives and keeps answering.
    EXPECT_NE(httpExchange(server.port(), "GET / HTTP/1.0\r\n\r\n")
                  .find("200 OK"),
              std::string::npos);
}

// --- ServiceStats as a registry view --------------------------------------

PotluckConfig
quietConfig()
{
    PotluckConfig cfg;
    cfg.dropout_probability = 0.0;
    cfg.warmup_entries = 0;
    return cfg;
}

TEST(ServiceMetrics, StatsAreDerivedFromRegistry)
{
    PotluckService service(quietConfig());
    KeyTypeConfig key_cfg;
    key_cfg.name = "vec";
    key_cfg.index_kind = IndexKind::Linear;
    service.registerKeyType("recognize", key_cfg);

    service.put("recognize", "vec", FeatureVector({1.0f}), encodeInt(1));
    service.lookup("app", "recognize", "vec", FeatureVector({1.0f}));
    service.lookup("app", "recognize", "vec", FeatureVector({100.0f}));

    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.puts, 1u);
    EXPECT_EQ(stats.lookups, 2u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);

    // The same numbers must be visible through the registry...
    obs::RegistrySnapshot snap = service.metrics().snapshot();
    EXPECT_EQ(snap.counterValue("service.lookups"), 2u);
    EXPECT_EQ(snap.counterValue("service.hits"), 1u);
    EXPECT_EQ(snap.counterValue("service.puts"), 1u);
    // ...including per-function counters and the occupancy gauges.
    EXPECT_EQ(snap.counterValue("fn.recognize.lookups"), 2u);
    EXPECT_EQ(snap.counterValue("fn.recognize.hits"), 1u);
    EXPECT_EQ(snap.counterValue("fn.recognize.misses"), 1u);
    EXPECT_EQ(snap.gaugeValue("cache.entries"), 1);
    EXPECT_GT(snap.gaugeValue("cache.bytes"), 0);
    EXPECT_DOUBLE_EQ(service.functionHitRate("recognize"), 0.5);
    EXPECT_DOUBLE_EQ(service.functionHitRate("unknown_fn"), 0.0);
}

TEST(ServiceMetrics, TracingRecordsHotPathHistograms)
{
    PotluckService service(quietConfig());
    KeyTypeConfig key_cfg;
    key_cfg.name = "vec";
    key_cfg.index_kind = IndexKind::Linear;
    service.registerKeyType("f", key_cfg);
    service.put("f", "vec", FeatureVector({1.0f}), encodeInt(1));
    service.lookup("a", "f", "vec", FeatureVector({1.0f}));

    obs::RegistrySnapshot snap = service.metrics().snapshot();
    const obs::HistogramSnapshot *lookup_ns =
        snap.findHistogram("lookup.total_ns");
    const obs::HistogramSnapshot *put_ns = snap.findHistogram("put.total_ns");
    ASSERT_NE(lookup_ns, nullptr);
    ASSERT_NE(put_ns, nullptr);
#ifndef POTLUCK_OBS_NO_TRACE
    EXPECT_EQ(lookup_ns->count, 1u);
    EXPECT_EQ(put_ns->count, 1u);
    EXPECT_GT(lookup_ns->max, 0u);
#endif
}

TEST(ServiceMetrics, TracingDisabledRecordsNoHistograms)
{
    PotluckConfig cfg = quietConfig();
    cfg.enable_tracing = false;
    PotluckService service(cfg);
    KeyTypeConfig key_cfg;
    key_cfg.name = "vec";
    key_cfg.index_kind = IndexKind::Linear;
    service.registerKeyType("f", key_cfg);
    service.put("f", "vec", FeatureVector({1.0f}), encodeInt(1));
    service.lookup("a", "f", "vec", FeatureVector({1.0f}));

    obs::RegistrySnapshot snap = service.metrics().snapshot();
    EXPECT_EQ(snap.findHistogram("lookup.total_ns"), nullptr);
    EXPECT_EQ(snap.findHistogram("put.total_ns"), nullptr);
    // Counters stay on regardless.
    EXPECT_EQ(snap.counterValue("service.lookups"), 1u);
    EXPECT_EQ(service.stats().hits, 1u);
}

TEST(ServiceStatsView, HitRateExcludesDropoutsFromDenominator)
{
    // Synthetic snapshot: the denominator contract in one place.
    ServiceStats stats;
    stats.lookups = 100;
    stats.hits = 40;
    stats.misses = 40;
    stats.dropouts = 20;
    EXPECT_EQ(stats.answered(), 80u);
    // hitRate = hits / (hits + misses): dropouts are NOT misses.
    EXPECT_DOUBLE_EQ(stats.hitRate(), 0.5);
    // effectiveHitRate includes them: hits / lookups.
    EXPECT_DOUBLE_EQ(stats.effectiveHitRate(), 0.4);
    EXPECT_DOUBLE_EQ(stats.dropoutRate(), 0.2);

    ServiceStats empty;
    EXPECT_DOUBLE_EQ(empty.hitRate(), 0.0);
    EXPECT_DOUBLE_EQ(empty.effectiveHitRate(), 0.0);
}

TEST(ServiceStatsView, EveryLookupIsHitMissOrDropout)
{
    PotluckConfig cfg;
    cfg.dropout_probability = 0.5; // plenty of dropouts
    cfg.warmup_entries = 0;
    cfg.seed = 9; // deterministic dropout sequence
    PotluckService service(cfg);
    KeyTypeConfig key_cfg;
    key_cfg.name = "vec";
    key_cfg.index_kind = IndexKind::Linear;
    service.registerKeyType("f", key_cfg);
    service.put("f", "vec", FeatureVector({1.0f}), encodeInt(1));
    for (int i = 0; i < 200; ++i)
        service.lookup("a", "f", "vec", FeatureVector({1.0f}));

    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.lookups, 200u);
    EXPECT_EQ(stats.hits + stats.misses + stats.dropouts, stats.lookups);
    EXPECT_GT(stats.dropouts, 0u);
    EXPECT_GT(stats.hits, 0u);
    // Dropouts must not drag hitRate down: every answered lookup of an
    // identical key is a hit, so the rate over answered lookups is 1.
    EXPECT_DOUBLE_EQ(stats.hitRate(), 1.0);
    EXPECT_LT(stats.effectiveHitRate(), 1.0);
}

} // namespace
} // namespace potluck
