/**
 * @file
 * perfbench_gen: the benchmark's load generator. It builds a workload's
 * op lists from the seed, drives potluckd (spawned as a child) over its
 * socket in a closed loop, checks the outputs and prints every metric by
 * name with its unit. The last line of stdout is one JSON object:
 * end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
 * perfbench/run.py builds and invokes it.
 *
 * Usage:
 *   perfbench_gen --workload recog|hot_small|churn_tiered --seed N
 *                 --seconds S --trace 0|1 --daemon PATH --run-dir DIR
 *                 [--scale full|tiny] [--spans PATH]
 *
 * --run-dir must be a fresh, short relative path: it holds the daemon's
 * Unix socket. --spans writes the traced run's spans as TSV.
 */
#include <csignal>
#include <cmath>
#include <iomanip>
#include <iostream>
#include <map>
#include <unistd.h>

#include "daemon.h"
#include "ops.h"
#include "replay.h"
#include "socket_run.h"
#include "stats.h"

using namespace perfbench;

namespace {

/**
 * hit_accuracy on recog must reach this. Seeds 1-5 read 0.993-0.998 at
 * full scale and 0.93-0.96 at the tiny smoke scale.
 */
constexpr double kRecogAccuracyFloor = 0.9;

struct Args
{
    Workload workload = Workload::Recog;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string daemon;
    std::string run_dir;
    std::string spans;
    Scale scale = Scale::Full;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench_gen: " << why << "\n"
              << "usage: perfbench_gen --workload recog|hot_small|"
                 "churn_tiered --seed N --seconds S --trace 0|1\n"
                 "                     --daemon PATH --run-dir DIR "
                 "[--scale full|tiny] [--spans PATH]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        const std::string v = argv[++i];
        try {
            if (arg == "--workload") {
                if (!parseWorkload(v, a.workload))
                    usage("unknown workload " + v);
            } else if (arg == "--seed") {
                a.seed = std::stoull(v);
            } else if (arg == "--seconds") {
                a.seconds = std::stod(v);
            } else if (arg == "--trace") {
                a.trace = v == "1";
            } else if (arg == "--daemon") {
                a.daemon = v;
            } else if (arg == "--run-dir") {
                a.run_dir = v;
            } else if (arg == "--spans") {
                a.spans = v;
            } else if (arg == "--scale") {
                if (v != "full" && v != "tiny")
                    usage("unknown scale " + v);
                a.scale = v == "tiny" ? Scale::Tiny : Scale::Full;
            } else {
                usage("unknown flag " + arg);
            }
        } catch (const std::logic_error &) {
            usage("bad value for " + arg + ": " + v);
        }
    }
    if (a.daemon.empty() || a.run_dir.empty() || a.seconds <= 0.0)
        usage("--daemon, --run-dir and --seconds > 0 are required");
    return a;
}

void
onSignal(int sig)
{
    reapDaemonFromSignal();
    ::_exit(128 + sig);
}

/** Metrics in print order plus the names of the checks that failed. */
class Report
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        if (!std::isfinite(value)) {
            fail("finite:" + name);
            value = 0.0;
        }
        metrics_.push_back({name, value, unit});
    }

    /** A median or tail percentile, the run's quiet-quartile value; a
     * missing one (too few samples) reads 0 and fails the check named
     * after the metric. */
    void
    addPercentile(const std::string &name, const std::vector<double> &v,
                  double p)
    {
        std::optional<double> q = quietPercentile(v, p);
        if (!q)
            fail("samples:" + name);
        add(name, q.value_or(0.0), "us");
    }

    void
    check(bool ok, const std::string &name)
    {
        if (!ok)
            fail(name);
    }

    void
    fail(const std::string &name)
    {
        failed_.push_back(name);
    }

    bool correct() const { return failed_.empty(); }
    const std::vector<std::string> &failed() const { return failed_; }

    double
    value(const std::string &name) const
    {
        for (const auto &m : metrics_) {
            if (m.name == name)
                return m.value;
        }
        return 0.0;
    }

    void
    print(std::ostream &out) const
    {
        for (const auto &m : metrics_) {
            out << "  " << std::left << std::setw(36) << m.name << std::right
                << std::setw(16) << std::setprecision(6) << m.value << " "
                << m.unit << "\n";
        }
    }

    void
    printJson(std::ostream &out, uint64_t attempted, uint64_t failed,
              bool correct) const
    {
        out << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
        for (size_t i = 0; i < metrics_.size(); ++i) {
            const auto &m = metrics_[i];
            out << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
                << std::setprecision(17) << m.value << ", \"unit\": \""
                << m.unit << "\"}";
        }
        out << "}}" << std::endl;
    }

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> metrics_;
    std::vector<std::string> failed_;
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** The windows of one run's set-ups as one: latencies, counts, spans
 * and window time add up; RSS is the median window's. */
WindowResult
pool(const std::vector<WindowResult> &windows)
{
    WindowResult p;
    std::vector<double> rss;
    for (const WindowResult &w : windows) {
        p.lookup_us.insert(p.lookup_us.end(), w.lookup_us.begin(),
                           w.lookup_us.end());
        p.put_us.insert(p.put_us.end(), w.put_us.begin(), w.put_us.end());
        p.lookups += w.lookups;
        p.hits += w.hits;
        p.correct_hits += w.correct_hits;
        p.puts += w.puts;
        p.failed += w.failed;
        p.lookup_cost_us += w.lookup_cost_us;
        p.hit_cost_us += w.hit_cost_us;
        p.elapsed_s += w.elapsed_s;
        p.block_rates.insert(p.block_rates.end(), w.block_rates.begin(),
                             w.block_rates.end());
        rss.push_back(w.rss_mb);
        p.delta = p.delta + w.delta;
        p.client_retries += w.client_retries;
        p.spans.insert(p.spans.end(), w.spans.begin(), w.spans.end());
    }
    p.rss_mb = median(rss).value_or(0.0);
    return p;
}

/** The output checks of one socket window. */
void
checkWindow(const OpList &ops, const WindowResult &w, Report &r)
{
    // Exact keys in a Hash slot: a hit must return what was put.
    if (ops.index_kind == potluck::IndexKind::Hash)
        r.check(w.correct_hits == w.hits, "hit_value_matches_put");
    r.check(w.delta.lookups ==
                w.delta.hits + w.delta.misses + w.delta.dropouts,
            "lookups_eq_hits_misses_dropouts");
    // The metrics fetch that closes the window counts itself.
    r.check(w.delta.requests == w.requests() + 1,
            "ipc_requests_eq_requests_sent");
}

/** The end-to-end metrics of a run's windows, and their output checks. */
Report
endToEnd(const OpList &ops, const std::vector<WindowResult> &windows,
         double setup_s)
{
    const WindowResult w = pool(windows);
    Report r;
    r.addPercentile("lookup_p50_us", w.lookup_us, 50);
    r.addPercentile("lookup_p95_us", w.lookup_us, 95);
    r.addPercentile("put_p50_us", w.put_us, 50);
    r.addPercentile("put_p95_us", w.put_us, 95);
    // The quiet quartile of the blocks' rates, times the threads that
    // send them side by side.
    r.add("ops_per_s",
          static_cast<double>(ops.threads) *
              quantile(w.block_rates, 0.75).value_or(0.0),
          "1/s");
    r.add("hit_rate", ratio(static_cast<double>(w.hits), w.lookups),
          "ratio");
    const double accuracy =
        ratio(static_cast<double>(w.correct_hits), w.hits);
    r.add("hit_accuracy", accuracy, "ratio");
    r.add("compute_saved_frac", ratio(w.hit_cost_us, w.lookup_cost_us),
          "ratio");
    r.add("ok_frac",
          1.0 - ratio(static_cast<double>(w.failed), w.requests()), "ratio");
    r.add("setup_s", setup_s, "s");
    r.add("daemon_rss_mb", w.rss_mb, "MiB");

    if (ops.index_kind != potluck::IndexKind::Hash)
        r.check(accuracy >= kRecogAccuracyFloor, "recog_accuracy_floor");
    for (const WindowResult &window : windows)
        checkWindow(ops, window, r);
    return r;
}

std::vector<double>
durations(const std::vector<SpanList> &lists, SpanName name)
{
    std::vector<double> out;
    for (const SpanList &list : lists) {
        for (const Span &s : list) {
            if (s.name == name)
                out.push_back(s.us());
        }
    }
    return out;
}

double
med(const std::vector<double> &v)
{
    return median(v).value_or(0.0);
}

double
mean(const std::vector<double> &v)
{
    double sum = 0.0;
    for (double x : v)
        sum += x;
    return ratio(sum, static_cast<double>(v.size()));
}

/** Mean client span minus the mean span the daemon itself recorded
 * around the same service call in the same window. */
double
ipcSelf(const WindowResult &socket, SpanName client_name, uint64_t service_ns,
        uint64_t service_spans)
{
    return mean(durations(socket.spans, client_name)) -
           ratio(static_cast<double>(service_ns) / 1e3,
                 static_cast<double>(service_spans));
}

/**
 * Mean self time of PotluckService::lookup: each lookup span minus the
 * cold-tier calls inside it, less the service's own index-probe spans.
 * The in-place probe is read from the service rather than taken from the
 * mirror: two identical kd-tree indexes probe up to ~10% apart from
 * memory placement alone, more than the service's own work on recog.
 */
double
serviceLookupSelf(const InProcessResult &p2)
{
    std::map<uint64_t, std::vector<Interval>> children;
    for (const SpanList &list : p2.spans) {
        for (const Span &s : list) {
            if (s.parent == SpanName::ServiceLookup &&
                s.name != SpanName::IndexNearest)
                children[s.op].push_back({s.start_ns, s.end_ns});
        }
    }
    double self_ns = 0.0;
    size_t lookups = 0;
    for (const SpanList &list : p2.spans) {
        for (const Span &s : list) {
            if (s.name != SpanName::ServiceLookup)
                continue;
            auto it = children.find(s.op);
            self_ns += static_cast<double>(selfTimeNs(
                {s.start_ns, s.end_ns},
                it == children.end() ? std::vector<Interval>{} : it->second));
            ++lookups;
        }
    }
    return ratio(self_ns - static_cast<double>(p2.index_probe_ns),
                 static_cast<double>(lookups)) /
           1e3;
}

Report
perLayer(const OpList &ops, const std::vector<WindowResult> &windows,
         const InProcessResult &p2, const LayerReplays &p3)
{
    const WindowResult socket = pool(windows);
    Report r;
    const DaemonCounters &d = socket.delta;
    r.add("ipc.lookup_self_us",
          ipcSelf(socket, SpanName::ClientLookup, d.lookup_ns,
                  d.lookup_spans),
          "us");
    r.add("ipc.put_self_us",
          ipcSelf(socket, SpanName::ClientPut, d.put_ns, d.put_spans), "us");
    r.add("ipc.codec_us", med(p3.codec_us), "us");
    r.add("ipc.request_bytes", p3.request_bytes, "bytes");
    r.add("ipc.reply_bytes", p3.reply_bytes, "bytes");
    r.add("ipc.retries", static_cast<double>(socket.client_retries),
          "count");
    r.add("core.service.lookup_us",
          med(durations(p2.spans, SpanName::ServiceLookup)), "us");
    r.add("core.service.put_us",
          med(durations(p2.spans, SpanName::ServicePut)), "us");
    r.add("core.service.lookup_self_us", serviceLookupSelf(p2), "us");
    r.add("core.service.hits", static_cast<double>(d.hits), "count");
    r.add("core.service.misses", static_cast<double>(d.misses), "count");
    r.add("core.service.dropouts", static_cast<double>(d.dropouts), "count");
    r.add("core.service.puts", static_cast<double>(d.puts), "count");
    r.add("core.service.evictions", static_cast<double>(d.evictions),
          "count");
    r.add("core.index.nearest_us", med(p2.nearest_us), "us");
    r.add("core.index.nearest_after_insert_us",
          med(p2.nearest_after_insert_us), "us");
    r.add("core.index.entries", static_cast<double>(p2.index_entries),
          "count");
    r.add("features.distance_ns", med(p3.distance_ns), "ns");
    r.add("core.eviction.select_us", med(p3.select_us), "us");
    // The cold-tier spans of the workload's own store; workloads without
    // one read 0 here.
    const std::vector<double> hits =
        durations(p2.spans, SpanName::StorePromoteHit);
    const std::vector<double> misses =
        durations(p2.spans, SpanName::StorePromoteMiss);
    r.add("store.admit_us", med(durations(p2.spans, SpanName::StoreAdmit)),
          "us");
    r.add("store.demote_us", med(durations(p2.spans, SpanName::StoreDemote)),
          "us");
    r.add("store.promote_hit_us", med(hits), "us");
    r.add("store.promote_miss_us", med(misses), "us");
    r.add("store.promote_ratio",
          ratio(static_cast<double>(hits.size()),
                static_cast<double>(hits.size() + misses.size())),
          "ratio");
    r.add("store.bytes_per_user_byte", p2.store_bytes_per_user_byte,
          "ratio");
    r.add("store.compactions", static_cast<double>(d.compactions), "count");
    r.add("store.index_rewrites", static_cast<double>(d.index_rewrites),
          "count");

    // With one generator thread the seed fixes every outcome, so the
    // in-process replay must see exactly what the daemon answered.
    if (ops.threads == 1)
        r.check(p2.outcomes == windows.front().outcomes,
                "replay_matches_socket_run");
    r.check(p2.index_entries == p2.entries, "mirror_index_matches_service");
    for (const char *self : {"ipc.lookup_self_us", "ipc.put_self_us",
                             "core.service.lookup_self_us"})
        r.check(r.value(self) >= 0.0, std::string("nonnegative:") + self);
    return r;
}

void
printChecks(const char *what, const Report &r)
{
    std::cout << what << " checks: ";
    if (r.correct()) {
        std::cout << "ok\n";
        return;
    }
    for (const std::string &name : r.failed())
        std::cout << "FAILED " << name << "; ";
    std::cout << "\n";
}

void
printWindows(const char *what, const std::vector<WindowResult> &windows)
{
    for (const WindowResult &w : windows) {
        std::cout << what << " window: " << w.lookups << " lookups (p50 "
                  << std::setprecision(4) << med(w.lookup_us) << " us), "
                  << w.puts << " puts, " << w.hits << " hits in "
                  << w.elapsed_s
                  << " s; daemon deltas lookups=" << w.delta.lookups
                  << " hits=" << w.delta.hits << " misses=" << w.delta.misses
                  << " dropouts=" << w.delta.dropouts
                  << " puts=" << w.delta.puts
                  << " evictions=" << w.delta.evictions
                  << " ipc.requests=" << w.delta.requests << "\n";
    }
}

/**
 * Set the daemon up once per op list, each time in a fresh directory,
 * and run that list's window on it: one draw of the workload, or one
 * placement of the daemon's threads and memory, is not a sample of the
 * workload on the machine. Returns the set-up times.
 */
std::vector<double>
socketWindows(const Args &a, const std::vector<OpList> &runs, bool traced,
              std::vector<WindowResult> &windows)
{
    std::vector<double> setups;
    for (size_t k = 0; k < runs.size(); ++k) {
        SocketRun run(runs[k], a.daemon,
                      a.run_dir + (traced ? "/t" : "/u") + std::to_string(k));
        setups.push_back(run.setUp());
        windows.push_back(run.runWindow(traced, windows.size()));
        if (windows.back().failed)
            std::cerr << run.daemonLogTail();
    }
    return setups;
}

int
untracedRun(const Args &a, const std::vector<OpList> &runs)
{
    const OpList &ops = runs.front();
    std::vector<WindowResult> windows;
    const std::vector<double> setups = socketWindows(a, runs, false, windows);
    std::cout << "setup_s runs:";
    for (double s : setups)
        std::cout << " " << std::setprecision(4) << s;
    std::cout << "\n";
    printWindows("untraced", windows);
    Report r = endToEnd(ops, windows, med(setups));
    r.print(std::cout);
    printChecks("output", r);
    const WindowResult p = pool(windows);
    r.printJson(std::cout, p.requests(), p.failed, r.correct());
    return r.correct() ? 0 : 1;
}

int
tracedRun(const Args &a, const std::vector<OpList> &runs)
{
    std::vector<WindowResult> plain;
    const double plain_setup = med(socketWindows(a, runs, false, plain));
    // Phase 1: the socket run again, with a span around each call.
    std::vector<WindowResult> traced;
    const double traced_setup = med(socketWindows(a, runs, true, traced));
    // Phases 2 and 3 replay the first set-up's op list.
    const OpList &ops = runs.front();
    InProcessResult p2 = runInProcess(ops, a.run_dir + "/p2");
    LayerReplays p3 = runLayerReplays(ops, p2);

    printWindows("untraced", plain);
    printWindows("phase-1", traced);
    Report e_plain = endToEnd(ops, plain, plain_setup);
    Report e_traced = endToEnd(ops, traced, traced_setup);
    std::cout << "tracing overhead (phase 1 vs untraced):\n";
    for (const char *name :
         {"lookup_p50_us", "lookup_p95_us", "put_p50_us", "put_p95_us",
          "ops_per_s", "hit_rate", "hit_accuracy", "compute_saved_frac",
          "ok_frac", "setup_s", "daemon_rss_mb"}) {
        const double u = e_plain.value(name);
        const double t = e_traced.value(name);
        std::cout << "  " << std::left << std::setw(22) << name << std::right
                  << " untraced " << std::setw(12) << std::setprecision(6)
                  << u << "  traced " << std::setw(12) << t << "  diff "
                  << std::setw(8) << std::setprecision(3)
                  << 100.0 * ratio(t - u, u) << " %\n";
    }
    // Throughput is the overhead headline: a span costs time per op.
    std::cout << "trace_overhead_pct "
              << 100.0 * (ratio(e_plain.value("ops_per_s"),
                                e_traced.value("ops_per_s")) -
                          1.0)
              << " (" << workloadName(ops.workload) << ")\n";

    Report layers = perLayer(ops, traced, p2, p3);
    std::cout << "per-layer metrics:\n";
    layers.print(std::cout);
    printChecks("untraced output", e_plain);
    printChecks("phase-1 output", e_traced);
    printChecks("trace", layers);
    if (!a.spans.empty()) {
        std::vector<const SpanList *> lists;
        for (const WindowResult &w : traced)
            for (const SpanList &l : w.spans)
                lists.push_back(&l);
        for (const SpanList &l : p2.spans)
            lists.push_back(&l);
        if (!writeSpansTsv(a.spans, lists))
            layers.fail("spans_written");
    }
    const bool correct =
        e_plain.correct() && e_traced.correct() && layers.correct();
    const WindowResult p = pool(traced);
    layers.printJson(std::cout, p.requests(), p.failed, correct);
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    try {
        const std::vector<OpList> runs =
            buildOps(a.workload, a.seed, a.seconds, a.scale);
        const OpList &ops = runs.front();
        std::cout << "perfbench " << workloadName(a.workload)
                  << " seed=" << a.seed << " seconds=" << a.seconds
                  << " trace=" << a.trace << ": " << runs.size()
                  << " set-ups, each " << ops.keys.size() << " keys, "
                  << ops.preload.size() << " preload puts, "
                  << ops.windowOps() << " window ops\n";
        return a.trace ? tracedRun(a, runs) : untracedRun(a, runs);
    } catch (const std::exception &e) {
        std::cerr << "perfbench_gen: " << e.what() << std::endl;
        return 1;
    }
}
