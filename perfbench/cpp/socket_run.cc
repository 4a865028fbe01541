#include "socket_run.h"

#include <filesystem>
#include <fstream>
#include <latch>
#include <thread>

#include "ipc/client.h"
#include "stats.h"
#include "util/logging.h"

namespace perfbench {

using namespace potluck;

namespace {

/** Sum of a client's own counters. */
uint64_t
clientCount(const PotluckClient &client,
            std::initializer_list<const char *> names)
{
    obs::RegistrySnapshot snap = client.metrics().snapshot();
    uint64_t n = 0;
    for (const char *name : names)
        n += snap.counterValue(name);
    return n;
}

/** What one generator thread saw in the window. */
struct ThreadTally
{
    std::vector<double> lookup_us;
    std::vector<double> put_us;
    uint64_t hits = 0;
    uint64_t correct_hits = 0;
    uint64_t failed = 0;
    double lookup_cost_us = 0.0;
    double hit_cost_us = 0.0;
    uint64_t end_ns = 0;
    uint64_t requests = 0;
    std::vector<BlockMark> blocks;
    std::vector<Outcome> outcomes;
    SpanList spans;
};

} // namespace

DaemonCounters
operator+(const DaemonCounters &a, const DaemonCounters &b)
{
    DaemonCounters d;
    d.lookups = a.lookups + b.lookups;
    d.hits = a.hits + b.hits;
    d.misses = a.misses + b.misses;
    d.dropouts = a.dropouts + b.dropouts;
    d.puts = a.puts + b.puts;
    d.evictions = a.evictions + b.evictions;
    d.requests = a.requests + b.requests;
    d.compactions = a.compactions + b.compactions;
    d.index_rewrites = a.index_rewrites + b.index_rewrites;
    d.lookup_ns = a.lookup_ns + b.lookup_ns;
    d.lookup_spans = a.lookup_spans + b.lookup_spans;
    d.put_ns = a.put_ns + b.put_ns;
    d.put_spans = a.put_spans + b.put_spans;
    return d;
}

DaemonCounters
operator-(const DaemonCounters &a, const DaemonCounters &b)
{
    DaemonCounters d;
    d.lookups = a.lookups - b.lookups;
    d.hits = a.hits - b.hits;
    d.misses = a.misses - b.misses;
    d.dropouts = a.dropouts - b.dropouts;
    d.puts = a.puts - b.puts;
    d.evictions = a.evictions - b.evictions;
    d.requests = a.requests - b.requests;
    d.compactions = a.compactions - b.compactions;
    d.index_rewrites = a.index_rewrites - b.index_rewrites;
    d.lookup_ns = a.lookup_ns - b.lookup_ns;
    d.lookup_spans = a.lookup_spans - b.lookup_spans;
    d.put_ns = a.put_ns - b.put_ns;
    d.put_spans = a.put_spans - b.put_spans;
    return d;
}

SocketRun::SocketRun(const OpList &ops, std::string daemon, std::string dir)
    : ops_(ops), daemon_path_(std::move(daemon)), dir_(std::move(dir)),
      socket_(dir_ + "/d.sock")
{}

SocketRun::~SocketRun()
{
    clients_.clear();
    if (daemon_)
        daemon_->stop();
    std::error_code ec;
    if (own_dir_)
        std::filesystem::remove_all(dir_, ec);
}

double
SocketRun::setUp()
{
    const uint64_t t0 = nowNs();
    // Another daemon's socket (and directory) is left alone.
    if (socketServed(socket_))
        POTLUCK_FATAL("socket " << socket_ << " is already being served");
    std::filesystem::create_directories(dir_);
    own_dir_ = true;

    std::vector<std::string> args = {"--socket", socket_, "--trace-dump",
                                     dir_ + "/trace.json"};
    if (ops_.max_entries) {
        args.push_back("--max-entries");
        args.push_back(std::to_string(ops_.max_entries));
    }
    if (ops_.store) {
        args.push_back("--store-dir");
        args.push_back(dir_ + "/store");
    }
    daemon_ = std::make_unique<DaemonProcess>(daemon_path_, args,
                                              dir_ + "/potluckd.log");
    if (!daemon_->waitForSocket(socket_, 30.0))
        POTLUCK_FATAL("potluckd did not serve " << socket_);

    // Every app registers before the preload: registration resets the
    // similarity thresholds the preload trains.
    TransportOptions transport;
    transport.try_shm = ops_.shm;
    for (const std::string &app : ops_.apps) {
        clients_.push_back(std::make_unique<PotluckClient>(
            app, socket_, RetryPolicy{}, obs::TraceConfig{}, transport));
    }
    for (auto &client : clients_)
        client->registerFunction(ops_.function, ops_.key_type, ops_.metric,
                                 ops_.index_kind);
    for (const Op &op : ops_.preload) {
        clients_[op.app]->put(ops_.function, ops_.key_type,
                              ops_.keys[op.item], ops_.values[op.item],
                              std::nullopt, ops_.cost_us[op.item]);
    }
    for (auto &client : clients_) {
        if (client->degraded() ||
            clientCount(*client, {"ipc.degraded_puts"}) != 0)
            POTLUCK_FATAL("set-up degraded: the daemon stopped answering");
    }
    before_ = readCounters();
    return static_cast<double>(nowNs() - t0) / 1e9;
}

DaemonCounters
SocketRun::readCounters()
{
    obs::RegistrySnapshot s = clients_.front()->fetchMetrics().snapshot;
    DaemonCounters c;
    c.lookups = s.counterValue("service.lookups");
    c.hits = s.counterValue("service.hits");
    c.misses = s.counterValue("service.misses");
    c.dropouts = s.counterValue("service.dropouts");
    c.puts = s.counterValue("service.puts");
    c.evictions = s.counterValue("service.evictions");
    c.requests = s.counterValue("ipc.requests");
    c.compactions = s.counterValue("store.compactions");
    c.index_rewrites = s.counterValue("store.index_rewrites");
    if (const obs::HistogramSnapshot *h = s.findHistogram("lookup.total_ns")) {
        c.lookup_ns = h->sum;
        c.lookup_spans = h->count;
    }
    if (const obs::HistogramSnapshot *h = s.findHistogram("put.total_ns")) {
        c.put_ns = h->sum;
        c.put_spans = h->count;
    }
    return c;
}

WindowResult
SocketRun::runWindow(bool traced, size_t replica)
{
    const size_t threads = ops_.window.size();
    std::vector<ThreadTally> tally(threads);
    std::vector<uint64_t> degraded_before, retries_before;
    for (auto &client : clients_) {
        degraded_before.push_back(clientCount(
            *client, {"ipc.degraded_lookups", "ipc.degraded_puts"}));
        retries_before.push_back(
            clientCount(*client, {"ipc.retry", "ipc.reconnect"}));
    }

    // Generator threads read start_ns only after the latch, which opens
    // once this thread (thread 0) has set it.
    std::latch ready(static_cast<std::ptrdiff_t>(threads));
    uint64_t start_ns = 0;
    auto drive = [&](size_t t) {
        const std::vector<Op> &list = ops_.window[t];
        ThreadTally &me = tally[t];
        me.lookup_us.reserve(list.size());
        me.outcomes.reserve(list.size());
        if (traced)
            me.spans.reserve(2 * list.size());
        ready.arrive_and_wait();
        for (size_t i = 0; i < list.size(); ++i) {
            const uint64_t t0 = nowNs();
            if (i % kBlockSamples == 0)
                me.blocks.push_back({t0, me.requests});
            const Op &op = list[i];
            PotluckClient &client = *clients_[op.app];
            const FeatureVector &key = ops_.keys[op.item];
            LookupResult r;
            try {
                r = client.lookup(ops_.function, ops_.key_type, key);
            } catch (const std::exception &) {
                ++me.failed;
            }
            const uint64_t t1 = nowNs();
            ++me.requests;
            me.lookup_us.push_back(static_cast<double>(t1 - t0) / 1e3);
            if (traced)
                me.spans.push_back({opId(replica, t, i), SpanName::ClientLookup,
                                    SpanName::None, t0, t1});
            me.lookup_cost_us += ops_.cost_us[op.item];
            if (r.hit) {
                ++me.hits;
                me.hit_cost_us += ops_.cost_us[op.item];
                if (valueEquals(r.value, ops_.values[op.item]))
                    ++me.correct_hits;
                me.outcomes.push_back(Outcome::Hit);
                continue;
            }
            me.outcomes.push_back(r.dropped ? Outcome::Dropped
                                            : Outcome::Miss);
            // The app computed the result: it puts what it got.
            const uint64_t t2 = nowNs();
            try {
                client.put(ops_.function, ops_.key_type, key,
                           ops_.values[op.item], std::nullopt,
                           ops_.cost_us[op.item]);
            } catch (const std::exception &) {
                ++me.failed;
            }
            const uint64_t t3 = nowNs();
            ++me.requests;
            me.put_us.push_back(static_cast<double>(t3 - t2) / 1e3);
            if (traced)
                me.spans.push_back({opId(replica, t, i), SpanName::ClientPut,
                                    SpanName::None, t2, t3});
        }
        me.end_ns = nowNs();
    };

    std::vector<std::thread> workers;
    for (size_t t = 1; t < threads; ++t)
        workers.emplace_back(drive, t);
    start_ns = nowNs();
    drive(0);
    for (std::thread &w : workers)
        w.join();

    WindowResult out;
    out.rss_mb = daemon_->rssMb();
    uint64_t end_ns = start_ns;
    for (ThreadTally &me : tally) {
        out.lookups += me.lookup_us.size();
        out.puts += me.put_us.size();
        out.hits += me.hits;
        out.correct_hits += me.correct_hits;
        out.failed += me.failed;
        out.lookup_cost_us += me.lookup_cost_us;
        out.hit_cost_us += me.hit_cost_us;
        end_ns = std::max(end_ns, me.end_ns);
        const std::vector<double> rates = blockRates(
            me.blocks, me.end_ns, me.requests, me.lookup_us.size());
        out.block_rates.insert(out.block_rates.end(), rates.begin(),
                               rates.end());
        out.lookup_us.insert(out.lookup_us.end(), me.lookup_us.begin(),
                             me.lookup_us.end());
        out.put_us.insert(out.put_us.end(), me.put_us.begin(),
                          me.put_us.end());
        out.outcomes.push_back(std::move(me.outcomes));
        out.spans.push_back(std::move(me.spans));
    }
    out.elapsed_s = static_cast<double>(end_ns - start_ns) / 1e9;
    for (size_t i = 0; i < clients_.size(); ++i) {
        out.failed += clientCount(*clients_[i], {"ipc.degraded_lookups",
                                                 "ipc.degraded_puts"}) -
                      degraded_before[i];
        out.client_retries +=
            clientCount(*clients_[i], {"ipc.retry", "ipc.reconnect"}) -
            retries_before[i];
    }
    out.delta = readCounters() - before_;
    return out;
}

std::string
SocketRun::daemonLogTail() const
{
    std::ifstream in(dir_ + "/potluckd.log");
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    std::string tail;
    for (size_t i = lines.size() > 20 ? lines.size() - 20 : 0;
         i < lines.size(); ++i)
        tail += lines[i] + "\n";
    return tail;
}

} // namespace perfbench
