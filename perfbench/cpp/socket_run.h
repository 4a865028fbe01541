/**
 * @file
 * One socket run of a workload: potluckd spawned from the build tree as
 * a child, its apps connected and registered, the preload put, then a
 * closed-loop window in which every app waits for its reply before it
 * sends the next request. The untraced end-to-end run and phase 1 of
 * the traced run are both socket runs; the traced one also records a
 * span around every PotluckClient call.
 */
#ifndef PERFBENCH_SOCKET_RUN_H
#define PERFBENCH_SOCKET_RUN_H

#include <memory>
#include <string>
#include <vector>

#include "daemon.h"
#include "ops.h"
#include "spans.h"

namespace potluck {
class PotluckClient;
} // namespace potluck

namespace perfbench {

/** What a window lookup returned, compared across the traced phases. */
enum class Outcome : uint8_t
{
    Miss,
    Hit,
    Dropped,
};

/** The daemon counters the benchmark reads around a window. */
struct DaemonCounters
{
    uint64_t lookups = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t dropouts = 0;
    uint64_t puts = 0;
    uint64_t evictions = 0;
    uint64_t requests = 0;       ///< ipc.requests
    uint64_t compactions = 0;    ///< store.compactions
    uint64_t index_rewrites = 0; ///< store.index_rewrites
    /** The daemon's own service spans (lookup.total_ns, put.total_ns):
     * sums in ns and counts. */
    uint64_t lookup_ns = 0;
    uint64_t lookup_spans = 0;
    uint64_t put_ns = 0;
    uint64_t put_spans = 0;
};

DaemonCounters operator+(const DaemonCounters &a, const DaemonCounters &b);
DaemonCounters operator-(const DaemonCounters &a, const DaemonCounters &b);

/** Everything one window measured, per generator thread where it
 * matters. */
struct WindowResult
{
    std::vector<double> lookup_us; ///< client-side latency of each lookup
    std::vector<double> put_us;    ///< client-side latency of each put
    uint64_t lookups = 0;
    uint64_t hits = 0;
    uint64_t correct_hits = 0; ///< hits whose value is the ground truth
    uint64_t puts = 0;
    uint64_t failed = 0; ///< requests that threw or degraded
    double lookup_cost_us = 0.0; ///< modelled cost of every lookup's item
    double hit_cost_us = 0.0;    ///< ... of the lookups that hit
    double elapsed_s = 0.0;
    /** Requests per second of each block of one thread's ops. */
    std::vector<double> block_rates;
    double rss_mb = 0.0;
    DaemonCounters delta;        ///< daemon counters, after - before
    uint64_t client_retries = 0; ///< ipc.retry + ipc.reconnect
    /** Each thread's lookup outcomes, in op order. */
    std::vector<std::vector<Outcome>> outcomes;
    /** Each thread's client spans (traced runs only). */
    std::vector<SpanList> spans;

    uint64_t requests() const { return lookups + puts; }
};

class SocketRun
{
  public:
    /**
     * @param ops     this set-up's op list
     * @param daemon  path of the potluckd binary
     * @param dir     fresh directory for this run's socket, trace dump,
     *                store and daemon log; removed on destruction unless
     *                its socket was already being served
     */
    SocketRun(const OpList &ops, std::string daemon, std::string dir);
    ~SocketRun();

    SocketRun(const SocketRun &) = delete;
    SocketRun &operator=(const SocketRun &) = delete;

    /** Spawn the daemon, connect and register every app, put the
     * preload and read the counters. Returns the seconds from spawn
     * until the window can open. Throws FatalError on failure. */
    double setUp();

    /** Run the closed-loop window. `replica` numbers this set-up within
     * the run (for span op ids). */
    WindowResult runWindow(bool traced, size_t replica);

    /** The daemon's log, for error reports. */
    std::string daemonLogTail() const;

  private:
    DaemonCounters readCounters();

    const OpList &ops_;
    std::string daemon_path_;
    std::string dir_;
    std::string socket_;
    bool own_dir_ = false; ///< dir_ was set up by this run
    std::unique_ptr<DaemonProcess> daemon_;
    /** One client per app, in OpList::apps order. */
    std::vector<std::unique_ptr<potluck::PotluckClient>> clients_;
    DaemonCounters before_;
};

} // namespace perfbench

#endif // PERFBENCH_SOCKET_RUN_H
