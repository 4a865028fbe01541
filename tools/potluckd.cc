/**
 * @file
 * potluckd: the Potluck deduplication service as a standalone daemon —
 * what the paper's Android background service becomes on a desktop.
 * Serves the Request/Reply protocol on a Unix socket, runs the expiry
 * manager thread, and prints periodic stats until interrupted.
 *
 * Usage:
 *   potluckd [--socket PATH] [--max-entries N] [--max-mb N]
 *            [--dropout P] [--ttl-sec N] [--eviction importance|lru|random]
 *            [--reputation] [--stats-sec N] [--stats-format plain|json|prom]
 *            [--no-tracing] [--snapshot PATH]
 *            [--log-level debug|info|warn|error]
 *            [--no-recorder] [--trace-dump PATH]
 *            [--trace-slo-us N] [--trace-sample-prob P]
 *            [--peers SOCK,SOCK,...] [--replicas N] [--cluster-tag NAME]
 *            [--store-dir DIR] [--cold-capacity-mb N] [--scrub-rate-mb N]
 *            [--http-port N] [--http-bind ADDR]
 *            [--no-shm] [--shm-ring-kb N]
 *
 * Clients that ask for it are upgraded to the shared-memory ring
 * transport (DESIGN.md §14): the first frame on a fresh connection may
 * be a PSHM hello, in which case the daemon maps a memfd-backed ring
 * pair, passes the fd back over the socket, and the rest of the
 * conversation runs through shared memory with futex doorbells.
 * --no-shm refuses every hello (clients silently stay on the Unix
 * socket); --shm-ring-kb caps the per-connection ring size the daemon
 * will grant (default 1024 KiB, rounded down to a power of two).
 *
 * With --http-port, the daemon additionally serves an embedded HTTP
 * scrape endpoint (DESIGN.md §13): /metrics (Prometheus text format),
 * /healthz (200, or 503 while any peer link's circuit breaker is
 * open), /varz (JSON registry snapshot) and /hot (heat-sketch top-k
 * JSON). Binds 127.0.0.1 unless --http-bind says otherwise — metric
 * names leak app/function identifiers, so wider exposure is an
 * explicit operator decision.
 *
 * With --snapshot, the cache is restored from PATH at startup (if the
 * file exists) and saved back on clean shutdown — the "secondary flash
 * storage" layer of the paper's architecture figure.
 *
 * With --store-dir, the daemon additionally runs the tiered persistent
 * store (DESIGN.md §12): every put is written through to an mmap'd
 * segment log under DIR, capacity evictions demote their victim to
 * that cold tier instead of dropping it, and cold entries are promoted
 * back into RAM when a lookup lands within the similarity threshold.
 * After a crash — even SIGKILL — a restart with the same DIR comes
 * back warm. --cold-capacity-mb bounds the disk footprint (0 =
 * unbounded); --snapshot remains independent and optional. A
 * background scrub CRC-verifies cold frames at --scrub-rate-mb MB/s
 * (default 4; 0 disables) and quarantines bit-rotted records: they
 * stop being served, and when the daemon is clustered they are
 * re-fetched from replica peers (kPeerFetch) and re-appended clean.
 *
 * With --peers, the daemon federates with other potluckd instances
 * (DESIGN.md §11): every daemon in the mesh is started with the same
 * set of socket paths (minus its own), local lookup misses on slots a
 * peer owns are forwarded there, and local puts are replicated to
 * --replicas ring successors asynchronously. A dead peer degrades to
 * local-only service and is re-attached automatically when it returns.
 *
 * Every --stats-sec seconds the daemon dumps its metrics registry to
 * stdout: a one-line summary with hit rate and lookup p50/p99
 * (plain), or the full JSON / Prometheus export. --no-tracing turns
 * off the hot-path latency spans (counters stay on).
 *
 * Flight recorder: the daemon keeps a ring of sampled request traces
 * and decision events (see obs/trace.h). SIGUSR1 dumps it as Chrome
 * trace_event JSON to the --trace-dump path (default
 * <socket>.trace.json); the same dump is written automatically on
 * graceful shutdown and from the panic handler, so a crash leaves a
 * post-mortem trace behind. --trace-slo-us sets the always-keep
 * latency SLO, --trace-sample-prob the below-SLO sampling rate.
 */
#include <csignal>
#include <fstream>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/coordinator.h"
#include "core/cache_manager.h"
#include "core/persistence.h"
#include "core/potluck_service.h"
#include "ipc/fault_injection.h"
#include "ipc/server.h"
#include "obs/export.h"
#include "obs/heat.h"
#include "obs/http_exporter.h"
#include "store/tiered_store.h"
#include "obs/trace_export.h"
#include "util/fs_faults.h"
#include "util/logging.h"
#include "util/stats.h"
#include "util/stringutil.h"

#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <unistd.h>

using namespace potluck;

namespace {

volatile std::sig_atomic_t g_stop = 0;
volatile std::sig_atomic_t g_dump_trace = 0;

void
onSignal(int)
{
    g_stop = 1;
}

void
onDumpSignal(int)
{
    g_dump_trace = 1;
}

/** Flight-recorder dump targets (set once in main before signals). */
PotluckService *g_service = nullptr;
std::string g_trace_dump_path;

/**
 * Write the recorder snapshot as Chrome trace_event JSON. Called from
 * the main loop (SIGUSR1), the shutdown path, and the panic hook —
 * regular file IO, not async-signal-safe, which is fine because the
 * signal handler itself only sets a flag.
 */
bool
dumpTraceToFile()
{
    if (!g_service || g_trace_dump_path.empty())
        return false;
    obs::FlightRecorder *recorder = g_service->recorder();
    if (!recorder)
        return false;
    std::ofstream out(g_trace_dump_path, std::ios::trunc);
    if (!out)
        return false;
    out << obs::toChromeTrace(recorder->snapshot()) << "\n";
    return out.good();
}

void
panicTraceDump()
{
    dumpTraceToFile();
}

[[noreturn]] void
usage()
{
    std::cerr
        << "usage: potluckd [--socket PATH] [--max-entries N] [--max-mb N]\n"
           "                [--dropout P] [--ttl-sec N]\n"
           "                [--eviction importance|lru|random]\n"
           "                [--reputation] [--stats-sec N]\n"
           "                [--stats-format plain|json|prom]\n"
           "                [--no-tracing] [--snapshot PATH]\n"
           "                [--log-level debug|info|warn|error]\n"
           "                [--no-recorder] [--trace-dump PATH]\n"
           "                [--trace-slo-us N] [--trace-sample-prob P]\n"
           "                [--peers SOCK,SOCK,...] [--replicas N]\n"
           "                [--cluster-tag NAME]\n"
           "                [--store-dir DIR] [--cold-capacity-mb N]\n"
           "                [--scrub-rate-mb N]\n"
           "                [--http-port N] [--http-bind ADDR]\n"
           "                [--no-shm] [--shm-ring-kb N]\n";
    std::exit(1);
}

/**
 * Fail fast on a broken --store-dir: create it if absent, then prove a
 * file can actually be written there NOW — so a read-only mount, a
 * permissions mistake, or a full disk is one actionable startup error
 * instead of a daemon that comes up and degrades on its first put.
 */
void
validateStoreDir(const std::string &dir)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        POTLUCK_FATAL("--store-dir " << dir << " cannot be created: "
                                     << ec.message()
                                     << " (check the parent directory "
                                        "exists and is writable)");
    }
    const std::string probe =
        dir + "/.probe-" + std::to_string(::getpid());
    int fd = ::open(probe.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
        POTLUCK_FATAL("--store-dir " << dir << " is not writable: "
                                     << std::strerror(errno)
                                     << " (fix permissions or use a "
                                        "different directory)");
    }
    const char byte = 0;
    ssize_t wrote = ::write(fd, &byte, 1);
    int write_errno = errno;
    ::close(fd);
    ::unlink(probe.c_str());
    if (wrote != 1) {
        POTLUCK_FATAL("--store-dir "
                      << dir << " cannot store data: "
                      << std::strerror(write_errno)
                      << (write_errno == ENOSPC
                              ? " (free disk space or use a different "
                                "filesystem)"
                              : ""));
    }
}

/** The periodic stats dump, in the configured format. */
void
dumpStats(const PotluckService &service, const std::string &format)
{
    if (format == "json") {
        std::cout << potluck::obs::toJson(service.metrics().snapshot())
                  << std::endl;
        return;
    }
    if (format == "prom") {
        std::cout << potluck::obs::toPrometheus(service.metrics().snapshot())
                  << std::flush;
        return;
    }
    ServiceStats stats = service.stats();
    std::cout << "potluckd: " << service.numEntries() << " entries / "
              << formatBytes(service.totalBytes())
              << "; lookups=" << stats.lookups << " hits=" << stats.hits
              << " puts=" << stats.puts << " evictions=" << stats.evictions
              << " expirations=" << stats.expirations;
    if (stats.answered()) {
        std::cout << " hit_rate="
                  << formatFixed(100.0 * stats.hitRate(), 1) << "%";
    }
    obs::RegistrySnapshot snapshot = service.metrics().snapshot();
    const obs::HistogramSnapshot *lookup_ns =
        snapshot.findHistogram("lookup.total_ns");
    if (lookup_ns && lookup_ns->count) {
        std::cout << " lookup_p50=" << obs::formatNs(lookup_ns->percentile(50))
                  << " lookup_p99="
                  << obs::formatNs(lookup_ns->percentile(99));
    }
    std::cout << std::endl;
}

/** The /hot payload: heat-sketch top-k as JSON. */
std::string
hotSlotsJson(const PotluckService &service)
{
    std::vector<obs::HotSlot> slots = service.hotSlots(16);
    std::ostringstream out;
    out << "{\"hot_slots\":[";
    for (size_t i = 0; i < slots.size(); ++i) {
        const obs::HotSlot &s = slots[i];
        out << (i ? "," : "") << "{\"slot\":\"" << obs::jsonEscape(s.label)
            << "\",\"heat\":" << formatFixed(s.heat, 3)
            << ",\"error\":" << formatFixed(s.error, 3)
            << ",\"hits\":" << s.hits << ",\"misses\":" << s.misses
            << ",\"puts\":" << s.puts << "}";
    }
    out << "]}";
    return out.str();
}

} // namespace

int
main(int argc, char **argv)
{
    std::string socket_path = "/tmp/potluck.sock";
    std::string snapshot_path;
    std::string stats_format = "plain";
    std::string trace_dump_path;
    int stats_sec = 30;
    PotluckConfig config;
    std::vector<std::string> peer_sockets;
    size_t replicas = 1;
    std::string cluster_tag;
    std::string store_dir;
    uint64_t cold_capacity_mb = 0;
    uint64_t scrub_rate_mb = 4;
    int http_port = -1; // -1 = exporter off (0 = kernel-assigned)
    std::string http_bind = "127.0.0.1";

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (arg == "--socket") {
            socket_path = next();
        } else if (arg == "--max-entries") {
            config.max_entries = std::stoull(next());
        } else if (arg == "--max-mb") {
            config.max_bytes = std::stoull(next()) * 1024 * 1024;
        } else if (arg == "--dropout") {
            config.dropout_probability = std::stod(next());
        } else if (arg == "--ttl-sec") {
            config.default_ttl_us = std::stoull(next()) * 1000000ULL;
        } else if (arg == "--eviction") {
            std::string kind = next();
            if (kind == "importance")
                config.eviction = EvictionKind::Importance;
            else if (kind == "lru")
                config.eviction = EvictionKind::Lru;
            else if (kind == "random")
                config.eviction = EvictionKind::Random;
            else
                usage();
        } else if (arg == "--reputation") {
            config.enable_reputation = true;
        } else if (arg == "--stats-sec") {
            stats_sec = std::stoi(next());
        } else if (arg == "--stats-format") {
            stats_format = next();
            if (stats_format != "plain" && stats_format != "json" &&
                stats_format != "prom") {
                usage();
            }
        } else if (arg == "--no-tracing") {
            config.enable_tracing = false;
        } else if (arg == "--snapshot") {
            snapshot_path = next();
        } else if (arg == "--log-level") {
            LogLevel level;
            if (!parseLogLevel(next(), level))
                usage();
            setLogLevel(level);
        } else if (arg == "--no-recorder") {
            config.enable_recorder = false;
        } else if (arg == "--trace-dump") {
            trace_dump_path = next();
        } else if (arg == "--trace-slo-us") {
            config.trace_slo_ns = std::stoull(next()) * 1000ULL;
        } else if (arg == "--trace-sample-prob") {
            config.trace_sample_prob = std::stod(next());
        } else if (arg == "--peers") {
            for (const std::string &part : split(next(), ',')) {
                std::string sock = trim(part);
                if (!sock.empty())
                    peer_sockets.push_back(sock);
            }
        } else if (arg == "--replicas") {
            replicas = std::stoull(next());
        } else if (arg == "--cluster-tag") {
            cluster_tag = next();
        } else if (arg == "--store-dir") {
            store_dir = next();
        } else if (arg == "--cold-capacity-mb") {
            cold_capacity_mb = std::stoull(next());
        } else if (arg == "--scrub-rate-mb") {
            scrub_rate_mb = std::stoull(next());
        } else if (arg == "--http-port") {
            http_port = std::stoi(next());
            if (http_port < 0 || http_port > 65535)
                usage();
        } else if (arg == "--http-bind") {
            http_bind = next();
        } else if (arg == "--no-shm") {
            config.ipc_enable_shm = false;
        } else if (arg == "--shm-ring-kb") {
            config.ipc_shm_ring_bytes =
                static_cast<uint32_t>(std::stoull(next()) * 1024);
        } else {
            usage();
        }
    }
    if (trace_dump_path.empty())
        trace_dump_path = socket_path + ".trace.json";

    try {
#ifdef POTLUCK_FAULT_INJECTION
        // Chaos harness: POTLUCK_FS_FAULTS="bit_flip=1.0,..." arms the
        // filesystem fault injector, POTLUCK_IPC_FAULTS=
        // "refuse_shm=1.0,..." the transport one (fault builds only).
        FsFaultInjector::installFromEnv();
        FaultInjector::installFromEnv();
#endif
        PotluckService service(config);
        if (!snapshot_path.empty()) {
            std::ifstream probe(snapshot_path);
            if (probe.good()) {
                SnapshotLoadReport report;
                size_t restored =
                    loadSnapshot(service, snapshot_path, &report);
                std::cout << "potluckd: restored " << restored
                          << " entries from " << snapshot_path;
                if (report.corrupt_tail) {
                    std::cout << " (corrupt tail: salvaged "
                              << report.restored << ", lost " << report.lost
                              << ")";
                }
                std::cout << std::endl;
            }
        }
        // The tiered store attaches before the socket opens (its
        // recovered registrations must be in place when the first
        // client connects) and is declared after the service so it is
        // destroyed — and therefore detached — first; the explicit
        // close() below just makes the final sidecar rewrite visible
        // in the shutdown log.
        std::unique_ptr<store::TieredStore> tiered;
        if (!store_dir.empty()) {
            validateStoreDir(store_dir);
            store::StoreConfig scfg;
            scfg.dir = store_dir;
            scfg.cold_capacity_bytes = cold_capacity_mb << 20;
            scfg.scrub_rate_bytes_per_sec = scrub_rate_mb << 20;
            tiered = std::make_unique<store::TieredStore>(std::move(scfg));
            tiered->attach(service);
            const store::RecoveryReport &rec = tiered->recovery();
            std::cout << "potluckd: tiered store at " << store_dir
                      << ": recovered " << rec.records << " records ("
                      << rec.from_sidecar << " via sidecar, "
                      << rec.from_scan << " via scan), "
                      << rec.registrations << " registrations";
            if (rec.torn_segments) {
                std::cout << "; " << rec.torn_segments
                          << " torn segment tail"
                          << (rec.torn_segments == 1 ? "" : "s");
            }
            std::cout << std::endl;
        }
        // The coordinator hooks into the service before the socket
        // opens, and outlives the server (which feeds it traffic):
        // service -> coordinator -> manager -> server, destroyed in
        // reverse.
        std::unique_ptr<cluster::ClusterCoordinator> coordinator;
        if (!peer_sockets.empty()) {
            cluster::ClusterConfig ccfg;
            ccfg.self_tag = cluster_tag.empty()
                                ? std::string("potluckd:") + socket_path
                                : cluster_tag;
            // Ring identity is the socket path: the one string every
            // node in the mesh already agrees on.
            ccfg.self_endpoint = socket_path;
            ccfg.peer_sockets = peer_sockets;
            ccfg.replicas = replicas;
            coordinator = std::make_unique<cluster::ClusterCoordinator>(
                service, ccfg);
            coordinator->install();
        }
        CacheManager manager(service);
        PotluckServer server(service, socket_path);
        if (coordinator) {
            server.listener().setClusterStatusProvider(
                [c = coordinator.get()] { return c->status(); });
            server.listener().setClusterStatsProvider(
                [c = coordinator.get()](uint8_t hops) {
                    return c->clusterStats(hops);
                });
            std::cout << "potluckd: cluster '"
                      << coordinator->config().self_tag << "' with "
                      << coordinator->numPeers() << " peer"
                      << (coordinator->numPeers() == 1 ? "" : "s")
                      << ", replicas=" << replicas << std::endl;
        }
        // HTTP scrape endpoint (off by default). Declared after the
        // server so it stops first; its handlers only read the
        // service/coordinator, which outlive both.
        std::unique_ptr<obs::HttpExporter> http;
        if (http_port >= 0) {
            obs::HttpExporter::Config hcfg;
            hcfg.bind_address = http_bind;
            hcfg.port = static_cast<uint16_t>(http_port);
            http = std::make_unique<obs::HttpExporter>(hcfg);
            http->handle("/metrics", [&service] {
                service.publishObservability();
                obs::HttpResponse r;
                r.content_type =
                    "text/plain; version=0.0.4; charset=utf-8";
                r.body = obs::toPrometheus(service.metrics().snapshot());
                return r;
            });
            http->handle("/healthz", [&service, c = coordinator.get(),
                                      t = tiered.get()] {
                service.publishObservability();
                size_t peers_open = 0, peers_total = 0;
                if (c) {
                    ClusterStatus st = c->status();
                    peers_total = st.peers.size();
                    for (const PeerStatus &p : st.peers)
                        peers_open += p.state == 2 ? 1 : 0;
                }
                size_t quarantined = t ? t->quarantinedCount() : 0;
                obs::HttpResponse r;
                r.status = peers_open ? 503 : 200;
                r.content_type = "application/json";
                std::ostringstream body;
                body << "{\"status\":\""
                     << (peers_open ? "degraded" : "ok")
                     << "\",\"peers_open\":" << peers_open
                     << ",\"peers\":" << peers_total
                     << ",\"quarantined\":" << quarantined << "}";
                r.body = body.str();
                return r;
            });
            http->handle("/varz", [&service] {
                service.publishObservability();
                obs::HttpResponse r;
                r.content_type = "application/json";
                r.body = obs::toJson(service.metrics().snapshot());
                return r;
            });
            http->handle("/hot", [&service] {
                obs::HttpResponse r;
                r.content_type = "application/json";
                r.body = hotSlotsJson(service);
                return r;
            });
            if (!http->start()) {
                POTLUCK_FATAL("--http-port " << http_port << " on "
                                             << http_bind << ": "
                                             << http->lastError());
            }
            std::cout << "potluckd: http exporter on " << http_bind << ":"
                      << http->port()
                      << " (/metrics /healthz /varz /hot)" << std::endl;
        }
        g_service = &service;
        g_trace_dump_path = trace_dump_path;
        setPanicHook(panicTraceDump);
        std::signal(SIGINT, onSignal);
        std::signal(SIGTERM, onSignal);
        std::signal(SIGUSR1, onDumpSignal);
        std::cout << "potluckd: serving on " << socket_path << " ("
                  << (config.max_bytes
                          ? formatBytes(config.max_bytes)
                          : std::string("unbounded"))
                  << " cache, dropout " << config.dropout_probability << ")"
                  << std::endl;

        int elapsed = 0;
        while (!g_stop) {
            std::this_thread::sleep_for(std::chrono::seconds(1));
            // Anti-entropy tick: drain the store's quarantine into
            // kPeerFetch repairs. Without a cluster the queue is left
            // alone — a later local re-put (or compaction) resolves it.
            if (tiered && coordinator) {
                std::vector<ColdRepairRequest> broken =
                    tiered->takeRepairRequests();
                if (!broken.empty()) {
                    size_t healed = coordinator->repair(broken);
                    std::cout << "potluckd: repaired " << healed << "/"
                              << broken.size()
                              << " quarantined entries from peers"
                              << std::endl;
                }
            }
            if (g_dump_trace) {
                g_dump_trace = 0;
                if (dumpTraceToFile()) {
                    std::cout << "potluckd: trace dumped to "
                              << g_trace_dump_path << std::endl;
                }
            }
            if (stats_sec > 0 && ++elapsed >= stats_sec) {
                elapsed = 0;
                service.publishObservability();
                dumpStats(service, stats_format);
            }
        }
        // Graceful shutdown: stop accepting, drain in-flight requests
        // (bounded by ipc_drain_deadline_ms), then snapshot the final
        // cache state — so a SIGTERM never loses a half-served reply
        // or an entry added moments before the signal.
        std::cout << "potluckd: draining connections" << std::endl;
        server.shutdown();
        // The recorder ring is about to die with the service; leave
        // the last trace window behind as a post-mortem artifact.
        if (dumpTraceToFile()) {
            std::cout << "potluckd: trace dumped to " << g_trace_dump_path
                      << std::endl;
        }
        if (!snapshot_path.empty()) {
            size_t written = saveSnapshot(service, snapshot_path);
            std::cout << "potluckd: saved " << written << " entries to "
                      << snapshot_path << std::endl;
        }
        if (tiered) {
            tiered->close();
            std::cout << "potluckd: tiered store closed ("
                      << tiered->trackedRecords() << " durable records)"
                      << std::endl;
        }
        std::cout << "potluckd: shutting down" << std::endl;
        setPanicHook(nullptr); // service (and its recorder) die next
        g_service = nullptr;
        return 0;
    } catch (const FatalError &e) {
        std::cerr << "potluckd: " << e.what() << std::endl;
        return 1;
    }
}
