/**
 * @file
 * Multi-threaded stress tests for the sharded service: concurrent
 * lookups, puts, expiry sweeps and capacity eviction across shard
 * counts and index backends. These tests assert invariants (no
 * exceptions, capacity respected, exact keys findable) rather than
 * exact counts — interleavings vary — and are the workload the
 * ThreadSanitizer stage of scripts/check.sh runs to prove the shard
 * locking, the flat index's filter fits (inside insert, under the
 * exclusive lock, while lookups read under the shared one) and the LSH
 * lazy projections are race-free — and that the shm ring transport's
 * SPSC protocol
 * (free-running head/tail counters, futex doorbells, wrap/rewind
 * markers, spill over the side socket) is race-free with the
 * producer and consumer of each ring on different threads.
 */
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/coordinator.h"
#include "core/potluck_service.h"
#include "ipc/shm_ring.h"
#include "ipc/transport.h"
#include "util/rng.h"

namespace potluck {
namespace {

PotluckConfig
stressConfig(size_t shards)
{
    PotluckConfig cfg;
    cfg.num_shards = shards;
    cfg.warmup_entries = 0;     // tuner active: exercises put probes
    cfg.dropout_probability = 0.1;
    cfg.max_entries = 256;      // small: eviction runs constantly
    cfg.max_bytes = 0;
    cfg.default_ttl_us = 50 * 1000; // entries expire under the sweeper
    return cfg;
}

FeatureVector
keyOf(uint64_t x, size_t dim)
{
    std::vector<float> v(dim);
    for (size_t i = 0; i < dim; ++i)
        v[i] = static_cast<float>((x + i * 31) % 97);
    return FeatureVector(std::move(v));
}

/**
 * The core mixed workload: T worker threads hammer lookup/put on two
 * functions while a sweeper thread expires entries, all against a
 * capacity small enough that eviction interleaves with everything.
 */
void
runMixedWorkload(PotluckConfig cfg, IndexKind kind, int threads,
                 int iterations)
{
    PotluckService service(cfg);
    service.registerKeyType("fa", {"vec", Metric::L2, kind});
    service.registerKeyType("fb", {"vec", Metric::L2, kind});

    std::atomic<int> errors{0};
    std::atomic<bool> stop{false};
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&, t]() {
            try {
                Rng rng(1000 + static_cast<uint64_t>(t));
                std::string app = "app" + std::to_string(t % 3);
                for (int i = 0; i < iterations; ++i) {
                    uint64_t x = static_cast<uint64_t>(
                        rng.uniformInt(0, 499));
                    const char *fn = (x % 2) ? "fa" : "fb";
                    // Mixed dimensions on one index: per-length arenas
                    // and LSH mixed-dim handling under contention.
                    size_t dim = (x % 3) ? 4 : 16;
                    FeatureVector key = keyOf(x, dim);
                    service.lookup(app, fn, "vec", key);
                    if (i % 2 == 0) {
                        PutOptions opts;
                        opts.app = app;
                        opts.compute_overhead_us = 100.0;
                        service.put(fn, "vec", key,
                                    encodeInt(static_cast<int>(x)), opts);
                    }
                    if (i % 64 == 0)
                        service.numEntries();
                }
            } catch (...) {
                ++errors;
            }
        });
    }
    std::thread sweeper([&]() {
        try {
            while (!stop.load(std::memory_order_acquire)) {
                service.sweepExpired();
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
        } catch (...) {
            ++errors;
        }
    });
    for (auto &w : workers)
        w.join();
    stop.store(true, std::memory_order_release);
    sweeper.join();

    EXPECT_EQ(errors.load(), 0);
    EXPECT_LE(service.numEntries(), cfg.max_entries);
    // The totals must balance: everything added was either evicted,
    // expired, or is still resident.
    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.puts - stats.rejected_puts,
              stats.evictions + stats.expirations + service.numEntries());
}

class StressAllIndexes : public ::testing::TestWithParam<IndexKind>
{
};

TEST_P(StressAllIndexes, MixedWorkloadSingleShard)
{
    runMixedWorkload(stressConfig(1), GetParam(), 4, 300);
}

TEST_P(StressAllIndexes, MixedWorkloadFourShards)
{
    runMixedWorkload(stressConfig(4), GetParam(), 4, 300);
}

TEST_P(StressAllIndexes, FilterFitsUnderConcurrentLookups)
{
    // Enough 64-d keys in one shard to take the flat index past its
    // first filter fit (256 rows) and its refit (512), while readers
    // probe the same slot under the shared lock.
    PotluckConfig cfg = stressConfig(1);
    cfg.max_entries = 4096;
    cfg.default_ttl_us = 3600ULL * 1000 * 1000;
    cfg.dropout_probability = 0.0;
    PotluckService service(cfg);
    service.registerKeyType("f", {"vec", Metric::L2, GetParam()});
    constexpr int kKeys = 600;
    std::vector<FeatureVector> keys;
    Rng rng(77);
    for (int i = 0; i < kKeys; ++i) {
        std::vector<float> v(64);
        for (float &x : v)
            x = static_cast<float>(rng.gaussian(0.0, 4.0));
        keys.emplace_back(std::move(v));
    }

    std::atomic<int> errors{0};
    std::atomic<bool> done{false};
    std::vector<std::thread> threads;
    threads.emplace_back([&]() {
        try {
            for (int i = 0; i < kKeys; ++i)
                service.put("f", "vec", keys[i], encodeInt(i), {});
        } catch (...) {
            ++errors;
        }
        done.store(true, std::memory_order_release);
    });
    for (int t = 0; t < 2; ++t) {
        threads.emplace_back([&, t]() {
            try {
                Rng pick(300 + static_cast<uint64_t>(t));
                while (!done.load(std::memory_order_acquire))
                    service.lookup("app", "f", "vec",
                                   keys[pick.uniformInt(0, kKeys - 1)]);
            } catch (...) {
                ++errors;
            }
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(errors.load(), 0);
    for (int i = 0; i < kKeys; i += 7) {
        LookupResult r = service.lookup("app", "f", "vec", keys[i]);
        ASSERT_TRUE(r.hit) << "key " << i;
        EXPECT_EQ(decodeInt(r.value), i);
    }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, StressAllIndexes,
                         ::testing::Values(IndexKind::Linear,
                                           IndexKind::Hash, IndexKind::Tree,
                                           IndexKind::KdTree,
                                           IndexKind::Lsh),
                         [](const auto &info) {
                             return indexKindName(info.param);
                         });

TEST(Stress, ParallelFanoutUnderContention)
{
    PotluckConfig cfg = stressConfig(8);
    cfg.parallel_fanout = true;
    runMixedWorkload(cfg, IndexKind::KdTree, 4, 200);
}

TEST(Stress, ConcurrentRegistrationAndTraffic)
{
    // Registrations racing lookups/puts: a slot visible in shard 0
    // must already exist in every shard (registration replicates
    // shard 0 last), so traffic never sees a half-registered slot.
    PotluckConfig cfg = stressConfig(4);
    PotluckService service(cfg);
    std::atomic<int> errors{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&, t]() {
            try {
                for (int i = 0; i < 50; ++i) {
                    std::string fn =
                        "f" + std::to_string(t) + "_" + std::to_string(i);
                    service.registerKeyType(
                        fn, {"vec", Metric::L2, IndexKind::Linear});
                    service.put(fn, "vec", keyOf(1, 4), encodeInt(i), {});
                    service.lookup("app", fn, "vec", keyOf(1, 4));
                }
            } catch (...) {
                ++errors;
            }
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(errors.load(), 0);
}

TEST(Stress, ConcurrentExactLookupsAlwaysHitResidentEntries)
{
    // Read-mostly correctness: with eviction and expiry out of the
    // picture, a resident exact key must hit from every thread, every
    // time, while writers keep inserting into other shards.
    PotluckConfig cfg = stressConfig(4);
    cfg.max_entries = 100000;
    cfg.default_ttl_us = 3600ULL * 1000 * 1000;
    cfg.dropout_probability = 0.0;
    PotluckService service(cfg);
    service.registerKeyType("f", {"vec", Metric::L2, IndexKind::KdTree});
    service.registerKeyType("g", {"vec", Metric::L2, IndexKind::KdTree});
    for (int i = 0; i < 32; ++i)
        service.put("f", "vec", keyOf(static_cast<uint64_t>(i), 8),
                    encodeInt(i), {});

    std::atomic<int> errors{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 3; ++t) {
        threads.emplace_back([&, t]() {
            try {
                for (int i = 0; i < 400; ++i) {
                    int x = (t * 400 + i) % 32;
                    LookupResult r = service.lookup(
                        "app", "f", "vec",
                        keyOf(static_cast<uint64_t>(x), 8));
                    if (!r.hit || decodeInt(r.value) != x)
                        ++errors;
                }
            } catch (...) {
                ++errors;
            }
        });
    }
    // A writer hammering a sibling function must not perturb the
    // readers (separate slots, shared shards and locks).
    threads.emplace_back([&]() {
        try {
            for (int i = 0; i < 400; ++i)
                service.put("g", "vec",
                            keyOf(static_cast<uint64_t>(1000 + i), 8),
                            encodeInt(1000 + i), {});
        } catch (...) {
            ++errors;
        }
    });
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(errors.load(), 0);
}

TEST(Stress, FederatedMeshUnderConcurrentTraffic)
{
    // The cluster tier under TSan: three sharded services in a
    // full mesh of in-process links, each with an async coordinator
    // (miss forwarding + replication workers), hammered from two
    // threads per node. Exercises the miss handler re-entering a
    // PEER service's lookup/put while that peer's own threads hold
    // its shard locks, and the drop-oldest queue under overflow.
    constexpr int kNodes = 3;
    std::vector<std::unique_ptr<PotluckService>> services;
    for (int n = 0; n < kNodes; ++n) {
        PotluckConfig cfg = stressConfig(4);
        cfg.dropout_probability = 0.0;
        services.push_back(std::make_unique<PotluckService>(cfg));
        services.back()->registerKeyType(
            "fa", {"vec", Metric::L2, IndexKind::KdTree});
        services.back()->registerKeyType(
            "fb", {"vec", Metric::L2, IndexKind::KdTree});
    }
    std::vector<std::unique_ptr<cluster::ClusterCoordinator>> coordinators;
    for (int n = 0; n < kNodes; ++n) {
        cluster::ClusterConfig ccfg;
        ccfg.self_tag = "s" + std::to_string(n);
        ccfg.self_endpoint = "stress_node_" + std::to_string(n);
        ccfg.replica_queue_capacity = 16; // small: shedding interleaves
        ccfg.worker_threads = 2;
        auto coordinator = std::make_unique<cluster::ClusterCoordinator>(
            *services[n], ccfg);
        for (int p = 0; p < kNodes; ++p)
            if (p != n)
                coordinator->addLocalPeer(
                    "stress_node_" + std::to_string(p), *services[p]);
        coordinator->install();
        coordinators.push_back(std::move(coordinator));
    }

    std::atomic<int> errors{0};
    std::vector<std::thread> threads;
    for (int n = 0; n < kNodes; ++n) {
        for (int t = 0; t < 2; ++t) {
            threads.emplace_back([&, n, t]() {
                try {
                    Rng rng(5000 + static_cast<uint64_t>(n * 8 + t));
                    PotluckService &svc = *services[n];
                    std::string app = "app" + std::to_string(n);
                    for (int i = 0; i < 150; ++i) {
                        uint64_t x = static_cast<uint64_t>(
                            rng.uniformInt(0, 99));
                        const char *fn = (x % 2) ? "fa" : "fb";
                        FeatureVector key = keyOf(x, 8);
                        svc.lookup(app, fn, "vec", key);
                        if (i % 2 == 0) {
                            PutOptions opts;
                            opts.app = app;
                            opts.compute_overhead_us = 100.0;
                            svc.put(fn, "vec", key, encodeInt(
                                static_cast<int64_t>(x)), opts);
                        }
                        if (i % 50 == 0)
                            svc.sweepExpired();
                    }
                } catch (...) {
                    ++errors;
                }
            });
        }
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(errors.load(), 0);
    for (auto &coordinator : coordinators)
        coordinator->drain();
    // Coordinators must go before the services their links point at.
    coordinators.clear();
    services.clear();
}

// ---------- Shared-memory SPSC rings (DESIGN.md §14) ----------

/**
 * Burst-echo stress over a negotiated shm ring pair: the client
 * thread produces into the c2s ring while the server thread consumes
 * it and concurrently produces echoes into the s2c ring the client
 * consumes — so both rings have their producer and consumer live on
 * different threads at once, which is the whole SPSC race surface
 * (head/tail acquire-release pairing, doorbell sequence bumps, the
 * waiting-flag wake elision, wrap and rewind markers). Burst shapes
 * are chosen to keep crossing the interesting boundaries: many tiny
 * frames (doorbell churn, rewind-when-empty), frames straddling the
 * inline/spill threshold (maxInline = ring/2 - 16), and outsized
 * spill frames that ride the side socket.
 */
void
runRingBurstEcho(uint32_t ring_bytes, int rounds, uint64_t seed)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    FrameSocket client_sock(fds[0]);

    std::atomic<int> server_errors{0};
    std::thread server([fd = fds[1], &server_errors]() {
        try {
            FrameSocket sock(fd);
            std::vector<uint8_t> hello;
            if (!sock.recvFrame(hello) || !shm::isHello(hello)) {
                ++server_errors;
                return;
            }
            bool upgraded = false;
            std::unique_ptr<Transport> t = shm::acceptUpgrade(
                std::move(sock), hello, /*enabled=*/true,
                /*max_ring_bytes=*/1u << 26, &upgraded);
            if (!upgraded) {
                ++server_errors;
                return;
            }
            t->setDeadlines(10000, 10000);
            FrameView view;
            while (t->recvFrameView(view))
                t->sendFrameDirect(view.size(), [&](uint8_t *dst) {
                    std::memcpy(dst, view.data(), view.size());
                });
        } catch (...) {
            ++server_errors;
        }
    });

    std::unique_ptr<Transport> t =
        shm::negotiate(std::move(client_sock), ring_bytes);
    std::string client_error;
    // The client loop runs under try/catch and the join is
    // unconditional: an assertion or a transport exception here must
    // not destroy a joinable server thread (std::terminate).
    try {
        if (std::string(t->kind()) != "shm")
            throw std::runtime_error("upgrade not granted");
        t->setDeadlines(10000, 10000);
        Rng rng(seed);
        uint64_t seq = 0;
        std::vector<std::vector<uint8_t>> burst;
        std::vector<uint8_t> in;
        for (int round = 0; round < rounds; ++round) {
            burst.clear();
            int shape = rng.uniformInt(0, 9);
            if (shape < 6) {
                // Tiny-frame burst. Total record bytes — even
                // doubled by worst-case wrap waste — stay below the
                // 4 KiB minimum ring, so the echoes of a whole burst
                // fit in the s2c ring before we consume any: the
                // server can never block sending an echo while we
                // are still blocked producing (duplex deadlock).
                int n = rng.uniformInt(1, 4);
                for (int i = 0; i < n; ++i)
                    burst.emplace_back(static_cast<size_t>(
                        rng.uniformInt(0, 400)));
            } else if (shape < 9) {
                // One frame straddling the inline/spill boundary.
                int64_t lo = static_cast<int64_t>(ring_bytes) / 2 - 64;
                burst.emplace_back(static_cast<size_t>(
                    lo + rng.uniformInt(0, 96)));
            } else {
                // One spill frame, larger than the whole ring.
                burst.emplace_back(static_cast<size_t>(
                    ring_bytes + rng.uniformInt(0, ring_bytes)));
            }
            for (auto &frame : burst) {
                ++seq;
                for (size_t j = 0; j < frame.size(); ++j)
                    frame[j] = static_cast<uint8_t>(
                        (seq * 131 + j) ^ frame.size());
                t->sendFrame(frame);
            }
            for (auto &frame : burst) {
                if (!t->recvFrame(in))
                    throw std::runtime_error(
                        "echo connection closed early");
                if (in != frame) {
                    size_t d = 0;
                    while (d < std::min(in.size(), frame.size()) &&
                           in[d] == frame[d])
                        ++d;
                    throw std::runtime_error(
                        "echo mismatch, round " +
                        std::to_string(round) + ", sent " +
                        std::to_string(frame.size()) + "B got " +
                        std::to_string(in.size()) +
                        "B, first diff at " + std::to_string(d));
                }
            }
        }
    } catch (const std::exception &e) {
        client_error = e.what();
    }
    t->close();
    server.join();
    EXPECT_EQ(client_error, "");
    EXPECT_EQ(server_errors.load(), 0);
}

TEST(Stress, ShmRingBurstEchoMinimumRing)
{
    // 4 KiB ring: wraps and futex parks on almost every burst.
    runRingBurstEcho(shm::kMinRingBytes, 300, 11);
}

TEST(Stress, ShmRingBurstEchoDefaultSizedRing)
{
    runRingBurstEcho(1u << 16, 200, 23);
}

} // namespace
} // namespace potluck
