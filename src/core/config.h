/**
 * @file
 * PotluckConfig: every tunable of the service in one place, defaulted
 * to the paper's published values.
 */
#ifndef POTLUCK_CORE_CONFIG_H
#define POTLUCK_CORE_CONFIG_H

#include <cstddef>
#include <cstdint>

namespace potluck {

/** Which eviction policy the cache runs (Section 5.3 compares them). */
enum class EvictionKind
{
    Importance, ///< the paper's contribution (Section 3.3)
    Lru,        ///< least-recently-used baseline
    Random,     ///< random-discard baseline
};

/** Service-wide configuration (paper defaults in comments). */
struct PotluckConfig
{
    /** Random-dropout probability in lookup() (Section 3.4: 0.1). */
    double dropout_probability = 0.1;

    /** Threshold tighten divisor k (Algorithm 1: 4). */
    double tighten_factor = 4.0;

    /** Threshold loosen EWMA weight beta (Algorithm 1: 0.8). */
    double loosen_ewma = 0.8;

    /** Entries required before tuning activates, z (Algorithm 1: 100). */
    size_t warmup_entries = 100;

    /** Nearest neighbours fetched per query (Section 3.4: k = 1). */
    size_t knn = 1;

    /** Default entry validity period (Section 3.6: one hour). */
    uint64_t default_ttl_us = 3600ULL * 1000 * 1000;

    /** Capacity limits; 0 disables the respective limit. */
    size_t max_entries = 10000;
    size_t max_bytes = 500ULL * 1024 * 1024; // Section 5.4's 500 MB bound

    /** Eviction policy. */
    EvictionKind eviction = EvictionKind::Importance;

    /** Seed for the service's internal randomness (dropout etc.). */
    uint64_t seed = 42;

    /**
     * Record hot-path latency histograms (POTLUCK_SPAN timings for
     * lookup/put stages). Counters and gauges are always maintained —
     * they cost one relaxed atomic increment — but spans read the
     * clock twice per stage, so latency-critical deployments can turn
     * them off here (or compile them out with
     * -DPOTLUCK_OBS_TRACING=OFF). bench_obs_overhead measures the
     * difference.
     */
    bool enable_tracing = true;

    /// @name Flight recorder (request traces + decision events).
    /// @{
    /**
     * Keep a flight recorder of request traces and decision events
     * (requires enable_tracing). Off = no recorder is allocated and
     * every trace hook is a single null-pointer branch.
     */
    bool enable_recorder = true;

    /** Ring capacity in records, rounded up to a power of two. The
     * memory bound is capacity * ~160 B (~640 KB at the default). */
    size_t recorder_capacity = 4096;

    /** Tail-sampling SLO: traces whose root span lasted at least this
     * long are always kept (ns). */
    uint64_t trace_slo_ns = 1000 * 1000;

    /** Probability of keeping a trace that met the SLO. */
    double trace_sample_prob = 0.01;
    /// @}

    /// @name Slot-heat telemetry + savings accounting (DESIGN.md §13).
    /// @{
    /**
     * Maintain the Space-Saving slot-heat sketch (obs/heat.h) from
     * the lookup/put tails. One try-locked sample per operation; off
     * = no sketch is allocated and the hook is one null branch.
     */
    bool enable_heat = true;

    /** Try-locked sketch stripes (a slot always maps to one). */
    size_t heat_stripes = 4;

    /** Tracked slots per stripe (Space-Saving capacity). One stripe
     * costs capacity * ~160 B — ~40 KiB at the defaults, under the
     * 64 KiB-per-stripe budget. */
    size_t heat_capacity = 256;

    /** Slot heat halves every this many microseconds. */
    uint64_t heat_half_life_us = 10ULL * 1000 * 1000;

    /**
     * Decayed heat at which a HotSlot decision event fires (the
     * replication/load-balancing signal). 0 = never emit.
     */
    double heat_hot_threshold = 0.0;

    /**
     * Estimated FLOPs represented by one microsecond of saved mobile
     * compute, for the `service.saved_flops_est` counter (a ~10
     * GFLOPS application core; purely a reporting scale factor).
     */
    double est_flops_per_us = 10000.0;
    /// @}

    /// @name IPC fault tolerance (server side; client knobs live in
    /// RetryPolicy, ipc/retry.h).
    /// @{
    /**
     * Per-frame deadline for replies the server sends (ms, 0 = block
     * forever). A client that stops reading cannot wedge a handler
     * thread past this budget; the connection is dropped instead.
     */
    uint64_t ipc_send_deadline_ms = 5000;

    /**
     * Idle timeout for client connections (ms, 0 = off). Applications
     * hold persistent connections like bound Binder proxies, so this
     * defaults to off; deployments with connection churn can reap
     * silent clients here.
     */
    uint64_t ipc_idle_timeout_ms = 0;

    /**
     * Graceful-shutdown drain budget (ms): how long
     * PotluckServer::shutdown() waits for in-flight requests to
     * finish before severing the remaining connections.
     */
    uint64_t ipc_drain_deadline_ms = 2000;

    /**
     * Answer shared-memory upgrade offers (DESIGN.md §14). When off
     * every hello is nacked and all connections stay on plain UDS;
     * clients fall back transparently either way, so this is a kill
     * switch, not a compatibility knob.
     */
    bool ipc_enable_shm = true;

    /**
     * Per-direction shm ring capacity granted to clients (bytes,
     * power of two; also caps what a client may request). Frames
     * larger than about half of this spill to the UDS socket.
     */
    uint32_t ipc_shm_ring_bytes = 1u << 20;
    /// @}

    /// @name Reputation defense (Section 3.5's Credence-style extension).
    /// @{
    bool enable_reputation = false;
    /** Ban an app once its score drops below this... */
    double reputation_ban_score = 0.25;
    /** ...provided at least this many observations accumulated. */
    uint64_t reputation_min_observations = 4;
    /// @}
};

} // namespace potluck

#endif // POTLUCK_CORE_CONFIG_H
