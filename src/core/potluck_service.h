/**
 * @file
 * PotluckService: the deduplication cache service (Sections 3 and 4).
 *
 * The in-process core used directly by libraries, by the AppListener
 * behind the IPC boundary, and by all benchmarks. Thread-safe.
 *
 * Processing flow (Section 3.1):
 *  1. the application turns its raw input into a feature-vector key;
 *  2. lookup(function, key_type, key) finds the nearest stored key of
 *     that type within the current similarity threshold (with random
 *     dropout to force periodic recalibration);
 *  3. on a miss the app computes the result and put()s it, which
 *     (a) computes the importance inputs, (b) feeds the threshold
 *     tuner, and (c) indexes the entry under every key type of the
 *     function (Section 3.7).
 *
 * Concurrency model (see DESIGN.md §10): each registered function is
 * one lock domain — a reader/writer lock over that function's key-type
 * slots (index + tuner) and its entries. A lookup or put resolves its
 * (function, key type) slot once and probes exactly one index under
 * one lock: lookups take it SHARED, so they run in parallel; a put
 * holds it EXCLUSIVE only to tune and insert. Lock order: the capacity
 * mutex, then domain locks (one at a time), then meta_mutex_ as a
 * leaf; the table lock is only ever held briefly, above domain locks.
 */
#ifndef POTLUCK_CORE_POTLUCK_SERVICE_H
#define POTLUCK_CORE_POTLUCK_SERVICE_H

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "core/cold_tier.h"
#include "core/config.h"
#include "core/data_storage.h"
#include "core/eviction.h"
#include "core/function_table.h"
#include "core/reputation.h"
#include "core/stats.h"
#include "core/value.h"
#include "features/extractor.h"
#include "obs/heat.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "util/clock.h"
#include "util/rng.h"

namespace potluck {

/** Result of a cache lookup. */
struct LookupResult
{
    bool hit = false;      ///< value is valid
    bool dropped = false;  ///< random dropout short-circuited the query
    Value value;           ///< cached result when hit
    EntryId id = 0;        ///< entry id when hit
    double nn_dist = -1.0; ///< distance to the returned neighbour
};

/** Optional arguments to put(). */
struct PutOptions
{
    /** Validity period; service default when unset. */
    std::optional<uint64_t> ttl_us;

    /**
     * Computation overhead override in microseconds. When unset the
     * service uses the elapsed time since this (app, function)'s last
     * lookup miss (Section 3.3).
     */
    std::optional<double> compute_overhead_us;

    /** Originating application tag. */
    std::string app;

    /**
     * Raw input the result was computed from. When provided and the
     * function has other registered key types, the entry's keys for
     * those types are derived from it via the registered extractors
     * (the cross-key-type propagation of Section 3.7).
     */
    const Image *raw_input = nullptr;
};

/** The Potluck approximate-deduplication cache service. */
class PotluckService
{
  public:
    /**
     * @param config  tunables (paper defaults)
     * @param clock   time source; inject a VirtualClock for simulation
     */
    explicit PotluckService(PotluckConfig config = {},
                            Clock *clock = &SystemClock::instance());

    /// @name Control path (Section 4.3).
    /// @{

    /**
     * Register a key type for a function. Required before lookups or
     * puts with that type. `extractor` may be null when put() is
     * always called with an explicit key for this type.
     */
    void registerKeyType(const std::string &function,
                         const KeyTypeConfig &cfg,
                         std::shared_ptr<FeatureExtractor> extractor = nullptr);

    /**
     * Register an application (resets the thresholds of the functions
     * it uses per Section 4.3; here: all thresholds, conservatively).
     */
    void registerApp(const std::string &app);
    /// @}

    /// @name Data path (Section 4.3).
    /// @{

    /** Query the cache for a similar key of the given type. */
    LookupResult lookup(const std::string &app, const std::string &function,
                        const std::string &key_type,
                        const FeatureVector &key);

    /**
     * Batched lookup: one result per key, same semantics per element
     * as lookup() — dropout, cold-tier promotion and the miss handler
     * all apply per key. The batch amortizes the per-request fixed
     * costs: the slot is resolved once, the dropout RNG and
     * pending-miss bookkeeping take one meta-mutex acquisition for
     * the whole batch, and the function's domain is locked once for
     * all keys instead of once per key — this is what makes the
     * kLookupBatch IPC verb's single frame worthwhile at the service
     * layer too.
     */
    std::vector<LookupResult> lookupBatch(const std::string &app,
                                          const std::string &function,
                                          const std::string &key_type,
                                          const std::vector<FeatureVector> &keys);

    /** Insert a computed result under the given key. */
    EntryId put(const std::string &function, const std::string &key_type,
                const FeatureVector &key, Value value,
                const PutOptions &options = {});
    /// @}

    /** Clear expired entries as of now; returns how many were cleared. */
    size_t sweepExpired();

    /**
     * A put event, delivered to observers after the entry is stored.
     * Used by the cross-device replication bridge (the paper's
     * Section 7 "apply the deduplication concept across devices").
     */
    struct PutEvent
    {
        std::string function;
        std::string key_type;
        FeatureVector key;
        Value value;
        std::string app;
        double compute_overhead_us = 0.0;
    };

    using PutObserver = std::function<void(const PutEvent &)>;

    /**
     * Subscribe to put events. Observers run after the service lock is
     * released, on the putting thread; they must not block for long.
     */
    void addPutObserver(PutObserver observer);

    /**
     * A lookup that missed locally, offered to the miss handler before
     * the miss is returned to the caller (the cluster coordinator's
     * remote-forwarding hook).
     */
    struct MissContext
    {
        const std::string &app;
        const std::string &function;
        const std::string &key_type;
        const FeatureVector &key;
    };

    /**
     * Handler consulted on every local lookup miss; returning true
     * (after filling `result`) converts the miss into a hit. Invoked
     * on the looking-up thread with NO service locks held, so it may
     * re-enter lookup()/put() on this or another service. At most one
     * handler; pass nullptr to clear. Not synchronized against
     * in-flight lookups — install before serving traffic.
     */
    using MissHandler =
        std::function<bool(const MissContext &, LookupResult &)>;
    void setMissHandler(MissHandler handler);

    /**
     * Install (or clear, with nullptr) the persistent cold tier
     * (DESIGN.md §12). With a tier installed: puts are written through
     * to it, capacity evictions demote their victims instead of
     * dropping them, lookup misses probe it (a cold hit is promoted
     * back into RAM and served as a hit), and expiry sweeps forget the
     * swept entries' durable records. With none — the default — every
     * hook is a single null-pointer branch and behavior is identical
     * to a store-less build.
     *
     * Install before serving traffic. The tier must stay valid while
     * installed; TieredStore::close() clears the pointer itself and
     * then ignores any hook that was already past the null check.
     */
    void setColdTier(ColdTier *tier);

    /** On-demand cold-tier integrity scrub (kScrub): verify every
     * cold record now. Returns frames verified; 0 without a tier. */
    size_t scrubColdTier();

    /// @name Observability plane (DESIGN.md §13).
    /// @{
    /**
     * The `k` hottest (function, key_type) slots right now, from the
     * Space-Saving heat sketch (hottest first). Empty when
     * config.enable_heat is off.
     */
    std::vector<obs::HotSlot> hotSlots(size_t k) const;

    /**
     * Cumulative estimated computation saved by hits, in microseconds
     * (exact; the `service.saved_ms` counter is this divided down).
     */
    uint64_t savedComputeUs() const
    {
        return saved_us_total_.load(std::memory_order_relaxed);
    }

    /**
     * Refresh the registry's derived observability gauges: service
     * uptime, heat-sketch occupancy, and the `heat.slot.<label>.*`
     * top-k gauge families (stale slots are zeroed). Called by the
     * daemon tick and before metric snapshots leave the process; not
     * for the hot path (takes every sketch stripe lock).
     */
    void publishObservability();
    /// @}

    /// @name Reputation defense (enabled via config.enable_reputation).
    /// @{
    double reputationScore(const std::string &app) const;
    bool appBanned(const std::string &app) const;
    std::vector<std::string> bannedApps() const;
    /// @}

    /// @name Introspection.
    /// @{
    /** Visit every live entry under shared locks (do not re-enter).
     * Functions are visited one at a time in registration order, so
     * the view is consistent per function, not a global snapshot. */
    void forEachEntry(
        const std::function<void(const CacheEntry &)> &fn) const;

    /** Visit every registered (function, key type) pair. */
    void forEachKeyType(
        const std::function<void(const std::string &,
                                 const KeyTypeConfig &)> &fn) const;

    /**
     * Flat counter snapshot, materialized from the metrics registry
     * (the struct is a view; the registry owns the live counters).
     */
    ServiceStats stats() const;

    /** Per-(function, key type) counters; zeros if unregistered. */
    SlotStats slotStats(const std::string &function,
                        const std::string &key_type) const;

    /**
     * The observability registry: service counters/gauges under
     * `service.*` / `cache.*`, per-function counters under
     * `fn.<function>.*`, hot-path latency histograms
     * (`lookup.*_ns`, `put.*_ns`) when tracing is enabled. The IPC
     * server adds its `ipc.*` metrics here too. Internally
     * synchronized.
     */
    obs::MetricsRegistry &metrics() const { return *metrics_; }

    /**
     * The flight recorder holding sampled request traces and decision
     * events (evictions with importance breakdowns, threshold-tuner
     * moves, expiry sweeps). Null when config.enable_recorder or
     * config.enable_tracing is off — callers treat null as "tracing
     * disabled" and skip their trace hooks.
     */
    obs::FlightRecorder *recorder() const { return recorder_.get(); }

    /**
     * Hit rate over answered lookups of one function (all key types),
     * from the registry's `fn.<function>.*` counters; 0 if unknown.
     * Same denominator policy as ServiceStats::hitRate() — dropouts
     * are excluded.
     */
    double functionHitRate(const std::string &function) const;

    /** The (function, key type) similarity threshold. */
    double threshold(const std::string &function,
                     const std::string &key_type) const;
    /** Force a threshold (fixed-threshold experiments, Fig. 9). */
    void setThreshold(const std::string &function,
                      const std::string &key_type, double value);
    size_t numEntries() const;
    size_t totalBytes() const;
    const PotluckConfig &config() const { return config_; }
    /** Current time from the service's clock. */
    uint64_t nowUs() const { return clock_->nowUs(); }
    uint64_t nextExpiryUs() const;
    /// @}

  private:
    /** A resolved (function, key type): the slot and its domain. */
    struct SlotRef
    {
        FunctionDomain *domain;
        KeyIndex *slot;
    };

    /** One key's probe of its slot: the lookup result plus, on a hit,
     * the winning entry's computation overhead (Section 3.3) — what
     * the hit saved the caller; feeds savings accounting. */
    struct Probe
    {
        LookupResult result;
        double overhead_us = 0.0;
    };

    /** Find a slot under the table lock; both pointers are null when
     * the pair is unregistered. Found pointers stay valid for the
     * service's lifetime. */
    SlotRef findSlot(const std::string &function,
                     const std::string &key_type) const;

    /** findSlot() that FATALs when the pair is unregistered. */
    SlotRef resolve(const std::string &function, const std::string &key_type,
                    const char *verb) const;

    /** The domains in registration order (a copy, taken under the
     * table lock, so callers may then lock domains one at a time). */
    std::vector<FunctionDomain *> domains() const;

    /** One key's probe against its slot; the caller holds the domain's
     * shared lock. `traced` opens a per-probe span; the batched path
     * passes false and wraps the whole pass in one span instead. */
    Probe probeLocked(FunctionDomain &domain, KeyIndex &slot,
                      const FeatureVector &key, uint64_t now,
                      bool traced = true);

    /**
     * Remove an entry from its domain and hand it back by move —
     * teardown is split from destruction so the eviction path can
     * pass the victim (keys + value) to the cold tier without cloning
     * it. Returns a default entry (id == 0) when the id raced away.
     * Caller holds the domain's EXCLUSIVE lock.
     */
    CacheEntry removeLocked(FunctionDomain &domain, EntryId id, bool expired);

    /**
     * Re-insert a cold-tier hit into RAM: assign a fresh id, index it
     * under every registered key type it carries, and enforce
     * capacity. Unlike put(), promotion feeds no tuner observation,
     * casts no reputation vote and fires no put observers — it is an
     * internal tier move, not new data. Call with NO locks held.
     */
    EntryId insertPromoted(FunctionDomain &domain, CacheEntry entry,
                           uint64_t now);

    /** Evict until within capacity. Takes capacity_mutex_, then domain
     * locks one at a time; call with NO domain lock held. Victims go
     * to the cold tier after capacity_mutex_ is released. */
    void enforceCapacity();

    /** Refresh cache.entries / cache.bytes from the atomic totals. */
    void updateGlobalGauges();

    /** Log an eviction decision (the victim's importance inputs). */
    void recordEviction(const CacheEntry &victim);

    /**
     * Account one hit's saved computation (Section 3.3's overhead, in
     * us) into the service / per-function / per-app saved-ms counters
     * and the FLOPs estimate. Lock-free except the first hit of a
     * never-seen app (registers its counter).
     */
    void accountSavings(KeyIndex &slot, const std::string &app,
                        double overhead_us);

    /**
     * Feed the heat sketch `count` lookup/put tail samples (batch
     * verbs fold a whole mget into one call) and emit the HotSlot
     * decision event when it reports a threshold crossing.
     * One null branch when the sketch is disabled.
     */
    void feedHeat(const std::string &function, const std::string &key_type,
                  obs::HeatKind kind, uint64_t now_us, uint64_t count = 1);

    /**
     * Cached registry pointers for the hot paths: resolved once at
     * construction so lookup()/put() never touch the registry map.
     * Histogram pointers are null when config.enable_tracing is off.
     */
    struct ServiceObs
    {
        obs::Counter *lookups;
        obs::Counter *hits;
        obs::Counter *misses;
        obs::Counter *dropouts;
        obs::Counter *puts;
        obs::Counter *evictions;
        obs::Counter *expirations;
        obs::Counter *tighten_events;
        obs::Counter *loosen_events;
        obs::Counter *rejected_puts;
        obs::Counter *banned_hits_suppressed;
        /** Whole ms / estimated FLOPs of computation hits saved. */
        obs::Counter *saved_ms;
        obs::Counter *saved_flops_est;
        obs::Gauge *entries;
        obs::Gauge *bytes;
        obs::Gauge *uptime_seconds;
        obs::Gauge *heat_tracked;
        obs::Gauge *heat_dropped;
        obs::LatencyHistogram *lookup_total_ns = nullptr;
        obs::LatencyHistogram *lookup_probe_ns = nullptr;
        obs::LatencyHistogram *put_total_ns = nullptr;
        obs::LatencyHistogram *put_probe_ns = nullptr;
        obs::LatencyHistogram *evict_ns = nullptr;
    };

    PotluckConfig config_;
    Clock *clock_;
    /** Heap-allocated so cached pointers survive service moves. */
    std::unique_ptr<obs::MetricsRegistry> metrics_;
    /** Flight recorder; null when tracing or the recorder is off. */
    std::unique_ptr<obs::FlightRecorder> recorder_;
    ServiceObs obs_;

    /** The function domains (Fig. 5). The table's maps change only
     * under table_mutex_ held exclusively (registration); every other
     * path holds it shared just long enough to resolve a domain. */
    FunctionTable table_;
    mutable std::shared_mutex table_mutex_;

    /**
     * Leaf lock for service-wide scalar state: rng_, pending_miss_us_,
     * reputation_, put_observers_, miss_handler_. May be taken while
     * holding a domain lock; never the reverse.
     */
    mutable std::mutex meta_mutex_;

    /** Serializes global eviction so concurrent puts don't both scan
     * all domains. Taken with no domain lock held. */
    std::mutex capacity_mutex_;

    std::unique_ptr<EvictionPolicy> eviction_; ///< under capacity_mutex_

    /**
     * The persistent cold tier; null (the default) = no disk tier.
     * Atomic so TieredStore::close() can clear it while traffic runs;
     * every hook loads it once per call and never re-reads.
     */
    std::atomic<ColdTier *> cold_tier_{nullptr};

    Rng rng_; ///< under meta_mutex_
    std::atomic<EntryId> next_id_{1};

    /// @name Global occupancy, maintained by domain mutations.
    /// @{
    std::atomic<size_t> entries_total_{0};
    std::atomic<size_t> bytes_total_{0};
    /// @}

    /** Pending lookup-miss timestamps per (app, function). */
    std::map<std::pair<std::string, std::string>, uint64_t> pending_miss_us_;

    ReputationTracker reputation_;
    std::vector<PutObserver> put_observers_;
    MissHandler miss_handler_; ///< under meta_mutex_; invoked lock-free

    /** Slot-heat sketch; null when config.enable_heat is off. */
    std::unique_ptr<obs::HeatSketch> heat_;

    /** Construction time (service uptime gauge reference point). */
    uint64_t start_us_ = 0;

    /** Exact cumulative saved computation (us) + ms carry source. */
    std::atomic<uint64_t> saved_us_total_{0};

    /** Per-app saved-ms accounting: read-mostly pointer cache so the
     * hit tail pays one shared-lock map probe, not a registry probe.
     * Values are stable (heap) so the probe result outlives the lock. */
    struct AppSavings
    {
        std::atomic<uint64_t> us_carry{0};
        obs::Counter *saved_ms = nullptr;
    };
    mutable std::shared_mutex app_savings_mutex_;
    std::map<std::string, std::unique_ptr<AppSavings>> app_savings_;

    /** `heat.slot.*` gauge names published last time (to zero stale
     * ones); guarded by publish_mutex_. */
    std::mutex publish_mutex_;
    std::vector<std::string> published_heat_;
};

} // namespace potluck

#endif // POTLUCK_CORE_POTLUCK_SERVICE_H
