/**
 * @file
 * TieredStore: the mmap'd disk tier behind the service's hot RAM tier
 * (DESIGN.md §12). Implements the core ColdTier interface and owns the
 * whole on-disk state of one store directory:
 *
 *   <dir>/seg-<generation>.log   append-only record segments
 *   <dir>/index.sidecar          durable fingerprint index
 *
 * Record model: every put() is written through as an Entry record
 * (keys + value + importance inputs), so the segment log doubles as a
 * write-ahead log — a SIGKILL'd daemon restarts warm from the log
 * alone. A clean close() re-appends every entry still in RAM, so a
 * SIGTERM'd daemon restarts with each entry's hit count and remaining
 * TTL as of shutdown. Demotion does not write (the record
 * already exists unless the entry's hit count changed); it flips the
 * record's residency so cold probes see it. A record whose content
 * identity (FNV-1a over function + key types + key bytes) is written
 * again supersedes the old frame, which becomes garbage; expiry
 * appends a Tombstone so swept entries cannot resurrect with a fresh
 * TTL on the next restart. Registration records persist (function,
 * key type) slots so a restarted daemon rebuilds its slots before any
 * application reconnects.
 *
 * TTL across restarts: records carry the TTL *remaining* at append
 * time (the in-process clock's epoch does not survive a restart);
 * attach() converts remaining back to absolute expiry on the service
 * clock.
 *
 * Laziness: recovery parses record *headers* only — key vectors fault
 * in as the metas are built, value pages stay untouched, and the
 * full-record CRC is verified at promote() time (sidecar-covered
 * frames were durable before the sidecar named them; the raw log tail
 * past the sidecar's indexed_len is the only part scanned with eager
 * CRC checks).
 *
 * Concurrency: one internal mutex guards all store state. The service
 * calls every ColdTier hook with NO service locks held (see
 * cold_tier.h), and the store never calls into the service while
 * holding its mutex. Lock-order edges run only the other way, both
 * from the service's own visitors: attach() notes each registration
 * under the service's table lock, and close() re-appends each RAM
 * entry under its function's shared domain lock. The maintenance
 * thread (expiry sweep, cold-capacity eviction, compaction, sidecar
 * rewrite) contends only on the store mutex.
 */
#ifndef POTLUCK_STORE_TIERED_STORE_H
#define POTLUCK_STORE_TIERED_STORE_H

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/cold_tier.h"
#include "core/potluck_service.h"
#include "store/cold_index.h"
#include "store/segment_file.h"
#include "util/rng.h"

namespace potluck::store {

/** Tiered-store tunables. */
struct StoreConfig
{
    /** Directory holding segments + sidecar; created if absent. */
    std::string dir;

    /**
     * Byte budget for COLD (demoted, non-resident) record payloads;
     * 0 = unbounded. When exceeded, the lowest-importance cold
     * records are dropped oldest-garbage-first. Disk files may
     * transiently exceed this until compaction reclaims garbage.
     */
    size_t cold_capacity_bytes = 0;

    /** Fixed capacity of each segment file. */
    size_t segment_bytes = 64ull << 20;

    /** Compact a sealed segment when garbage/tail exceeds this. */
    double compact_garbage_ratio = 0.5;

    /** Maintenance thread wake interval; 0 = no thread (tests drive
     * maintenance directly). */
    uint64_t maintenance_interval_ms = 1000;

    /** Rewrite the sidecar after this many log mutations. */
    size_t sidecar_rewrite_every = 4096;

    /**
     * Background scrub budget: cold-frame bytes CRC-verified per
     * second (token bucket, refilled each maintenance tick; bursts up
     * to one second of budget). 0 disables the background scrubber —
     * scrubNow() still works.
     */
    size_t scrub_rate_bytes_per_sec = 4ull << 20;
};

/** What open() recovered from the store directory. */
struct RecoveryReport
{
    size_t records = 0;        ///< live entry records recovered
    size_t from_sidecar = 0;   ///< addressed by the sidecar (lazy path)
    size_t from_scan = 0;      ///< replayed from raw log tails
    size_t registrations = 0;  ///< (function, key type) slots recovered
    size_t torn_segments = 0;  ///< segments that ended on a torn frame
    bool sidecar_valid = false;///< sidecar loaded and passed its CRC
};

/** The persistent disk tier. See file header. */
class TieredStore : public ColdTier
{
  public:
    /**
     * Open the store directory, recovering any previous contents.
     * @throws FatalError when the directory cannot be created or a
     *         segment cannot be mapped
     */
    explicit TieredStore(StoreConfig config);
    ~TieredStore() override;

    TieredStore(const TieredStore &) = delete;
    TieredStore &operator=(const TieredStore &) = delete;

    /**
     * Wire the store to a service: replay recovered registrations into
     * it, convert recovered remaining-TTLs to absolute expiry on its
     * clock, register store.* metrics, install this store as the
     * service's cold tier, and start the maintenance thread. The store
     * must outlive the service's use of it — call close() (or destroy
     * the store, which closes cleanly) before the service dies.
     */
    void attach(PotluckService &service);

    /**
     * Clean shutdown: stop the maintenance thread, re-append the
     * record of every entry still in RAM (its remaining TTL and hit
     * count as of now; a tombstone if it has expired), msync every
     * segment, rewrite the sidecar, and detach from the service.
     * Idempotent.
     */
    void close();

    /**
     * Crash-simulation shutdown for tests: detach and drop the
     * mappings WITHOUT the sidecar rewrite or msync — the next open()
     * sees exactly what a SIGKILL would have left (page cache
     * contents, stale or missing sidecar).
     */
    void closeDirty();

    /// @name ColdTier hooks (no service locks held; see cold_tier.h).
    /// @{
    void admit(const CacheEntry &entry) override;
    void demote(CacheEntry &&entry) override;
    bool promote(const std::string &function, const std::string &key_type,
                 const FeatureVector &key, double threshold,
                 ColdPromotion &out) override;
    void forget(const CacheEntry &entry) override;
    void noteRegistration(const std::string &function,
                          const KeyTypeConfig &cfg) override;
    /** Full-pass scrub ignoring the rate budget; returns frames
     * verified. Corrupt frames are quarantined. */
    size_t scrubNow() override;
    /// @}

    /// @name Maintenance steps (the thread runs these; tests may call
    /// them directly, e.g. with maintenance_interval_ms = 0).
    /// @{
    /** Tombstone expired cold records; returns how many. */
    size_t sweepExpiredCold();
    /** Drop lowest-importance cold records until within the cold
     * capacity budget; returns how many were dropped. */
    size_t enforceColdCapacity();
    /** Compact the most garbage-heavy sealed segment over the
     * threshold, if any; returns live records copied forward, or -1
     * when nothing qualified. */
    long compactOnce();
    /** Atomically rewrite the sidecar index. */
    void flushIndex();
    /** One budgeted increment of the background scrub: CRC-verify
     * cold frames until the token bucket runs dry, quarantining what
     * fails. Returns frames verified this step. */
    size_t scrubStep();
    /// @}

    /// @name Introspection.
    /// @{
    const RecoveryReport &recovery() const { return recovery_; }
    size_t coldEntries() const;
    size_t coldBytes() const;
    size_t trackedRecords() const;
    size_t numSegments() const;
    size_t quarantinedCount() const;
    const StoreConfig &config() const { return config_; }

    /**
     * Drain the repair queue: one request per freshly quarantined
     * record, carrying everything the cluster layer needs to re-fetch
     * it from a ring replica. A successful re-put of the same content
     * identity (repair or an ordinary local put) clears the
     * quarantine automatically.
     */
    std::vector<ColdRepairRequest> takeRepairRequests();

    /** Content identity: FNV-1a over function + each (key type name,
     * key bytes) in type order. Stable across restarts (entry ids are
     * not). */
    static uint64_t contentIdentity(const CacheEntry &entry);
    /// @}

  private:
    /** In-RAM index of one durable record. */
    struct RecordMeta
    {
        uint64_t gen = 0;
        uint64_t offset = 0;      ///< frame offset within the segment
        size_t frame_bytes = 0;   ///< whole frame (overhead included)
        size_t value_len = 0;
        size_t value_off = 0;     ///< payload-relative offset of value
        bool resident = true;     ///< RAM holds it; invisible to probes
        bool quarantined = false; ///< frame failed CRC; served as miss
        std::string function;
        std::string app;
        double overhead_us = 0.0;
        uint64_t access_frequency = 1;
        uint64_t remaining_ttl_us = 0; ///< as recovered; 0 after attach
        uint64_t expiry_us = 0;        ///< absolute (service clock)
        std::map<std::string, FeatureVector> keys;
    };

    /** Per-(function, key type) set of probe-visible record hashes. */
    using SlotKey = std::pair<std::string, std::string>;

    /** Probe-visible record hashes bucketed by key signature (FNV over
     * the key's float bytes), so an exact re-probe of a key the store
     * already holds is an O(1) bucket hit instead of a slot scan. */
    using SigBuckets =
        std::unordered_map<uint64_t, std::unordered_set<uint64_t>>;

    struct Metrics;

    void openDir();
    void acquireLock();
    void recover();
    void startThread();
    void stopThread();
    void maintenanceLoop();
    void closeImpl(bool dirty);

    /** How a log append ended. */
    enum class AppendResult
    {
        Ok,
        Oversize, ///< payload can never fit a segment (permanent)
        Faulted,  ///< write or rotation failed (transient; degrade)
    };

    /** Append a framed payload, rotating to a new segment when the
     * active one is full. */
    AppendResult appendFrame(const std::string &payload, uint64_t &gen,
                             uint64_t &offset);
    /** Seal the active segment and open generation + 1. Returns false
     * when the new segment cannot be created (full/failing disk). */
    bool rotateSegment();

    std::string encodeEntry(const CacheEntry &entry, uint64_t key_hash,
                            uint64_t remaining_ttl_us) const;
    bool decodeEntry(const uint8_t *payload, size_t n, RecordMeta &meta,
                     uint64_t &key_hash) const;

    /** Append an Entry record for `entry` with its TTL remaining at
     * `now`; replaces any previous record with the same identity.
     * Caller holds mutex_. */
    void writeEntryRecord(const CacheEntry &entry, uint64_t key_hash,
                          bool resident, uint64_t now);
    /** Tombstone + forget a record. Caller holds mutex_. */
    void dropRecord(uint64_t key_hash, const char *why);
    size_t enforceColdCapacityLocked();
    /** @return true when the sidecar made it to disk. */
    bool flushIndexLocked();
    /** Mark a record's frame as garbage. Caller holds mutex_. */
    void markGarbage(const RecordMeta &meta);
    void addToSlots(uint64_t key_hash, const RecordMeta &meta);
    void removeFromSlots(uint64_t key_hash, const RecordMeta &meta);
    void noteMutation();
    void refreshGauges();
    SidecarImage buildImage() const;

    /** Quarantine a corrupt record and queue it for repair. Caller
     * holds mutex_. */
    void quarantineRecord(uint64_t key_hash, RecordMeta &meta);
    /** Verify cold frames; full pass when `respect_budget` is false.
     * Caller holds mutex_. Returns frames verified. */
    size_t scrubLocked(bool respect_budget);
    /** A store write path failed: count it and push maintenance into
     * exponential backoff with jitter. Caller holds mutex_. */
    void noteWriteFault(const char *what);
    /** True while maintenance should stay off the (failing) disk. */
    bool inBackoff() const;

    StoreConfig config_;
    RecoveryReport recovery_;

    mutable std::mutex mutex_;
    bool closed_ = false;

    /** Segments by generation; the highest is the active one. */
    std::map<uint64_t, std::unique_ptr<SegmentFile>> segments_;
    uint64_t active_gen_ = 0;
    /** Garbage bytes per generation (superseded + tombstoned frames,
     * tombstone/registration frames themselves once superseded). */
    std::map<uint64_t, size_t> garbage_;

    std::unordered_map<uint64_t, RecordMeta> records_;
    /** Probe-visible (non-resident, live) hashes per slot. */
    std::map<SlotKey, SigBuckets> slots_;
    /** Persisted registrations, in noteRegistration order. */
    std::vector<SidecarRegistration> registrations_;
    /** Each persisted slot's settings: its metric and, for a Hash
     * slot, the exact-only cold probe. */
    std::map<SlotKey, KeyTypeConfig> slot_configs_;

    size_t cold_bytes_ = 0; ///< frame bytes of probe-visible records
    size_t cold_count_ = 0; ///< probe-visible record count (gauge)
    size_t mutations_since_flush_ = 0;

    /** Quarantined records by content identity: repair inputs kept
     * even after the bad frame itself is dropped by compaction. */
    std::unordered_map<uint64_t, ColdRepairRequest> quarantine_;
    /** Freshly quarantined identities awaiting repair dispatch. */
    std::vector<uint64_t> repair_queue_;

    /** Scrub cursor: a snapshot of cold hashes walked incrementally
     * across steps, plus the byte-rate token bucket. */
    std::vector<uint64_t> scrub_batch_;
    size_t scrub_pos_ = 0;
    double scrub_tokens_ = 0.0;
    uint64_t scrub_refill_ms_ = 0; ///< steady-clock ms of last refill

    /** Degraded-write backoff (steady-clock ms deadline + level). */
    uint64_t backoff_until_ms_ = 0;
    uint32_t backoff_level_ = 0;
    Rng backoff_rng_{0x5c72b5eedull};

    int lock_fd_ = -1; ///< O_EXCL pidfile guarding the directory

    PotluckService *service_ = nullptr;
    obs::FlightRecorder *recorder_ = nullptr;
    std::unique_ptr<Metrics> obs_;

    std::thread maintenance_;
    std::condition_variable maintenance_cv_;
    std::mutex maintenance_mutex_;
    bool stop_ = false;
};

} // namespace potluck::store

#endif // POTLUCK_STORE_TIERED_STORE_H
