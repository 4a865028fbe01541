/**
 * @file
 * The multi-level cache layout of Fig. 5: function name -> key type ->
 * key index. Each (function, key type) pair owns an Index plus its
 * ThresholdTuner (tuning is per key index, Section 3.7); each function
 * owns the entries its slots index, behind one lock (FunctionDomain).
 */
#ifndef POTLUCK_CORE_FUNCTION_TABLE_H
#define POTLUCK_CORE_FUNCTION_TABLE_H

#include <atomic>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/data_storage.h"
#include "core/index.h"
#include "core/threshold_tuner.h"
#include "features/extractor.h"
#include "obs/histogram.h"
#include "obs/metrics.h"

namespace potluck {

/**
 * Equivalence predicate over cached values, used by the threshold
 * tuner to decide whether two results are "the same" (Algorithm 1's
 * val' = val test). Byte equality when unset. Applications whose
 * results are never byte-identical (e.g. rendered frames) register a
 * semantic predicate instead — the natural extension of Section 4.2's
 * custom comparison logic, without which Algorithm 1 could never
 * loosen for such functions.
 */
using ValueEquivalence = std::function<bool(const Value &, const Value &)>;

/** Declaration of a key type an application registers for a function. */
struct KeyTypeConfig
{
    std::string name;                     ///< e.g. "downsamp", "fast"
    Metric metric = Metric::L2;           ///< comparison metric
    IndexKind index_kind = IndexKind::KdTree; ///< backing structure
    ValueEquivalence value_equals{};      ///< tuner equivalence; null = bytes

    /// @name LSH tuning (used only when index_kind == IndexKind::Lsh).
    /// The bucket width should be a small multiple of the expected
    /// same-result key distance for good recall.
    /// @{
    int lsh_tables = 8;
    int lsh_projections = 6;
    double lsh_bucket_width = 4.0;
    /// @}
};

/**
 * Per-slot operation counters (a function's own hit profile).
 * The counters are atomic because the service bumps lookups/hits/
 * misses with at most a SHARED domain lock held (concurrent lookups on
 * the same slot must not race); copies (the slotStats() snapshot)
 * transfer the values relaxed.
 */
struct SlotStats
{
    std::atomic<uint64_t> lookups{0};
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> puts{0};

    SlotStats() = default;
    SlotStats(const SlotStats &other) { *this = other; }

    SlotStats &
    operator=(const SlotStats &other)
    {
        if (this == &other)
            return *this;
        lookups.store(other.lookups.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
        hits.store(other.hits.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
        misses.store(other.misses.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
        puts.store(other.puts.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
        return *this;
    }

    double
    hitRate() const
    {
        uint64_t answered = hits.load(std::memory_order_relaxed) +
                            misses.load(std::memory_order_relaxed);
        return answered ? static_cast<double>(hits.load(
                              std::memory_order_relaxed)) /
                              answered
                        : 0.0;
    }
};

/** One (function, key type) slot: the index, its tuner, its stats. */
struct KeyIndex
{
    KeyTypeConfig config;
    std::unique_ptr<Index> index;
    ThresholdTuner tuner;
    SlotStats stats;

    /** Derives this slot's key from a put's raw input (Section 3.7);
     * null when puts always carry the key. Guarded by the domain. */
    std::shared_ptr<FeatureExtractor> extractor;

    /// @name Per-FUNCTION observability hooks (src/obs).
    /// Slots of the same function share these registry objects, so a
    /// lookup bumps its function's counters without a map probe. The
    /// service wires them in registerKeyType(); the histogram stays
    /// null when tracing is disabled (null = span no-op).
    /// @{
    obs::Counter *fn_lookups = nullptr;
    obs::Counter *fn_hits = nullptr;
    obs::Counter *fn_misses = nullptr;
    /** Whole milliseconds of computation this function's hits saved
     * (`fn.<function>.saved_ms`); fed through this slot's
     * `saved_us_carry` so sub-millisecond hits still add up. */
    obs::Counter *fn_saved_ms = nullptr;
    obs::LatencyHistogram *fn_lookup_ns = nullptr;
    /// @}

    /** Microsecond carry feeding fn_saved_ms (relaxed atomic, bumped
     * with no lock held like SlotStats). */
    std::atomic<uint64_t> saved_us_carry{0};

    KeyIndex(KeyTypeConfig cfg, std::unique_ptr<Index> idx,
             const PotluckConfig &svc_cfg)
        : config(std::move(cfg)), index(std::move(idx)), tuner(svc_cfg)
    {}
};

/**
 * One function's row of Fig. 5 — its key-type slots and the entries
 * they index — and the service's unit of locking (DESIGN.md §10).
 * Every key of an entry belongs to a slot of its function (Section
 * 3.7), so `mutex` covers everything one lookup or put touches: the
 * slots' indices and tuners and the storage. The slot map itself
 * changes only under both `mutex` and the owner's table lock.
 */
struct FunctionDomain
{
    explicit FunctionDomain(std::string name) : function(std::move(name)) {}

    const std::string function;
    mutable std::shared_mutex mutex;
    /** Key type -> slot. Grows only, so slot addresses are stable. */
    std::unordered_map<std::string, std::unique_ptr<KeyIndex>> slots;
    DataStorage storage;

    /** The slot for a key type; nullptr if never registered. */
    KeyIndex *find(const std::string &key_type) const;

    /** Store an entry and index it under every key it carries; each
     * indexing slot's tuner counts the insert towards its warm-up. */
    CacheEntry &insert(CacheEntry entry);

    /** Unindex and remove an entry, handing it back by move; a default
     * entry (id 0) when the id is not stored. */
    CacheEntry remove(EntryId id);

    /** Remove an entry's keys from every slot that indexes them. */
    void unindex(const CacheEntry &entry);
};

/** Two-level map from function name to key-type slots (Fig. 5). Not
 * synchronized: the owner serializes changes against readers. */
class FunctionTable
{
  public:
    explicit FunctionTable(const PotluckConfig &config) : config_(config) {}

    /** The function's domain, created empty on first use. */
    FunctionDomain &addFunction(const std::string &function);

    /**
     * Ensure a slot exists for (function, key type); returns it.
     * Re-registration with a different metric or index kind is a
     * caller error (FatalError). Index seeds follow the global order
     * in which slots are first registered.
     */
    KeyIndex &ensure(const std::string &function, const KeyTypeConfig &cfg);

    /** The function's domain; nullptr if it was never registered. */
    FunctionDomain *domain(const std::string &function) const;

    /** Find a slot; nullptr if the pair was never registered. */
    KeyIndex *find(const std::string &function,
                   const std::string &key_type) const;

    /** All slots registered for a function (empty if unknown). */
    std::vector<KeyIndex *> slotsFor(const std::string &function) const;

    /** Remove an entry's keys from every index of its function. */
    void removeEntry(const CacheEntry &entry);

    /** Every function's domain, in registration order. */
    const std::vector<FunctionDomain *> &domains() const { return order_; }

    size_t numFunctions() const { return order_.size(); }

  private:
    PotluckConfig config_;
    uint64_t next_index_seed_ = 1;
    std::unordered_map<std::string, std::unique_ptr<FunctionDomain>>
        functions_;
    std::vector<FunctionDomain *> order_;
};

} // namespace potluck

#endif // POTLUCK_CORE_FUNCTION_TABLE_H
