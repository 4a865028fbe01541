/**
 * @file
 * The multi-level cache layout of Fig. 5: function name -> key type ->
 * key index. Each (function, key type) pair owns an Index plus its
 * ThresholdTuner (tuning is per key index, Section 3.7).
 */
#ifndef POTLUCK_CORE_FUNCTION_TABLE_H
#define POTLUCK_CORE_FUNCTION_TABLE_H

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/index.h"
#include "core/threshold_tuner.h"
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
 * misses under a SHARED shard lock (concurrent lookups on the same
 * slot must not race); copies (the slotStats() snapshot) transfer the
 * values relaxed.
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

    /** Microsecond carry feeding fn_saved_ms (relaxed atomic; bumped
     * through the canonical shard-0 slot like SlotStats). */
    std::atomic<uint64_t> saved_us_carry{0};

    KeyIndex(KeyTypeConfig cfg, std::unique_ptr<Index> idx,
             const PotluckConfig &svc_cfg)
        : config(std::move(cfg)), index(std::move(idx)), tuner(svc_cfg)
    {}
};

/** Two-level map from function name to key-type slots (Fig. 5). */
class FunctionTable
{
  public:
    explicit FunctionTable(const PotluckConfig &config) : config_(config) {}

    /**
     * Ensure a slot exists for (function, key type); returns it.
     * Re-registration with a different metric or index kind is a
     * caller error (FatalError).
     */
    KeyIndex &ensure(const std::string &function, const KeyTypeConfig &cfg);

    /** Find a slot; nullptr if the pair was never registered. */
    KeyIndex *find(const std::string &function, const std::string &key_type);
    const KeyIndex *find(const std::string &function,
                         const std::string &key_type) const;

    /** All slots registered for a function (empty if unknown). */
    std::vector<KeyIndex *> slotsFor(const std::string &function);

    /** Remove an entry's keys from every index of its function. */
    void removeEntry(const CacheEntry &entry);

    /** Visit every slot (for diagnostics and whole-cache sweeps). */
    void forEachSlot(const std::function<void(const std::string &,
                                              KeyIndex &)> &fn);

    size_t numFunctions() const { return functions_.size(); }

  private:
    PotluckConfig config_;
    uint64_t next_index_seed_ = 1;
    std::unordered_map<std::string,
                       std::unordered_map<std::string,
                                          std::unique_ptr<KeyIndex>>>
        functions_;
};

} // namespace potluck

#endif // POTLUCK_CORE_FUNCTION_TABLE_H
