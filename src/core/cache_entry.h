/**
 * @file
 * CacheEntry and the importance metric (Section 3.3):
 *
 *   importance = computation_overhead * access_frequency / entry_size
 *
 * computation_overhead is the elapsed time between the lookup() miss
 * and the put() of the entry; access_frequency starts at 1 and is
 * incremented by each lookup() hit; entry_size is the stored byte
 * footprint. Each entry also carries a validity period after which the
 * background manager clears it.
 */
#ifndef POTLUCK_CORE_CACHE_ENTRY_H
#define POTLUCK_CORE_CACHE_ENTRY_H

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "core/value.h"
#include "features/feature_vector.h"

namespace potluck {

/** Monotonically increasing cache entry identifier. */
using EntryId = uint64_t;

/** One cached computation result with its bookkeeping. */
struct CacheEntry
{
    EntryId id = 0;

    /** Function whose result this is (Fig. 5's first-level key). */
    std::string function;

    /** Key per key type (an entry is indexed under every type). */
    std::map<std::string, FeatureVector> keys;

    /** The cached result. */
    Value value;

    /** Registering application (for the reputation extension). */
    std::string app;

    /// @name Importance inputs (Section 3.3).
    /// @{
    double compute_overhead_us = 0.0;

    /**
     * Hit count. Atomic because lookup() bumps it under its function
     * domain's SHARED lock (concurrent hits on the same entry must not
     * race); everything else about the entry is immutable after
     * insertion or mutated only under the domain's exclusive lock.
     */
    std::atomic<uint64_t> access_frequency{1};
    /// @}

    /** Absolute expiry time (Clock::nowUs() domain). */
    uint64_t expiry_us = 0;

    /** Insertion time; doubles as the LRU baseline's initial stamp. */
    uint64_t inserted_us = 0;

    /** Last access time (for the LRU baseline); atomic like
     * access_frequency — hits stamp it under the shared lock. */
    std::atomic<uint64_t> last_access_us{0};

    CacheEntry() = default;
    CacheEntry(const CacheEntry &other) { *this = other; }
    CacheEntry(CacheEntry &&other) noexcept { *this = std::move(other); }

    /** Copy (atomics transfer by value; relaxed is enough — copies
     * happen while the source is lock-protected or thread-local). */
    CacheEntry &
    operator=(const CacheEntry &other)
    {
        if (this == &other)
            return *this;
        id = other.id;
        function = other.function;
        keys = other.keys;
        value = other.value;
        app = other.app;
        compute_overhead_us = other.compute_overhead_us;
        access_frequency.store(
            other.access_frequency.load(std::memory_order_relaxed),
            std::memory_order_relaxed);
        expiry_us = other.expiry_us;
        inserted_us = other.inserted_us;
        last_access_us.store(
            other.last_access_us.load(std::memory_order_relaxed),
            std::memory_order_relaxed);
        return *this;
    }

    CacheEntry &
    operator=(CacheEntry &&other) noexcept
    {
        if (this == &other)
            return *this;
        id = other.id;
        function = std::move(other.function);
        keys = std::move(other.keys);
        value = std::move(other.value);
        app = std::move(other.app);
        compute_overhead_us = other.compute_overhead_us;
        access_frequency.store(
            other.access_frequency.load(std::memory_order_relaxed),
            std::memory_order_relaxed);
        expiry_us = other.expiry_us;
        inserted_us = other.inserted_us;
        last_access_us.store(
            other.last_access_us.load(std::memory_order_relaxed),
            std::memory_order_relaxed);
        return *this;
    }

    /** Total byte footprint: value plus every key vector. */
    size_t sizeBytes() const;

    /** The importance metric (Section 3.3). */
    double importance() const;
};

} // namespace potluck

#endif // POTLUCK_CORE_CACHE_ENTRY_H
