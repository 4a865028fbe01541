/**
 * @file
 * Eviction policies (Section 5.3): the paper's importance-based policy
 * plus the LRU and random-discard baselines it is compared against.
 * A policy selects the victim among the current entries when the cache
 * is full.
 */
#ifndef POTLUCK_CORE_EVICTION_H
#define POTLUCK_CORE_EVICTION_H

#include <map>
#include <memory>
#include <optional>

#include "core/cache_entry.h"
#include "core/config.h"
#include "util/rng.h"

namespace potluck {

/** Picks which entry to discard when the cache is full. */
class EvictionPolicy
{
  public:
    virtual ~EvictionPolicy() = default;

    virtual EvictionKind kind() const = 0;

    /**
     * Choose the victim among entries; must not be called when empty.
     * @param entries  the live entry table
     */
    virtual EntryId selectVictim(const std::map<EntryId, CacheEntry> &entries) = 0;

    /**
     * Total-order score for victim selection across several entry
     * tables (the service keeps one per function): each table's
     * selectVictim() candidate competes, and the one with the LOWEST
     * score loses, ties to the lowest id — the entry selectVictim()
     * would pick from all tables merged.
     */
    virtual double
    victimScore(const CacheEntry &entry) const
    {
        (void)entry;
        return 0.0;
    }

    /**
     * For policies that pick by position rather than by score: the
     * victim's position among `total` (> 0) entries, counted across
     * the tables in a fixed order. nullopt (the default) means compare
     * victimScore() instead.
     */
    virtual std::optional<size_t>
    victimPosition(size_t total)
    {
        (void)total;
        return std::nullopt;
    }
};

/** Evict the entry with the lowest importance (Section 3.3). */
class ImportanceEviction : public EvictionPolicy
{
  public:
    EvictionKind kind() const override { return EvictionKind::Importance; }
    EntryId
    selectVictim(const std::map<EntryId, CacheEntry> &entries) override;

    double
    victimScore(const CacheEntry &entry) const override
    {
        return entry.importance();
    }
};

/** Evict the least recently accessed entry. */
class LruEviction : public EvictionPolicy
{
  public:
    EvictionKind kind() const override { return EvictionKind::Lru; }
    EntryId
    selectVictim(const std::map<EntryId, CacheEntry> &entries) override;

    double
    victimScore(const CacheEntry &entry) const override
    {
        return static_cast<double>(
            entry.last_access_us.load(std::memory_order_relaxed));
    }
};

/** Evict a uniformly random entry. */
class RandomEviction : public EvictionPolicy
{
  public:
    explicit RandomEviction(uint64_t seed) : rng_(seed) {}

    EvictionKind kind() const override { return EvictionKind::Random; }
    EntryId
    selectVictim(const std::map<EntryId, CacheEntry> &entries) override;

    /** One uniform draw over [0, total). */
    std::optional<size_t> victimPosition(size_t total) override;

  private:
    Rng rng_;
};

/** Factory over the three policies. */
std::unique_ptr<EvictionPolicy> makeEvictionPolicy(EvictionKind kind,
                                                   uint64_t seed);

} // namespace potluck

#endif // POTLUCK_CORE_EVICTION_H
