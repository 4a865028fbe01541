/**
 * @file
 * ColdTier: the interface the service's hot path sees of the tiered
 * persistent store (src/store). The in-RAM DataStorage is the hot
 * tier; an attached ColdTier absorbs importance-based demotions
 * instead of drops, answers threshold-restricted probes on the lookup
 * miss tail, and keeps a durable write-through record of every put so
 * a restarted daemon comes back warm.
 *
 * The interface lives in core (not src/store) so PotluckService does
 * not depend on the store library: the concrete TieredStore links
 * against core, and the daemon/tests wire the two together. With no
 * tier attached every hook is a single null-pointer branch and the
 * service behaves exactly as before.
 *
 * Threading: every method is invoked with NO service locks held (the
 * service copies or moves what the tier needs first), so
 * implementations may do file I/O and take their own locks freely.
 * promote() may be called concurrently from many lookup threads;
 * admit()/demote()/forget() are serialized per entry by the service's
 * domain locking but may interleave across entries.
 */
#ifndef POTLUCK_CORE_COLD_TIER_H
#define POTLUCK_CORE_COLD_TIER_H

#include <cstdint>
#include <map>
#include <string>

#include "core/cache_entry.h"
#include "core/function_table.h"
#include "features/feature_vector.h"

namespace potluck {

/** A cold-tier probe that matched: the faulted-in entry, ready to be
 * re-inserted into RAM, and its distance from the query. */
struct ColdPromotion
{
    CacheEntry entry;
    double dist = 0.0;
};

/**
 * A quarantined record the tier wants re-fetched from a replica: the
 * scrubber found its frame corrupt, so only the RAM-side meta (keys,
 * importance inputs) survives. The cluster layer fetches the value
 * from ring successors by (function, key type, key) and re-puts it.
 */
struct ColdRepairRequest
{
    uint64_t identity = 0; ///< content identity of the lost record
    std::string function;
    std::map<std::string, FeatureVector> keys;
    double overhead_us = 0.0;
    uint64_t expiry_us = 0; ///< absolute, on the service clock
};

/** Disk tier consulted by the service's put/miss/evict/expiry paths. */
class ColdTier
{
  public:
    virtual ~ColdTier() = default;

    /**
     * Durable write-through: a fresh entry was stored in RAM. The tier
     * records it (replacing any previous record with the same content
     * identity) but does NOT make it probe-visible — the RAM copy
     * serves reads until the entry is demoted.
     */
    virtual void admit(const CacheEntry &entry) = 0;

    /**
     * Capacity eviction hands the victim over instead of destroying
     * it: the tier takes ownership, makes the entry visible to
     * promote() probes, and serves its value from disk from now on.
     * A victim that has already expired is dropped from the tier
     * instead, as forget() would.
     */
    virtual void demote(CacheEntry &&entry) = 0;

    /**
     * Probe the cold entries of (function, key_type) for a key within
     * `threshold`. On a match the record's value is faulted in from
     * disk, the entry leaves the cold tier (the caller re-inserts it
     * into RAM — promotion), and `out` is filled. Expired or
     * corrupt-on-read records are dropped, never returned.
     */
    virtual bool promote(const std::string &function,
                         const std::string &key_type,
                         const FeatureVector &key, double threshold,
                         ColdPromotion &out) = 0;

    /**
     * The entry is gone for good (expiry sweep): drop its durable
     * record too, so it cannot resurrect on the next warm restart.
     */
    virtual void forget(const CacheEntry &entry) = 0;

    /**
     * A (function, key type) slot was registered with the service.
     * The tier persists the registration so a warm restart can
     * rebuild the service's slots before any application reconnects.
     * Code-valued settings (extractors, equivalence predicates) are
     * not persisted — apps re-attach them, which is idempotent.
     */
    virtual void noteRegistration(const std::string &function,
                                  const KeyTypeConfig &cfg) = 0;

    /**
     * Integrity check on demand (the `potluck_cli scrub` verb): verify
     * every cold record's checksum now, ignoring any background rate
     * budget, and quarantine what fails. Returns frames verified.
     * Tiers without media to scrub report 0.
     */
    virtual size_t scrubNow() { return 0; }
};

} // namespace potluck

#endif // POTLUCK_CORE_COLD_TIER_H
