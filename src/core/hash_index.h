/**
 * @file
 * HashIndex: exact-match index, O(1) search (Section 4.2: "A hashmap
 * is useful for the exact matching"). nearest() returns only keys with
 * identical content, at distance 0.
 */
#ifndef POTLUCK_CORE_HASH_INDEX_H
#define POTLUCK_CORE_HASH_INDEX_H

#include <unordered_map>

#include "core/index.h"

namespace potluck {

/**
 * The exact-match test of a Hash slot: bit-identical key bytes. The
 * index stores and probes the same wire bytes, so memcmp is both
 * faster than the element-wise float compare and stricter in the right
 * way: a NaN element keeps its entry retrievable (x != x would make
 * every probe of such a key miss forever). The tiered store's cold
 * probe of a Hash slot applies the same test.
 */
bool bitwiseEqual(const FeatureVector &a, const FeatureVector &b);

/** Exact-match hash index keyed by the FeatureVector content hash. */
class HashIndex : public Index
{
  public:
    explicit HashIndex(Metric metric) : Index(metric) {}

    IndexKind kind() const override { return IndexKind::Hash; }
    void insert(EntryId id, const FeatureVector &key) override;
    void remove(EntryId id) override;
    std::vector<Neighbor> nearest(const FeatureVector &key,
                                  size_t k) const override;
    size_t size() const override { return by_id_.size(); }

  private:
    std::unordered_multimap<uint64_t, EntryId> by_hash_;
    std::unordered_map<EntryId, FeatureVector> by_id_;
};

} // namespace potluck

#endif // POTLUCK_CORE_HASH_INDEX_H
