#include "core/hash_index.h"

#include <cstring>

namespace potluck {

bool
bitwiseEqual(const FeatureVector &a, const FeatureVector &b)
{
    if (a.size() != b.size())
        return false;
    return std::memcmp(a.values().data(), b.values().data(),
                       a.sizeBytes()) == 0;
}

void
HashIndex::insert(EntryId id, const FeatureVector &key)
{
    remove(id);
    by_hash_.emplace(key.hash(), id);
    by_id_.emplace(id, key);
}

void
HashIndex::remove(EntryId id)
{
    auto it = by_id_.find(id);
    if (it == by_id_.end())
        return;
    auto range = by_hash_.equal_range(it->second.hash());
    for (auto hit = range.first; hit != range.second; ++hit) {
        if (hit->second == id) {
            by_hash_.erase(hit);
            break;
        }
    }
    by_id_.erase(it);
}

std::vector<Neighbor>
HashIndex::nearest(const FeatureVector &key, size_t k) const
{
    std::vector<Neighbor> out;
    auto range = by_hash_.equal_range(key.hash());
    for (auto it = range.first; it != range.second && out.size() < k; ++it) {
        const FeatureVector &stored = by_id_.at(it->second);
        if (bitwiseEqual(stored, key)) // guard against hash collisions
            out.push_back({it->second, 0.0});
    }
    return out;
}

} // namespace potluck
