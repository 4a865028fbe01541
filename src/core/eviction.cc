#include "core/eviction.h"

#include <iterator>

#include "util/logging.h"

namespace potluck {

EntryId
ImportanceEviction::selectVictim(const std::map<EntryId, CacheEntry> &entries)
{
    POTLUCK_ASSERT(!entries.empty(), "eviction from empty cache");
    EntryId victim = entries.begin()->first;
    double lowest = entries.begin()->second.importance();
    for (const auto &[id, entry] : entries) {
        double imp = entry.importance();
        if (imp < lowest) {
            lowest = imp;
            victim = id;
        }
    }
    return victim;
}

EntryId
LruEviction::selectVictim(const std::map<EntryId, CacheEntry> &entries)
{
    POTLUCK_ASSERT(!entries.empty(), "eviction from empty cache");
    EntryId victim = entries.begin()->first;
    uint64_t oldest = entries.begin()->second.last_access_us;
    for (const auto &[id, entry] : entries) {
        if (entry.last_access_us < oldest) {
            oldest = entry.last_access_us;
            victim = id;
        }
    }
    return victim;
}

EntryId
RandomEviction::selectVictim(const std::map<EntryId, CacheEntry> &entries)
{
    POTLUCK_ASSERT(!entries.empty(), "eviction from empty cache");
    return std::next(entries.begin(),
                     static_cast<std::ptrdiff_t>(
                         *victimPosition(entries.size())))
        ->first;
}

std::optional<size_t>
RandomEviction::victimPosition(size_t total)
{
    return static_cast<size_t>(
        rng_.uniformInt(0, static_cast<int64_t>(total) - 1));
}

std::unique_ptr<EvictionPolicy>
makeEvictionPolicy(EvictionKind kind, uint64_t seed)
{
    switch (kind) {
      case EvictionKind::Importance:
        return std::make_unique<ImportanceEviction>();
      case EvictionKind::Lru:
        return std::make_unique<LruEviction>();
      case EvictionKind::Random:
        return std::make_unique<RandomEviction>(seed);
    }
    POTLUCK_PANIC("unknown eviction kind");
}

} // namespace potluck
