#include "obs/heat.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/logging.h"

namespace potluck::obs {

namespace {

/** FNV-1a (64-bit offset basis and prime). */
uint64_t
fnv1a(const void *data, size_t len, uint64_t h = 1469598103934665603ULL)
{
    const auto *bytes = static_cast<const uint8_t *>(data);
    for (size_t i = 0; i < len; ++i) {
        h ^= bytes[i];
        h *= 1099511628211ULL;
    }
    return h;
}

/** splitmix64 finalizer (see PeerRing: uniform high bits). */
uint64_t
mix(uint64_t h)
{
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebULL;
    h ^= h >> 31;
    return h;
}

/** Lazy decay granularity: ticks of half_life / 8 (~8.3% per tick). */
constexpr uint64_t kTicksPerHalfLife = 8;

} // namespace

double
HotSlot::ratePerSec(uint64_t half_life_us) const
{
    if (half_life_us == 0)
        return 0.0;
    // Steady state: heat = rate * half_life / ln2.
    return heat * 0.6931471805599453 / (half_life_us / 1e6);
}

uint64_t
HeatSketch::slotHash(std::string_view function, std::string_view key_type)
{
    uint64_t h = fnv1a(function.data(), function.size());
    uint8_t sep = 0; // unambiguous (function, key_type) split
    h = fnv1a(&sep, 1, h);
    return mix(fnv1a(key_type.data(), key_type.size(), h));
}

HeatSketch::HeatSketch(HeatConfig config) : config_(config)
{
    POTLUCK_ASSERT(config_.stripes >= 1, "heat sketch needs >= 1 stripe");
    POTLUCK_ASSERT(config_.capacity >= 1, "heat sketch needs capacity >= 1");
    stripes_ = std::vector<Stripe>(config_.stripes);
    for (auto &stripe : stripes_) {
        stripe.entries.reserve(config_.capacity);
        stripe.index.reserve(config_.capacity);
    }
}

void
HeatSketch::decayLocked(Stripe &stripe, uint64_t now_us) const
{
    if (config_.half_life_us == 0)
        return;
    uint64_t tick_us = config_.half_life_us / kTicksPerHalfLife;
    if (tick_us == 0)
        tick_us = 1;
    if (stripe.last_decay_us == 0) {
        stripe.last_decay_us = now_us;
        return;
    }
    if (now_us <= stripe.last_decay_us + tick_us)
        return;
    uint64_t elapsed = now_us - stripe.last_decay_us;
    uint64_t ticks = elapsed / tick_us;
    stripe.last_decay_us += ticks * tick_us;
    // 2^(-ticks / kTicksPerHalfLife)
    double factor = std::exp2(-static_cast<double>(ticks) /
                              static_cast<double>(kTicksPerHalfLife));
    double rearm = config_.hot_threshold * 0.5;
    for (auto &entry : stripe.entries) {
        entry.heat *= factor;
        entry.error *= factor;
        if (entry.hot_latched && config_.hot_threshold > 0.0 &&
            entry.heat < rearm)
            entry.hot_latched = false;
    }
}

bool
HeatSketch::feed(std::string_view function, std::string_view key_type,
                 HeatKind kind, uint64_t now_us, uint64_t count)
{
    if (count == 0)
        return false;
    uint64_t slot = slotHash(function, key_type);
    Stripe &stripe = stripes_[mix(slot + 0x9e3779b97f4a7c15ULL) %
                              stripes_.size()];

    std::unique_lock<std::mutex> lock(stripe.mu, std::try_to_lock);
    if (!lock.owns_lock()) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    decayLocked(stripe, now_us);

    Entry *entry = nullptr;
    auto it = stripe.index.find(slot);
    if (it != stripe.index.end()) {
        entry = &stripe.entries[it->second];
    } else if (stripe.entries.size() < config_.capacity) {
        stripe.index.emplace(slot, stripe.entries.size());
        stripe.entries.emplace_back();
        entry = &stripe.entries.back();
        entry->slot = slot;
    } else {
        // Space-Saving eviction: replace the minimum-heat entry and
        // inherit its heat as the newcomer's overestimate bound.
        size_t victim = 0;
        for (size_t i = 1; i < stripe.entries.size(); ++i) {
            if (stripe.entries[i].heat < stripe.entries[victim].heat)
                victim = i;
        }
        entry = &stripe.entries[victim];
        stripe.index.erase(entry->slot);
        stripe.index.emplace(slot, victim);
        entry->slot = slot;
        entry->error = entry->heat;
        entry->hits = entry->misses = entry->puts = 0;
        entry->hot_latched = false;
        entry->label[0] = '\0';
    }

    if (entry->label[0] == '\0') {
        size_t n = 0;
        for (size_t i = 0; i < function.size() && n < kLabelBytes - 1; ++i)
            entry->label[n++] = function[i];
        if (n < kLabelBytes - 1)
            entry->label[n++] = '/';
        for (size_t i = 0; i < key_type.size() && n < kLabelBytes - 1; ++i)
            entry->label[n++] = key_type[i];
        entry->label[n] = '\0';
    }

    entry->heat += static_cast<double>(count);
    switch (kind) {
      case HeatKind::Hit:
        entry->hits += count;
        break;
      case HeatKind::Miss:
        entry->misses += count;
        break;
      case HeatKind::Put:
        entry->puts += count;
        break;
    }

    if (config_.hot_threshold > 0.0 && !entry->hot_latched &&
        entry->heat >= config_.hot_threshold) {
        entry->hot_latched = true;
        return true;
    }
    return false;
}

std::vector<HotSlot>
HeatSketch::topK(size_t k, uint64_t now_us) const
{
    std::vector<HotSlot> out;
    for (auto &stripe : stripes_) {
        std::lock_guard<std::mutex> lock(stripe.mu);
        decayLocked(stripe, now_us);
        for (const auto &entry : stripe.entries) {
            HotSlot slot;
            slot.slot = entry.slot;
            slot.label = entry.label;
            slot.heat = entry.heat;
            slot.error = entry.error;
            slot.hits = entry.hits;
            slot.misses = entry.misses;
            slot.puts = entry.puts;
            out.push_back(std::move(slot));
        }
    }
    std::sort(out.begin(), out.end(), [](const HotSlot &a, const HotSlot &b) {
        if (a.heat != b.heat)
            return a.heat > b.heat;
        return a.slot < b.slot;
    });
    if (out.size() > k)
        out.resize(k);
    return out;
}

uint64_t
HeatSketch::droppedSamples() const
{
    return dropped_.load(std::memory_order_relaxed);
}

size_t
HeatSketch::trackedSlots() const
{
    size_t total = 0;
    for (auto &stripe : stripes_) {
        std::lock_guard<std::mutex> lock(stripe.mu);
        total += stripe.entries.size();
    }
    return total;
}

size_t
HeatSketch::memoryBytesPerStripe() const
{
    // Entries vector + hash map nodes (bucket array + one node per
    // tracked slot; 64 B is a conservative libstdc++ node + bucket
    // estimate for a <u64, size_t> map).
    return config_.capacity * (sizeof(Entry) + 64) + sizeof(Stripe);
}

} // namespace potluck::obs
