#include "cluster/peer_ring.h"

#include <algorithm>

#include "obs/heat.h"
#include "util/logging.h"

namespace potluck::cluster {

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

uint64_t
fnv1aStr(const std::string &s, uint64_t h)
{
    return fnv1a(s.data(), s.size(), h);
}

/**
 * Bit-mixing finalizer (splitmix64). FNV-1a alone avalanches poorly
 * on short strings like "#17", which skews the ring badly — one
 * member of three can end up owning < 10% of the slots. Ring
 * placement needs uniform high bits.
 */
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

} // namespace

PeerRing::PeerRing(std::vector<std::string> members, size_t virtual_nodes)
    : members_(std::move(members))
{
    POTLUCK_ASSERT(!members_.empty(), "peer ring needs at least one member");
    POTLUCK_ASSERT(virtual_nodes >= 1, "peer ring needs >= 1 virtual node");
    for (size_t i = 0; i < members_.size(); ++i) {
        POTLUCK_ASSERT(!members_[i].empty(), "empty ring member identity");
        for (size_t j = i + 1; j < members_.size(); ++j) {
            if (members_[i] == members_[j])
                POTLUCK_FATAL("duplicate ring member '" << members_[i]
                                                        << "'");
        }
    }

    ring_.reserve(members_.size() * virtual_nodes);
    for (uint32_t m = 0; m < members_.size(); ++m) {
        // Point hash depends only on the member STRING and the vnode
        // index — never on the member's position in our local list —
        // so every node derives the same global ring.
        uint64_t base = fnv1aStr(members_[m], 1469598103934665603ULL);
        for (size_t v = 0; v < virtual_nodes; ++v) {
            std::string vnode = "#" + std::to_string(v);
            ring_.push_back({mix(fnv1aStr(vnode, base)), m});
        }
    }
    std::sort(ring_.begin(), ring_.end(),
              [](const VirtualNode &a, const VirtualNode &b) {
                  if (a.hash != b.hash)
                      return a.hash < b.hash;
                  return a.member < b.member;
              });
}

uint64_t
PeerRing::slotHash(const std::string &function, const std::string &key_type)
{
    // Single source of truth: the heat sketch computes the identical
    // FNV-1a + 0-separator + splitmix64 hash, so heat readings and
    // ring placement always agree on what a "slot" is.
    return obs::HeatSketch::slotHash(function, key_type);
}

size_t
PeerRing::firstAtOrAfter(uint64_t h) const
{
    auto it = std::lower_bound(ring_.begin(), ring_.end(), h,
                               [](const VirtualNode &node, uint64_t value) {
                                   return node.hash < value;
                               });
    if (it == ring_.end())
        it = ring_.begin(); // wrap around
    return static_cast<size_t>(it - ring_.begin());
}

size_t
PeerRing::ownerOf(const std::string &function,
                  const std::string &key_type) const
{
    return ring_[firstAtOrAfter(slotHash(function, key_type))].member;
}

std::vector<size_t>
PeerRing::ringOrder(const std::string &function,
                    const std::string &key_type) const
{
    std::vector<size_t> order;
    order.reserve(members_.size());
    std::vector<bool> seen(members_.size(), false);
    size_t start = firstAtOrAfter(slotHash(function, key_type));
    for (size_t i = 0; i < ring_.size() && order.size() < members_.size();
         ++i) {
        uint32_t m = ring_[(start + i) % ring_.size()].member;
        if (!seen[m]) {
            seen[m] = true;
            order.push_back(m);
        }
    }
    return order;
}

} // namespace potluck::cluster
