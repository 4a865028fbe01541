/**
 * @file
 * PeerRing: consistent-hash placement of cache slots across federated
 * daemons (DESIGN.md §11).
 *
 * Each member (a daemon, identified by a globally agreed endpoint
 * string — its socket path) projects `virtual_nodes` points onto a
 * 64-bit hash ring; a (function, key type) slot is owned by the member
 * whose point follows the slot's hash clockwise. Ownership is
 * slot-granular on purpose: all keys of one slot land on one owner, so
 * a forwarded miss probes exactly one peer, and that peer's
 * nearest-neighbour search covers every replicated key of the slot.
 *
 * The virtual-node hashes depend only on the member STRINGS, never on
 * local ordering, so every node in a full mesh computes the identical
 * ring and agrees on each slot's owner without any coordination.
 * Inside one daemon the unit of placement is coarser still: a
 * function is one lock domain of its service (DESIGN.md §10).
 */
#ifndef POTLUCK_CLUSTER_PEER_RING_H
#define POTLUCK_CLUSTER_PEER_RING_H

#include <cstdint>
#include <string>
#include <vector>

namespace potluck::cluster {

/** Consistent-hash ring over cluster members with virtual nodes. */
class PeerRing
{
  public:
    /**
     * @param members        unique member identities; by convention
     *                       members[0] is the local node
     * @param virtual_nodes  ring points per member (>= 1); more points
     *                       smooth the slot distribution
     */
    explicit PeerRing(std::vector<std::string> members,
                      size_t virtual_nodes = 64);

    size_t numMembers() const { return members_.size(); }
    const std::string &member(size_t i) const { return members_[i]; }

    /** Index (into the member list) of the slot's owning member. */
    size_t ownerOf(const std::string &function,
                   const std::string &key_type) const;

    /**
     * All member indices in ring order starting at the slot's hash
     * point, each member once: [0] is the owner, [1] the first replica
     * successor, and so on. Size == numMembers().
     */
    std::vector<size_t> ringOrder(const std::string &function,
                                  const std::string &key_type) const;

    /** FNV-1a slot hash (exposed for tests). */
    static uint64_t slotHash(const std::string &function,
                             const std::string &key_type);

  private:
    struct VirtualNode
    {
        uint64_t hash;
        uint32_t member;
    };

    /** First ring point at or after `h`, wrapping. */
    size_t firstAtOrAfter(uint64_t h) const;

    std::vector<std::string> members_;
    std::vector<VirtualNode> ring_; ///< sorted by hash
};

} // namespace potluck::cluster

#endif // POTLUCK_CLUSTER_PEER_RING_H
