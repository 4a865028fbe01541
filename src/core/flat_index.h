/**
 * @file
 * FlatIndex: the exact index behind IndexKind::Linear and
 * IndexKind::KdTree. Keys of each length live in one float arena,
 * with their ids beside them; nearest() returns the true k nearest
 * keys, as brute-force enumeration over distance() would.
 *
 * L2 arenas of long keys also keep a PCA projection of every row. The
 * projected distance never exceeds the true one (GEMINI
 * lower-bounding, Faloutsos et al., SIGMOD 1994), so a multi-step
 * search starts from the rows with the smallest bounds and then
 * computes an exact distance only for rows whose bound is below the
 * current k-th best.
 */
#ifndef POTLUCK_CORE_FLAT_INDEX_H
#define POTLUCK_CORE_FLAT_INDEX_H

#include <memory>
#include <unordered_map>
#include <vector>

#include "core/index.h"

namespace potluck {

/** Exact kNN over a flat float arena, with a lower-bound filter. */
class FlatIndex : public Index
{
  public:
    /** @param kind  the name this index answers to: Linear or KdTree */
    FlatIndex(IndexKind kind, Metric metric);
    ~FlatIndex() override;

    IndexKind kind() const override { return kind_; }
    void insert(EntryId id, const FeatureVector &key) override;
    void remove(EntryId id) override;
    std::vector<Neighbor> nearest(const FeatureVector &key,
                                  size_t k) const override;
    size_t size() const override { return where_.size(); }

    /**
     * nearest(), also reporting how many stored rows of the key's
     * length it compared exactly (`exact`) out of how many it held
     * (`rows`).
     */
    std::vector<Neighbor> nearest(const FeatureVector &key, size_t k,
                                  size_t &exact, size_t &rows) const;

  private:
    struct Arena;

    /** Where an id's key lives: arena and row. */
    struct Location
    {
        size_t arena = 0;
        size_t row = 0;
    };

    const Arena *findArena(size_t dim) const;
    size_t arenaFor(size_t dim);
    void fitIfDue(Arena &arena);

    IndexKind kind_;
    std::vector<std::unique_ptr<Arena>> arenas_;
    std::unordered_map<EntryId, Location> where_;
};

} // namespace potluck

#endif // POTLUCK_CORE_FLAT_INDEX_H
