/**
 * @file
 * Key index interface (Fig. 5's third level) and the factory over its
 * implementations. An index maps feature-vector keys to entry ids and
 * answers threshold-restricted k-nearest-neighbour queries.
 *
 * Implementations (Section 4.2): an exact flat index with a PCA
 * lower-bound filter (FlatIndex, behind both Linear and KdTree),
 * exact-match hashing (HashIndex), ordered tree for lexically
 * comparable keys (TreeIndex), and p-stable LSH for multi-dimensional
 * vectors.
 */
#ifndef POTLUCK_CORE_INDEX_H
#define POTLUCK_CORE_INDEX_H

#include <memory>
#include <string>
#include <vector>

#include "core/cache_entry.h"
#include "features/feature_vector.h"

namespace potluck {

/** One kNN result: the entry and its distance from the query. */
struct Neighbor
{
    EntryId id = 0;
    double dist = 0.0;
};

/** Index structure choices (Section 4.2's cache organization). */
enum class IndexKind
{
    Linear,  ///< exact nearest neighbours (FlatIndex)
    Hash,    ///< exact match, O(1)
    Tree,    ///< ordered map, O(log N) for lexically ordered keys
    KdTree,  ///< the same FlatIndex; a compatible name for old clients
    Lsh,     ///< p-stable locality sensitive hashing
};

const char *indexKindName(IndexKind kind);

/** Abstract key index over one key type. */
class Index
{
  public:
    virtual ~Index() = default;

    virtual IndexKind kind() const = 0;

    /** Insert a key for an entry. Keys need not be unique. */
    virtual void insert(EntryId id, const FeatureVector &key) = 0;

    /** Remove an entry's key; no-op if absent. */
    virtual void remove(EntryId id) = 0;

    /**
     * The k nearest stored keys to the query, ascending by distance.
     * May return fewer than k. Approximate structures (LSH) may miss
     * true neighbours by design.
     */
    virtual std::vector<Neighbor> nearest(const FeatureVector &key,
                                          size_t k) const = 0;

    virtual size_t size() const = 0;
    bool empty() const { return size() == 0; }

    Metric metric() const { return metric_; }

  protected:
    explicit Index(Metric metric) : metric_(metric) {}

    Metric metric_;
};

/**
 * Create an index of the requested kind.
 * @param metric  distance metric for the key type
 * @param seed    randomness for LSH hyperplanes
 */
std::unique_ptr<Index> makeIndex(IndexKind kind, Metric metric,
                                 uint64_t seed = 1);

} // namespace potluck

#endif // POTLUCK_CORE_INDEX_H
