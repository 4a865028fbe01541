#include "core/flat_index.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "features/pca.h"

namespace potluck {

namespace {

/** Floats per arena block (64 KiB). */
constexpr size_t kBlockFloats = 16384;

/** Projected components per row of a filtered arena. */
constexpr int kComponents = 16;

/** The filter serves L2 keys of at least this many floats. */
constexpr size_t kMinFilterDim = 32;

/** Rows at the first fit, and the most rows a fit samples. */
constexpr size_t kFitRows = 256;

/** Subspace iterations per fit. */
constexpr int kFitIters = 3;

/**
 * Slack on the bound test. The stored projections are floats, so a
 * computed bound can exceed the true one by float rounding: a few
 * parts in 10^7 of the bound itself, plus a few parts in 10^7 of the
 * query's distance from the fit mean. The slack is well above both,
 * so rounding never prunes a true neighbour.
 */
constexpr double kRelSlack = 1e-5;
constexpr double kAbsSlack = 1e-5;

/** Squared distance between two projections. */
inline float
boundSq(const float *a, const float *b)
{
    float acc[4] = {};
    for (int c = 0; c < kComponents; c += 4) {
#pragma GCC unroll 4
        for (int l = 0; l < 4; ++l) {
            const float d = a[c + l] - b[c + l];
            acc[l] += d * d;
        }
    }
    return (acc[0] + acc[1]) + (acc[2] + acc[3]);
}

/**
 * Order by (distance, id). As a heap's less-than it keeps the farthest
 * of the k best in front; the id makes ties independent of row order.
 */
inline bool
closer(const Neighbor &a, const Neighbor &b)
{
    return a.dist < b.dist || (a.dist == b.dist && a.id < b.id);
}

} // namespace

/** The rows of one key length. */
struct FlatIndex::Arena
{
    explicit Arena(size_t d)
        : dim(d),
          rows_per_block(std::max<size_t>(1, kBlockFloats /
                                                 std::max<size_t>(1, d)))
    {}

    size_t size() const { return ids.size(); }

    float *
    row(size_t r)
    {
        return blocks[r / rows_per_block].get() + (r % rows_per_block) * dim;
    }

    const float *
    row(size_t r) const
    {
        return blocks[r / rows_per_block].get() + (r % rows_per_block) * dim;
    }

    bool filtered() const { return pca.fitted(); }

    /** fn(r, row) for every row, block by block. */
    template <typename Fn>
    void
    forEachRow(Fn &&fn) const
    {
        for (size_t b = 0, r = 0; r < size(); ++b) {
            const size_t end = std::min(size(), r + rows_per_block);
            for (const float *row = blocks[b].get(); r < end; ++r, row += dim)
                fn(r, row);
        }
    }

    const size_t dim;
    const size_t rows_per_block;
    /** Allocated without zero-fill, and never reallocated: growth
     * adds a block instead of copying the rows to a larger buffer. */
    std::vector<std::unique_ptr<float[]>> blocks;
    std::vector<EntryId> ids; ///< row -> id

    /// @name Lower-bound filter; unfitted until the arena first holds
    /// kFitRows rows.
    /// @{
    Pca pca;
    std::vector<float> proj; ///< kComponents floats per row
    size_t rows_at_fit = 0;
    size_t inserts_since_fit = 0;
    /// @}
};

FlatIndex::FlatIndex(IndexKind kind, Metric metric)
    : Index(metric), kind_(kind)
{}

FlatIndex::~FlatIndex() = default;

const FlatIndex::Arena *
FlatIndex::findArena(size_t dim) const
{
    for (const auto &arena : arenas_)
        if (arena->dim == dim)
            return arena.get();
    return nullptr;
}

size_t
FlatIndex::arenaFor(size_t dim)
{
    for (size_t i = 0; i < arenas_.size(); ++i)
        if (arenas_[i]->dim == dim)
            return i;
    arenas_.push_back(std::make_unique<Arena>(dim));
    return arenas_.size() - 1;
}

void
FlatIndex::insert(EntryId id, const FeatureVector &key)
{
    remove(id); // a re-inserted id replaces its key
    const size_t a = arenaFor(key.size());
    Arena &arena = *arenas_[a];
    const size_t r = arena.size();
    if (r == arena.blocks.size() * arena.rows_per_block)
        arena.blocks.emplace_back(
            new float[arena.rows_per_block * arena.dim]);
    std::copy(key.values().begin(), key.values().end(), arena.row(r));
    arena.ids.push_back(id);
    where_[id] = {a, r};
    if (arena.filtered()) {
        arena.proj.resize((r + 1) * kComponents);
        arena.pca.transform(arena.row(r), &arena.proj[r * kComponents]);
    }
    ++arena.inserts_since_fit;
    fitIfDue(arena);
}

void
FlatIndex::fitIfDue(Arena &arena)
{
    if (metric_ != Metric::L2 || arena.dim < kMinFilterDim)
        return;
    const size_t n = arena.size();
    const bool due = arena.filtered()
                         ? arena.inserts_since_fit >= arena.rows_at_fit
                         : n >= kFitRows;
    if (!due)
        return;
    // Evenly spaced rows, read in place. Rows with a NaN or infinite
    // coordinate stay out: one would turn the mean, and every
    // projection, into NaN.
    const size_t take = std::min(n, kFitRows);
    std::vector<const float *> sample;
    sample.reserve(take);
    for (size_t j = 0; j < take; ++j) {
        const float *row = arena.row(j * n / take);
        if (std::all_of(row, row + arena.dim,
                        [](float x) { return std::isfinite(x); }))
            sample.push_back(row);
    }
    if (sample.empty())
        return;
    arena.pca.fit(sample, arena.dim, kComponents, kFitIters);
    arena.proj.resize(n * kComponents);
    for (size_t r = 0; r < n; ++r)
        arena.pca.transform(arena.row(r), &arena.proj[r * kComponents]);
    arena.rows_at_fit = n;
    arena.inserts_since_fit = 0;
}

void
FlatIndex::remove(EntryId id)
{
    auto it = where_.find(id);
    if (it == where_.end())
        return;
    const Location loc = it->second;
    where_.erase(it);
    Arena &arena = *arenas_[loc.arena];
    const size_t last = arena.size() - 1;
    if (loc.row != last) {
        // Swap-with-last keeps the rows dense.
        std::memcpy(arena.row(loc.row), arena.row(last),
                    arena.dim * sizeof(float));
        const EntryId moved = arena.ids[last];
        arena.ids[loc.row] = moved;
        where_[moved].row = loc.row;
        if (arena.filtered())
            std::memcpy(&arena.proj[loc.row * kComponents],
                        &arena.proj[last * kComponents],
                        kComponents * sizeof(float));
    }
    arena.ids.pop_back();
    if (arena.filtered())
        arena.proj.resize(last * kComponents);
    // Keep one spare block, so a put/remove cycle at a block boundary
    // does not allocate every time.
    const size_t used =
        (arena.size() + arena.rows_per_block - 1) / arena.rows_per_block;
    while (arena.blocks.size() > used + 1)
        arena.blocks.pop_back();
}

std::vector<Neighbor>
FlatIndex::nearest(const FeatureVector &key, size_t k) const
{
    size_t exact = 0, rows = 0;
    return nearest(key, k, exact, rows);
}

std::vector<Neighbor>
FlatIndex::nearest(const FeatureVector &key, size_t k, size_t &exact,
                   size_t &rows) const
{
    std::vector<Neighbor> best;
    exact = rows = 0;
    const Arena *arena = findArena(key.size());
    if (!arena || k == 0 || arena->size() == 0)
        return best;
    const size_t n = arena->size();
    const size_t dim = arena->dim;
    const float *q = key.values().data();
    rows = n;
    best.reserve(std::min(k, n));

    // Keep the k best in a max-heap whose front is the current k-th.
    // A NaN distance (a key with NaN coordinates) ranks after every
    // real one, so such a key can never shadow the true neighbours.
    size_t compared = 0;
    auto offer = [&](size_t r, const float *stored) {
        double d = distance(q, stored, dim, metric_);
        if (!(d == d))
            d = std::numeric_limits<double>::infinity();
        ++compared;
        if (best.size() == k && d > best.front().dist)
            return;
        const Neighbor cand{arena->ids[r], d};
        if (best.size() < k) {
            best.push_back(cand);
            std::push_heap(best.begin(), best.end(), closer);
        } else if (closer(cand, best.front())) {
            std::pop_heap(best.begin(), best.end(), closer);
            best.back() = cand;
            std::push_heap(best.begin(), best.end(), closer);
        }
    };

    if (!arena->filtered()) {
        arena->forEachRow(offer);
    } else {
        float pq[kComponents];
        const double centred = arena->pca.transform(q, pq);
        auto limitSq = [&]() {
            const double limit = best.front().dist * (1.0 + kRelSlack) +
                                 kAbsSlack * centred;
            return limit * limit;
        };
        // Every row's bound; the k smallest seed the search, and their
        // exact distances bound the k-th best from above.
        thread_local std::vector<float> bounds;
        thread_local std::vector<std::pair<float, size_t>> seeds;
        bounds.resize(n);
        float *bound = bounds.data();
        const float *proj = arena->proj.data();
        for (size_t r = 0; r < n; ++r) {
            const float lb = boundSq(proj + r * kComponents, pq);
            bound[r] = lb >= 0.0f ? lb : 0.0f; // NaN: always compare
        }
        seeds.clear();
        for (size_t r = 0; r < n; ++r) {
            if (seeds.size() < k) {
                seeds.push_back({bound[r], r});
                std::push_heap(seeds.begin(), seeds.end());
            } else if (bound[r] < seeds.front().first) {
                std::pop_heap(seeds.begin(), seeds.end());
                seeds.back() = {bound[r], r};
                std::push_heap(seeds.begin(), seeds.end());
            }
        }
        for (const auto &[lb, r] : seeds) {
            offer(r, arena->row(r));
            bound[r] = -1.0f; // compared already
        }
        // Then every other row whose bound is within the k-th best so
        // far, in row order, so memory streams; the k-th best only
        // shrinks as rows are compared. The test prunes only on a
        // definite "greater": a NaN limit prunes nothing.
        double limit = limitSq();
        arena->forEachRow([&](size_t r, const float *row) {
            if (bound[r] >= 0.0f && !(static_cast<double>(bound[r]) > limit)) {
                offer(r, row);
                limit = limitSq();
            }
        });
    }
    std::sort_heap(best.begin(), best.end(), closer);
    exact = compared;
    return best;
}

} // namespace potluck
