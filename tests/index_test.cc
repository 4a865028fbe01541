/**
 * @file
 * Tests for the key-index structures, including parameterized
 * property sweeps: every exact index must agree with brute force over
 * distance(), on both sides of the flat index's filter fit; LSH must
 * find the true neighbour for clustered data with high probability;
 * all must handle insert/remove/duplicate-id traffic.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "core/flat_index.h"
#include "core/index.h"
#include "core/lsh_index.h"
#include "util/rng.h"

namespace potluck {
namespace {

FeatureVector
randomKey(Rng &rng, size_t dim, double spread = 10.0)
{
    std::vector<float> v(dim);
    for (auto &x : v)
        x = static_cast<float>(rng.uniformReal(-spread, spread));
    return FeatureVector(std::move(v));
}

/** Stored keys by id: what the brute-force reference enumerates. */
using KeyMap = std::map<EntryId, FeatureVector>;

/**
 * The k nearest stored keys of the query's length by enumeration over
 * L2 distance(), ascending by (distance, id).
 */
std::vector<Neighbor>
bruteForce(const KeyMap &keys, const FeatureVector &query, size_t k)
{
    std::vector<Neighbor> all;
    for (const auto &[id, key] : keys)
        if (key.size() == query.size())
            all.push_back({id, distance(query, key)});
    std::sort(all.begin(), all.end(),
              [](const Neighbor &a, const Neighbor &b) {
                  return a.dist < b.dist || (a.dist == b.dist && a.id < b.id);
              });
    all.resize(std::min(k, all.size()));
    return all;
}

// ---------- Common behaviour across every index kind ----------

class IndexBehaviour : public ::testing::TestWithParam<IndexKind>
{
  protected:
    std::unique_ptr<Index>
    make() const
    {
        return makeIndex(GetParam(), Metric::L2, /*seed=*/7);
    }
};

TEST_P(IndexBehaviour, EmptyIndexReturnsNothing)
{
    auto index = make();
    EXPECT_TRUE(index->empty());
    EXPECT_TRUE(index->nearest(FeatureVector({1.0f, 2.0f}), 3).empty());
}

TEST_P(IndexBehaviour, InsertThenFindExactKey)
{
    auto index = make();
    FeatureVector key({1.0f, 2.0f, 3.0f});
    index->insert(42, key);
    EXPECT_EQ(index->size(), 1u);
    auto found = index->nearest(key, 1);
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0].id, 42u);
    EXPECT_DOUBLE_EQ(found[0].dist, 0.0);
}

TEST_P(IndexBehaviour, RemoveMakesKeyUnfindable)
{
    auto index = make();
    FeatureVector key({5.0f, 5.0f});
    index->insert(1, key);
    index->remove(1);
    EXPECT_EQ(index->size(), 0u);
    EXPECT_TRUE(index->nearest(key, 1).empty());
}

TEST_P(IndexBehaviour, RemoveUnknownIdIsNoop)
{
    auto index = make();
    index->insert(1, FeatureVector({1.0f}));
    index->remove(999);
    EXPECT_EQ(index->size(), 1u);
}

TEST_P(IndexBehaviour, ReinsertSameIdReplacesKey)
{
    auto index = make();
    index->insert(7, FeatureVector({0.0f, 0.0f}));
    index->insert(7, FeatureVector({9.0f, 9.0f}));
    // Id 7 must only exist once and the *new* key must be findable.
    auto found = index->nearest(FeatureVector({9.0f, 9.0f}), 1);
    ASSERT_FALSE(found.empty());
    EXPECT_EQ(found[0].id, 7u);
    EXPECT_LE(found[0].dist, 1e-6);
}

TEST_P(IndexBehaviour, ManyInsertsAndRemovesStayConsistent)
{
    auto index = make();
    Rng rng(11);
    std::set<EntryId> live;
    for (int round = 0; round < 300; ++round) {
        EntryId id = static_cast<EntryId>(rng.uniformInt(1, 60));
        if (live.count(id) && rng.bernoulli(0.5)) {
            index->remove(id);
            live.erase(id);
        } else {
            index->insert(id, randomKey(rng, 4));
            live.insert(id);
        }
        ASSERT_EQ(index->size(), live.size()) << "round " << round;
    }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, IndexBehaviour,
                         ::testing::Values(IndexKind::Linear,
                                           IndexKind::Hash, IndexKind::Tree,
                                           IndexKind::KdTree,
                                           IndexKind::Lsh),
                         [](const auto &info) {
                             return indexKindName(info.param);
                         });

// ---------- Exact indices must match brute force ----------

class ExactIndexAgreement : public ::testing::TestWithParam<IndexKind>
{
};

TEST_P(ExactIndexAgreement, NearestMatchesBruteForce)
{
    Rng rng(23);
    auto index = makeIndex(GetParam(), Metric::L2, 3);
    KeyMap reference;
    for (EntryId id = 1; id <= 200; ++id) {
        FeatureVector key = randomKey(rng, 8);
        index->insert(id, key);
        reference[id] = key;
    }
    for (int q = 0; q < 50; ++q) {
        FeatureVector query = randomKey(rng, 8);
        auto got = index->nearest(query, 1);
        auto want = bruteForce(reference, query, 1);
        ASSERT_EQ(got.size(), 1u);
        ASSERT_EQ(want.size(), 1u);
        EXPECT_NEAR(got[0].dist, want[0].dist, 1e-6)
            << "query " << q << ": got id " << got[0].id << ", want "
            << want[0].id;
    }
}

TEST_P(ExactIndexAgreement, KnnIsSortedAscending)
{
    Rng rng(29);
    auto index = makeIndex(GetParam(), Metric::L2, 3);
    for (EntryId id = 1; id <= 100; ++id)
        index->insert(id, randomKey(rng, 5));
    auto result = index->nearest(randomKey(rng, 5), 10);
    ASSERT_EQ(result.size(), 10u);
    for (size_t i = 1; i < result.size(); ++i)
        EXPECT_GE(result[i].dist, result[i - 1].dist);
}

INSTANTIATE_TEST_SUITE_P(Exact, ExactIndexAgreement,
                         ::testing::Values(IndexKind::Linear,
                                           IndexKind::KdTree),
                         [](const auto &info) {
                             return indexKindName(info.param);
                         });

// ---------- Structure-specific behaviour ----------

TEST(HashIndexSpecific, OnlyExactMatches)
{
    auto index = makeIndex(IndexKind::Hash, Metric::L2);
    index->insert(1, FeatureVector({1.0f, 2.0f}));
    // A nearby-but-not-identical key must NOT match.
    EXPECT_TRUE(index->nearest(FeatureVector({1.0f, 2.0001f}), 1).empty());
    EXPECT_EQ(index->nearest(FeatureVector({1.0f, 2.0f}), 1).size(), 1u);
}

TEST(TreeIndexSpecific, ScalarNearestIsExact)
{
    auto index = makeIndex(IndexKind::Tree, Metric::L2);
    for (EntryId id = 0; id < 100; ++id)
        index->insert(id + 1, FeatureVector({static_cast<float>(id)}));
    auto found = index->nearest(FeatureVector({41.4f}), 1);
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0].id, 42u); // key 41.0 is nearest to 41.4
}

TEST(KdTreeSpecific, HighDimStillExact)
{
    Rng rng(31);
    auto kd = makeIndex(IndexKind::KdTree, Metric::L2);
    KeyMap reference;
    for (EntryId id = 1; id <= 150; ++id) {
        FeatureVector key = randomKey(rng, 64);
        kd->insert(id, key);
        reference[id] = key;
    }
    for (int q = 0; q < 20; ++q) {
        FeatureVector query = randomKey(rng, 64);
        EXPECT_NEAR(kd->nearest(query, 1)[0].dist,
                    bruteForce(reference, query, 1)[0].dist, 1e-6);
    }
}

// ---------- The flat index's lower-bound filter ----------

/**
 * A key near a random one of `centres`: a random mix of `factors` plus
 * `noise` per coordinate, so most of its variance sits in a few
 * directions, as it does for image keys. Then most bounds come close
 * to the exact distance, and a bound that overshoots prunes true
 * neighbours.
 */
FeatureVector
clusteredKey(Rng &rng, const std::vector<FeatureVector> &centres,
             const std::vector<FeatureVector> &factors, double noise)
{
    const FeatureVector &c = centres[static_cast<size_t>(
        rng.uniformInt(0, static_cast<int64_t>(centres.size()) - 1))];
    std::vector<double> v(c.values().begin(), c.values().end());
    for (const FeatureVector &f : factors) {
        const double weight = rng.gaussian(0, 3.0);
        for (size_t i = 0; i < v.size(); ++i)
            v[i] += weight * f[i];
    }
    std::vector<float> out(v.size());
    for (size_t i = 0; i < v.size(); ++i)
        out[i] = static_cast<float>(v[i] + rng.gaussian(0, noise));
    return FeatureVector(std::move(out));
}

void
expectSameNeighbours(const std::vector<Neighbor> &got,
                     const std::vector<Neighbor> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].id, want[i].id) << "rank " << i;
        EXPECT_NEAR(got[i].dist, want[i].dist, 1e-6) << "rank " << i;
    }
}

class FilteredIndexProperty : public ::testing::TestWithParam<size_t>
{
};

// Grows one index past its first filter fit (256 rows) and one refit
// (as many inserts again), removing and re-inserting ids on the way,
// and checks every probe against brute force. Stored keys are
// clustered; half the queries come from other clusters, which the
// basis was never fitted on.
TEST_P(FilteredIndexProperty, MatchesBruteForceAcrossFits)
{
    const size_t dim = GetParam();
    Rng rng(101 + dim);
    std::vector<FeatureVector> stored_centres, query_centres, factors;
    for (int c = 0; c < 8; ++c) {
        stored_centres.push_back(randomKey(rng, dim));
        query_centres.push_back(randomKey(rng, dim));
        factors.push_back(randomKey(rng, dim, 1.0));
    }
    FlatIndex index(IndexKind::KdTree, Metric::L2);
    KeyMap reference;
    std::vector<EntryId> removed;
    size_t exact_total = 0, rows_total = 0;
    auto check = [&]() {
        for (int q = 0; q < 8; ++q) {
            FeatureVector query =
                q % 2 ? clusteredKey(rng, query_centres, factors, 0.5)
                      : clusteredKey(rng, stored_centres, factors, 0.05);
            for (size_t k : {1u, 3u}) {
                size_t exact = 0, rows = 0;
                auto got = index.nearest(query, k, exact, rows);
                expectSameNeighbours(got, bruteForce(reference, query, k));
                EXPECT_EQ(rows, reference.size());
                if (rows > 300) { // past the first fit
                    exact_total += exact;
                    rows_total += rows;
                }
            }
        }
    };
    EntryId next = 1;
    for (int step = 1; step <= 700; ++step) {
        FeatureVector key = clusteredKey(rng, stored_centres, factors, 0.05);
        index.insert(next, key);
        reference[next++] = key;
        if (step % 5 == 0) {
            auto victim = reference.begin();
            std::advance(victim, rng.uniformInt(
                                     0, static_cast<int64_t>(
                                            reference.size()) - 1));
            index.remove(victim->first);
            removed.push_back(victim->first);
            reference.erase(victim);
        }
        if (step % 9 == 0 && !removed.empty()) {
            EntryId back = removed.back();
            removed.pop_back();
            FeatureVector again =
                clusteredKey(rng, stored_centres, factors, 0.05);
            index.insert(back, again);
            reference[back] = again;
        }
        ASSERT_EQ(index.size(), reference.size());
        if (step % 50 == 0)
            check();
    }
    // Short keys are always scanned; long ones were filtered.
    ASSERT_GT(rows_total, 0u);
    if (dim < 32)
        EXPECT_EQ(exact_total, rows_total);
    else
        EXPECT_LT(exact_total, rows_total);
}

INSTANTIATE_TEST_SUITE_P(KeyLengths, FilteredIndexProperty,
                         ::testing::Values(2u, 25u, 128u, 768u));

// Keys vary in their first 16 coordinates only, so the fitted basis
// spans exactly those: for a key that differs from the query only
// there (say, along the first fitted component), the lower bound
// equals the exact distance. Two such keys tie with the query, one on
// each side of it; the bound of the second one popped sits exactly on
// the pruning boundary, and the tie must still go to the smaller id.
TEST(FlatIndexFilter, KeyOnTheBoundIsReturned)
{
    constexpr size_t kDim = 64;
    constexpr EntryId kPair = 1000;
    Rng rng(41);
    auto spanKey = [&]() {
        std::vector<float> v(kDim, 3.0f);
        for (size_t i = 0; i < 16; ++i)
            v[i] = static_cast<float>(rng.uniformInt(-40, 40)) / 4.0f;
        return FeatureVector(std::move(v));
    };
    for (bool smaller_above : {true, false}) {
        FlatIndex index(IndexKind::KdTree, Metric::L2);
        KeyMap reference;
        for (EntryId id = 1; id <= 300; ++id) {
            FeatureVector key = spanKey();
            index.insert(id, key);
            reference[id] = key;
        }
        for (int q = 0; q < 10; ++q) {
            FeatureVector query = spanKey();
            FeatureVector above = query, below = query;
            above.values()[0] += 0.25f;
            below.values()[0] -= 0.25f;
            const EntryId a = kPair + 2 * q, b = a + 1;
            index.insert(smaller_above ? a : b, above);
            index.insert(smaller_above ? b : a, below);
            reference[smaller_above ? a : b] = above;
            reference[smaller_above ? b : a] = below;
            for (size_t k : {1u, 2u}) {
                size_t exact = 0, rows = 0;
                auto got = index.nearest(query, k, exact, rows);
                auto want = bruteForce(reference, query, k);
                expectSameNeighbours(got, want);
                ASSERT_FALSE(got.empty());
                EXPECT_EQ(got[0].id, a);
                EXPECT_DOUBLE_EQ(got[0].dist, 0.25);
                EXPECT_LT(exact, rows); // the filter ran
            }
        }
    }
}

// A key with NaN coordinates is at NaN distance from everything. It
// must rank after every real key, scanned or filtered, instead of
// answering every lookup of its length, and a k that reaches past the
// real keys must still list every id once.
TEST(FlatIndexFilter, NanKeyNeverShadowsRealKeys)
{
    for (size_t dim : {2u, 64u}) {
        SCOPED_TRACE(dim);
        FlatIndex index(IndexKind::Linear, Metric::L2);
        Rng rng(43);
        index.insert(1, FeatureVector(std::vector<float>(dim, NAN)));
        index.insert(2, FeatureVector(std::vector<float>(dim, NAN)));
        for (EntryId id = 3; id <= 300; ++id)
            index.insert(id, randomKey(rng, dim));
        FeatureVector query = randomKey(rng, dim);
        auto found = index.nearest(query, 1);
        ASSERT_EQ(found.size(), 1u);
        EXPECT_GT(found[0].id, 2u);
        EXPECT_TRUE(std::isfinite(found[0].dist));

        auto most = index.nearest(query, 299);
        ASSERT_EQ(most.size(), 299u);
        std::set<EntryId> ids;
        for (const Neighbor &n : most)
            ids.insert(n.id);
        EXPECT_EQ(ids.size(), most.size());
        EXPECT_TRUE(std::isinf(most.back().dist));
    }
}

TEST(LshSpecific, FindsNeighbourInClusteredData)
{
    // LSH is approximate for arbitrary queries, but for Potluck's use
    // case the query is near a stored key; the recall there must be
    // high. Clusters are far apart relative to the bucket width.
    Rng rng(37);
    LshIndex lsh(Metric::L2, /*seed=*/5);
    std::vector<FeatureVector> centres;
    for (EntryId id = 1; id <= 50; ++id) {
        FeatureVector c = randomKey(rng, 16, 100.0);
        centres.push_back(c);
        lsh.insert(id, c);
    }
    int recalled = 0;
    for (size_t i = 0; i < centres.size(); ++i) {
        FeatureVector query = centres[i];
        query.values()[0] += 0.01f; // tiny perturbation
        auto found = lsh.nearest(query, 1);
        if (!found.empty() && found[0].id == i + 1)
            ++recalled;
    }
    EXPECT_GE(recalled, 45) << "LSH recall too low for near-duplicates";
}

TEST(LshSpecific, GrowsWithDimensionLazily)
{
    LshIndex lsh(Metric::L2, 5);
    lsh.insert(1, FeatureVector({1.0f, 2.0f}));
    // Different key length coexists (segregation is the caller's job,
    // but the structure must not crash).
    lsh.insert(2, FeatureVector(std::vector<float>(128, 0.5f)));
    EXPECT_EQ(lsh.size(), 2u);
    auto found = lsh.nearest(FeatureVector(std::vector<float>(128, 0.5f)), 1);
    ASSERT_FALSE(found.empty());
    EXPECT_EQ(found[0].id, 2u);
}

// Keys of several lengths can share one index: the service segregates
// key TYPES, not dimensions. Each length keeps its own arena, and a
// query only ever meets keys of its own length.
TEST(KdTreeSpecific, MixedDimensionKeysDoNotReadOutOfBounds)
{
    auto index = makeIndex(IndexKind::KdTree, Metric::L2, /*seed=*/3);
    FeatureVector small({1.0f, 2.0f});
    FeatureVector big(std::vector<float>(128, 0.25f));
    index->insert(1, small);
    index->insert(2, big);
    Rng rng(17);
    for (EntryId id = 3; id <= 40; ++id)
        index->insert(id, randomKey(rng, 128));

    auto found_small = index->nearest(small, 1);
    ASSERT_EQ(found_small.size(), 1u);
    EXPECT_EQ(found_small[0].id, 1u);
    EXPECT_DOUBLE_EQ(found_small[0].dist, 0.0);

    auto found_big = index->nearest(big, 1);
    ASSERT_EQ(found_big.size(), 1u);
    EXPECT_EQ(found_big[0].id, 2u);
    EXPECT_DOUBLE_EQ(found_big[0].dist, 0.0);

    // A dimension with no stored keys at all: nothing to score.
    EXPECT_TRUE(index->nearest(FeatureVector({1.0f, 2.0f, 3.0f}), 2)
                    .empty());
}

TEST(KdTreeSpecific, MixedDimensionNeighborsStayExact)
{
    // Brute-force agreement when 2-d and 128-d keys interleave.
    auto kd = makeIndex(IndexKind::KdTree, Metric::L2, /*seed=*/9);
    KeyMap brute;
    Rng rng(23);
    for (EntryId id = 1; id <= 60; ++id) {
        FeatureVector key = randomKey(rng, id % 2 ? 2 : 128);
        kd->insert(id, key);
        brute[id] = key;
    }
    for (int probe = 0; probe < 20; ++probe) {
        SCOPED_TRACE(probe);
        FeatureVector q = randomKey(rng, probe % 2 ? 2 : 128);
        expectSameNeighbours(kd->nearest(q, 3), bruteForce(brute, q, 3));
    }
}

TEST(LshSpecific, ZeroDimensionalKeyIsSafe)
{
    // Degenerate but must not crash: a zero-dim key still materializes
    // the projection arrays signature() indexes unconditionally.
    LshIndex lsh(Metric::L2, 5);
    lsh.insert(1, FeatureVector(std::vector<float>{}));
    EXPECT_EQ(lsh.size(), 1u);
    auto found = lsh.nearest(FeatureVector(std::vector<float>{}), 1);
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0].id, 1u);
}

TEST(IndexFactory, KindNamesRoundTrip)
{
    for (IndexKind kind : {IndexKind::Linear, IndexKind::Hash,
                           IndexKind::Tree, IndexKind::KdTree,
                           IndexKind::Lsh}) {
        auto index = makeIndex(kind, Metric::L2);
        EXPECT_EQ(index->kind(), kind);
        EXPECT_STRNE(indexKindName(kind), "unknown");
    }
}

TEST(IndexMetric, CosineMetricIsUsed)
{
    auto index = makeIndex(IndexKind::Linear, Metric::Cosine);
    index->insert(1, FeatureVector({1.0f, 0.0f}));
    index->insert(2, FeatureVector({0.0f, 1.0f}));
    // Query along (2, 0): cosine distance to id 1 is 0 despite the
    // different magnitude.
    auto found = index->nearest(FeatureVector({2.0f, 0.0f}), 1);
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0].id, 1u);
    EXPECT_NEAR(found[0].dist, 0.0, 1e-9);
}

} // namespace
} // namespace potluck
