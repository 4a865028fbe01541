/**
 * @file
 * FeatureVector: the variable-length vector in a metric space that
 * serves as the cache key (paper Section 3.2), plus the distance
 * metrics the cache indices use to compare keys.
 */
#ifndef POTLUCK_FEATURES_FEATURE_VECTOR_H
#define POTLUCK_FEATURES_FEATURE_VECTOR_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace potluck {

/** Distance metric applied between two feature vectors. */
enum class Metric
{
    L2,        ///< Euclidean distance (the paper's default)
    L1,        ///< Manhattan distance
    Cosine,    ///< 1 - cosine similarity
    Hamming,   ///< Count of elements differing by > 0.5 (for binary keys)
};

const char *metricName(Metric metric);

/**
 * A variable-length float vector living in a metric space.
 *
 * Keys of different lengths are never comparable: distance() panics on
 * a length mismatch, and the cache keeps per-key-type indices so the
 * situation cannot arise in normal operation.
 */
class FeatureVector
{
  public:
    FeatureVector() = default;
    explicit FeatureVector(std::vector<float> values)
        : values_(std::move(values))
    {}
    FeatureVector(std::initializer_list<float> values) : values_(values) {}

    size_t size() const { return values_.size(); }
    bool empty() const { return values_.empty(); }
    size_t sizeBytes() const { return values_.size() * sizeof(float); }

    float operator[](size_t i) const { return values_[i]; }
    float &operator[](size_t i) { return values_[i]; }

    const std::vector<float> &values() const { return values_; }
    std::vector<float> &values() { return values_; }

    /** Euclidean (L2) norm. */
    double norm() const;

    /** Scale to unit L2 norm; zero vectors are left unchanged. */
    void normalize();

    /** Exact element-wise equality. */
    bool operator==(const FeatureVector &other) const = default;

    /** Stable 64-bit content hash (for exact-match indices). */
    uint64_t hash() const;

    std::string toString(size_t max_elems = 8) const;

  private:
    std::vector<float> values_;
};

/**
 * Distance between two equal-length vectors under the given metric.
 * Panics on length mismatch (an internal invariant: per-type indices
 * only ever compare same-typed keys).
 */
double distance(const FeatureVector &a, const FeatureVector &b,
                Metric metric = Metric::L2);

/**
 * The same distance over two raw rows of `n` floats: the kernel the
 * overload above runs, for callers that keep keys in a flat arena.
 * Each metric accumulates in independent double lanes so the adds
 * overlap instead of forming one serial chain.
 */
double distance(const float *a, const float *b, size_t n, Metric metric);

} // namespace potluck

#endif // POTLUCK_FEATURES_FEATURE_VECTOR_H
