#include "features/feature_vector.h"

#include <cmath>
#include <cstring>
#include <sstream>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "util/logging.h"

namespace potluck {

const char *
metricName(Metric metric)
{
    switch (metric) {
      case Metric::L2:
        return "L2";
      case Metric::L1:
        return "L1";
      case Metric::Cosine:
        return "cosine";
      case Metric::Hamming:
        return "hamming";
    }
    return "unknown";
}

double
FeatureVector::norm() const
{
    double sum = 0.0;
    for (float v : values_)
        sum += static_cast<double>(v) * v;
    return std::sqrt(sum);
}

void
FeatureVector::normalize()
{
    double n = norm();
    if (n <= 0.0)
        return;
    for (float &v : values_)
        v = static_cast<float>(v / n);
}

namespace {

constexpr uint64_t kHashPrime = 1099511628211ULL;

/** Final avalanche so low-entropy inputs still spread across the
 * unordered_multimap's buckets. */
uint64_t
hashAvalanche(uint64_t h)
{
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return h;
}

/** Fold a word into the running hash (FNV-style multiply-xor). */
uint64_t
hashWord(uint64_t h, uint64_t w)
{
    return (h ^ w) * kHashPrime;
}

#if defined(__x86_64__)

/**
 * AVX2 bulk path: 64 bytes per iteration through two banks of four
 * 64-bit accumulators, each step multiplying the 32-bit halves of the
 * secret-xor'd input (xxh3-style) and folding the product in after a
 * lane rotation (a plain sum would hash block permutations
 * identically). `consumed` returns how many bytes were eaten; the
 * caller folds the tail with the scalar steps. Selected at runtime
 * via cpuid, so the scalar path below stays the portable reference.
 */
__attribute__((target("avx2"))) uint64_t
hashBulkAvx2(const uint8_t *bytes, size_t len, size_t &consumed)
{
    const __m256i secret0 =
        _mm256_set_epi64x(static_cast<long long>(0x9e3779b97f4a7c15ULL),
                          static_cast<long long>(0xc2b2ae3d27d4eb4fULL),
                          static_cast<long long>(0x165667b19e3779f9ULL),
                          static_cast<long long>(0x27d4eb2f165667c5ULL));
    const __m256i secret1 =
        _mm256_set_epi64x(static_cast<long long>(0x85ebca77c2b2ae63ULL),
                          static_cast<long long>(0xff51afd7ed558ccdULL),
                          static_cast<long long>(0xc4ceb9fe1a85ec53ULL),
                          static_cast<long long>(0x2545f4914f6cdd1dULL));
    __m256i acc0 = secret1;
    __m256i acc1 = secret0;
    size_t i = 0;
    for (; i + 64 <= len; i += 64) {
        __m256i d0 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(bytes + i));
        __m256i d1 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(bytes + i + 32));
        __m256i k0 = _mm256_xor_si256(d0, secret0);
        __m256i k1 = _mm256_xor_si256(d1, secret1);
        __m256i p0 = _mm256_mul_epu32(k0, _mm256_srli_epi64(k0, 32));
        __m256i p1 = _mm256_mul_epu32(k1, _mm256_srli_epi64(k1, 32));
        acc0 = _mm256_add_epi64(_mm256_shuffle_epi32(acc0, 0x93), p0);
        acc1 = _mm256_add_epi64(_mm256_shuffle_epi32(acc1, 0x93), p1);
    }
    consumed = i;
    uint64_t lanes[8];
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(lanes), acc0);
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(lanes + 4), acc1);
    uint64_t h = len * kHashPrime;
    for (uint64_t lane : lanes)
        h = hashWord(h, lane + 0x9e3779b97f4a7c15ULL);
    return h;
}

bool
haveAvx2()
{
    static const bool have = __builtin_cpu_supports("avx2");
    return have;
}

#endif // __x86_64__

/**
 * Portable path: word-at-a-time mixing over the raw bytes, eight
 * independent lanes so the multiply chains overlap. The original
 * byte-at-a-time FNV-1a was one serial multiply per BYTE (~5 us for a
 * 1024-dim key), which dominated every hash-index probe.
 */
uint64_t
hashScalar(const uint8_t *bytes, size_t len)
{
    constexpr int kLanes = 8; // deep enough to hide the multiply latency
    uint64_t lane[kLanes] = {1469598103934665603ULL ^ (len * kHashPrime),
                             0x9e3779b97f4a7c15ULL,
                             0xc2b2ae3d27d4eb4fULL,
                             0x165667b19e3779f9ULL,
                             0x27d4eb2f165667c5ULL,
                             0x85ebca77c2b2ae63ULL,
                             0xff51afd7ed558ccdULL,
                             0xc4ceb9fe1a85ec53ULL};
    size_t i = 0;
    for (; i + 8 * kLanes <= len; i += 8 * kLanes) {
        for (int l = 0; l < kLanes; ++l) {
            uint64_t w;
            std::memcpy(&w, bytes + i + 8 * static_cast<size_t>(l), 8);
            lane[l] = hashWord(lane[l], w);
        }
    }
    for (; i + 8 <= len; i += 8) {
        uint64_t w;
        std::memcpy(&w, bytes + i, 8);
        lane[0] = hashWord(lane[0], w);
    }
    for (; i < len; ++i)
        lane[0] = hashWord(lane[0], bytes[i]);
    uint64_t h = lane[0];
    for (int l = 1; l < kLanes; ++l)
        h = hashWord(h, lane[l] + 0x9e3779b97f4a7c15ULL);
    return h;
}

} // namespace

uint64_t
FeatureVector::hash() const
{
    // Content hash over the raw float bytes. In-memory only (never
    // persisted, never crosses processes), so the algorithm — and the
    // per-machine AVX2 dispatch — is free to change.
    const auto *bytes = reinterpret_cast<const uint8_t *>(values_.data());
    const size_t len = values_.size() * sizeof(float);
#if defined(__x86_64__)
    if (len >= 64 && haveAvx2()) {
        size_t i = 0;
        uint64_t h = hashBulkAvx2(bytes, len, i);
        for (; i + 8 <= len; i += 8) {
            uint64_t w;
            std::memcpy(&w, bytes + i, 8);
            h = hashWord(h, w);
        }
        for (; i < len; ++i)
            h = hashWord(h, bytes[i]);
        return hashAvalanche(h);
    }
#endif
    return hashAvalanche(hashScalar(bytes, len));
}

std::string
FeatureVector::toString(size_t max_elems) const
{
    std::ostringstream oss;
    oss << "[";
    for (size_t i = 0; i < values_.size() && i < max_elems; ++i) {
        if (i)
            oss << ", ";
        oss << values_[i];
    }
    if (values_.size() > max_elems)
        oss << ", ... (" << values_.size() << " total)";
    oss << "]";
    return oss.str();
}

namespace {

/**
 * Independent accumulators per kernel: enough to hide the add latency
 * and to let the compiler pack lanes into vector registers.
 */
constexpr size_t kLanes = 8;

/** Sum the lanes pairwise, so the order is fixed for every length. */
double
foldLanes(const double (&acc)[kLanes])
{
    return ((acc[0] + acc[4]) + (acc[1] + acc[5])) +
           ((acc[2] + acc[6]) + (acc[3] + acc[7]));
}

double
l2Kernel(const float *a, const float *b, size_t n)
{
    double acc[kLanes] = {};
    size_t i = 0;
    for (; i + kLanes <= n; i += kLanes) {
#pragma GCC unroll 8
        for (size_t l = 0; l < kLanes; ++l) {
            double d = static_cast<double>(a[i + l]) - b[i + l];
            acc[l] += d * d;
        }
    }
    double tail = 0.0;
    for (; i < n; ++i) {
        double d = static_cast<double>(a[i]) - b[i];
        tail += d * d;
    }
    return std::sqrt(foldLanes(acc) + tail);
}

double
l1Kernel(const float *a, const float *b, size_t n)
{
    double acc[kLanes] = {};
    size_t i = 0;
    for (; i + kLanes <= n; i += kLanes) {
#pragma GCC unroll 8
        for (size_t l = 0; l < kLanes; ++l)
            acc[l] += std::abs(static_cast<double>(a[i + l]) - b[i + l]);
    }
    double tail = 0.0;
    for (; i < n; ++i)
        tail += std::abs(static_cast<double>(a[i]) - b[i]);
    return foldLanes(acc) + tail;
}

double
cosineKernel(const float *a, const float *b, size_t n)
{
    double dot[kLanes] = {}, na[kLanes] = {}, nb[kLanes] = {};
    size_t i = 0;
    for (; i + kLanes <= n; i += kLanes) {
#pragma GCC unroll 8
        for (size_t l = 0; l < kLanes; ++l) {
            double x = a[i + l], y = b[i + l];
            dot[l] += x * y;
            na[l] += x * x;
            nb[l] += y * y;
        }
    }
    double tdot = 0.0, ta = 0.0, tb = 0.0;
    for (; i < n; ++i) {
        double x = a[i], y = b[i];
        tdot += x * y;
        ta += x * x;
        tb += y * y;
    }
    double d = foldLanes(dot) + tdot, sa = foldLanes(na) + ta,
           sb = foldLanes(nb) + tb;
    if (sa <= 0.0 || sb <= 0.0)
        return (sa == sb) ? 0.0 : 1.0;
    return 1.0 - d / (std::sqrt(sa) * std::sqrt(sb));
}

double
hammingKernel(const float *a, const float *b, size_t n)
{
    double acc[kLanes] = {};
    size_t i = 0;
    for (; i + kLanes <= n; i += kLanes) {
#pragma GCC unroll 8
        for (size_t l = 0; l < kLanes; ++l) {
            if (std::abs(static_cast<double>(a[i + l]) - b[i + l]) > 0.5)
                acc[l] += 1.0;
        }
    }
    double tail = 0.0;
    for (; i < n; ++i) {
        if (std::abs(static_cast<double>(a[i]) - b[i]) > 0.5)
            tail += 1.0;
    }
    return foldLanes(acc) + tail;
}

} // namespace

double
distance(const float *a, const float *b, size_t n, Metric metric)
{
    switch (metric) {
      case Metric::L2:
        return l2Kernel(a, b, n);
      case Metric::L1:
        return l1Kernel(a, b, n);
      case Metric::Cosine:
        return cosineKernel(a, b, n);
      case Metric::Hamming:
        return hammingKernel(a, b, n);
    }
    POTLUCK_PANIC("unreachable metric");
}

double
distance(const FeatureVector &a, const FeatureVector &b, Metric metric)
{
    POTLUCK_ASSERT(a.size() == b.size(),
                   "distance between vectors of size " << a.size() << " and "
                                                       << b.size());
    return distance(a.values().data(), b.values().data(), a.size(), metric);
}

} // namespace potluck
