#include "features/pca.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace potluck {

namespace {

/**
 * Components are processed in chunks of this many, each a fixed-width
 * row of accumulators the compiler keeps in vector registers; the
 * basis is stored padded to a whole number of chunks.
 */
constexpr int kChunk = 16;

/** Coordinates per block in fit(): a block of the basis, or of its
 * update, is kBlock * kChunk doubles (8 KiB). */
constexpr size_t kBlock = 64;

/** out[c] += x * b[c] over one chunk. */
inline void
axpyChunk(double x, const double *b, double *out)
{
#pragma GCC unroll 16
    for (int c = 0; c < kChunk; ++c)
        out[c] += x * b[c];
}

/**
 * Modified Gram-Schmidt over the first k columns of a row-major
 * dim x stride matrix. A column that is (numerically) a combination of
 * the ones before it becomes zero: a zero component still projects
 * without lengthening anything, where a renormalised rounding residue
 * would not be orthogonal to the rest.
 */
void
orthonormalise(std::vector<double> &m, size_t dim, int k, int stride)
{
    for (int c = 0; c < k; ++c) {
        double before = 0.0;
        for (size_t i = 0; i < dim; ++i)
            before += m[i * stride + c] * m[i * stride + c];
        for (int j = 0; j < c; ++j) {
            double dot = 0.0;
            for (size_t i = 0; i < dim; ++i)
                dot += m[i * stride + j] * m[i * stride + c];
            for (size_t i = 0; i < dim; ++i)
                m[i * stride + c] -= dot * m[i * stride + j];
        }
        double after = 0.0;
        for (size_t i = 0; i < dim; ++i)
            after += m[i * stride + c] * m[i * stride + c];
        const bool dependent = !(after > 1e-20 * before);
        const double scale = dependent ? 0.0 : 1.0 / std::sqrt(after);
        for (size_t i = 0; i < dim; ++i)
            m[i * stride + c] = dependent ? 0.0 : m[i * stride + c] * scale;
    }
}

} // namespace

void
Pca::fit(const std::vector<const float *> &rows, size_t dim,
         int num_components, int iters)
{
    POTLUCK_ASSERT(!rows.empty(), "PCA fit with no samples");
    POTLUCK_ASSERT(dim > 0 && num_components >= 1 &&
                       static_cast<size_t>(num_components) <= dim,
                   "bad component count " << num_components << " for dim "
                                          << dim);
    const int k = num_components;
    const int stride = (k + kChunk - 1) / kChunk * kChunk;
    const double n = static_cast<double>(rows.size());

    mean_.assign(dim, 0.0);
    for (const float *row : rows)
        for (size_t i = 0; i < dim; ++i)
            mean_[i] += row[i];
    for (double &m : mean_)
        m /= n;

    // Deterministic start basis, unlikely to be orthogonal to the
    // leading eigenvectors. Padding columns stay zero throughout.
    basis_.assign(dim * stride, 0.0);
    for (size_t i = 0; i < dim; ++i)
        for (int c = 0; c < k; ++c)
            basis_[i * stride + c] =
                std::cos(static_cast<double>(i + 1) * (c + 1));
    orthonormalise(basis_, dim, k, stride);
    components_ = k;
    stride_ = stride;

    // Subspace iteration: basis <- orth(X^T X basis), X the centred
    // sample. Both products walk the coordinates in blocks, so the
    // block of the basis or of its update being read stays in cache
    // while every row streams past it.
    const size_t m = rows.size();
    std::vector<double> z(m * stride); // z_r = basis^T x_r
    auto projectAll = [&]() {
        std::fill(z.begin(), z.end(), 0.0);
        for (size_t i0 = 0; i0 < dim; i0 += kBlock) {
            const size_t i1 = std::min(dim, i0 + kBlock);
            for (size_t r = 0; r < m; ++r) {
                for (int c0 = 0; c0 < stride; c0 += kChunk) {
                    double acc[kChunk];
                    std::copy_n(&z[r * stride + c0], kChunk, acc);
                    for (size_t i = i0; i < i1; ++i)
                        axpyChunk(rows[r][i] - mean_[i],
                                  &basis_[i * stride + c0], acc);
                    std::copy_n(acc, kChunk, &z[r * stride + c0]);
                }
            }
        }
    };
    std::vector<double> next(dim * stride);
    for (int it = 0; it < iters; ++it) {
        projectAll();
        std::fill(next.begin(), next.end(), 0.0);
        for (size_t i0 = 0; i0 < dim; i0 += kBlock) {
            const size_t i1 = std::min(dim, i0 + kBlock);
            for (size_t r = 0; r < m; ++r)
                for (size_t i = i0; i < i1; ++i)
                    for (int c0 = 0; c0 < stride; c0 += kChunk)
                        axpyChunk(rows[r][i] - mean_[i], &z[r * stride + c0],
                                  &next[i * stride + c0]);
        }
        basis_.swap(next);
        orthonormalise(basis_, dim, k, stride);
    }
    // Once more: Gram-Schmidt loses orthogonality in proportion to the
    // conditioning of its input, and a second pass over an already
    // near-orthonormal basis brings it to rounding level.
    orthonormalise(basis_, dim, k, stride);

    projectAll();
    double total_var = 0.0;
    variance_.assign(k, 0.0);
    for (size_t r = 0; r < m; ++r) {
        for (size_t i = 0; i < dim; ++i) {
            const double x = rows[r][i] - mean_[i];
            total_var += x * x;
        }
        for (int c = 0; c < k; ++c)
            variance_[c] += z[r * stride + c] * z[r * stride + c];
    }
    if (total_var <= 0.0)
        total_var = 1.0;
    for (double &v : variance_)
        v /= total_var;
}

double
Pca::transform(const float *v, float *out) const
{
    double centred_sq = 0.0;
    for (int c0 = 0; c0 < components_; c0 += kChunk) {
        double acc[kChunk] = {};
        double sq = 0.0;
        for (size_t i = 0; i < mean_.size(); ++i) {
            const double xi = v[i] - mean_[i];
            sq += xi * xi;
            axpyChunk(xi, &basis_[i * stride_ + c0], acc);
        }
        for (int c = c0; c < std::min(components_, c0 + kChunk); ++c)
            out[c] = static_cast<float>(acc[c - c0]);
        centred_sq = sq;
    }
    return std::sqrt(centred_sq);
}

FeatureVector
Pca::transform(const FeatureVector &v) const
{
    if (!fitted())
        POTLUCK_FATAL("PCA transform before fit");
    if (v.size() != mean_.size()) {
        POTLUCK_FATAL("PCA transform dim " << v.size() << " != fit dim "
                                           << mean_.size());
    }
    std::vector<float> out(components_);
    transform(v.values().data(), out.data());
    return FeatureVector(std::move(out));
}

} // namespace potluck
