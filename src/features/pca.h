/**
 * @file
 * Principal Component Analysis for key dimensionality reduction
 * (named in Section 4.2 as a custom mechanism apps can register), and
 * the basis of the flat index's lower-bound filter.
 *
 * Fits the top-k components by subspace iteration over sample rows
 * read in place: each pass multiplies the centred sample by the
 * current basis and back, then re-orthonormalises it. The returned
 * components are orthonormal to double precision (one the sample's
 * rank cannot support comes out zero), so a projection never
 * lengthens a vector: |P(x - y)| <= |x - y|.
 */
#ifndef POTLUCK_FEATURES_PCA_H
#define POTLUCK_FEATURES_PCA_H

#include <vector>

#include "features/feature_vector.h"

namespace potluck {

/** PCA model: fit on sample rows, then project new vectors. */
class Pca
{
  public:
    /**
     * Fit the top `num_components` principal components.
     * @param rows   sample rows, each `dim` floats; read, never copied
     * @param iters  subspace iterations before the final
     *               re-orthonormalisation
     */
    void fit(const std::vector<const float *> &rows, size_t dim,
             int num_components, int iters = 8);

    /**
     * Project `inputDim()` floats onto the components, writing
     * `outputDim()` floats.
     * @return |v - mean|, which bounds the rounding error of every
     *         projection of v
     */
    double transform(const float *v, float *out) const;

    /** Project a vector onto the fitted components. */
    FeatureVector transform(const FeatureVector &v) const;

    bool fitted() const { return !mean_.empty(); }
    int inputDim() const { return static_cast<int>(mean_.size()); }
    int outputDim() const { return components_; }

    /** Coordinate `i` of component `c`. */
    double component(int c, size_t i) const
    {
        return basis_[i * stride_ + c];
    }

    /** Fraction of total variance captured per component. */
    const std::vector<double> &explainedVariance() const { return variance_; }

  private:
    std::vector<double> mean_;
    /** Row-major dim x stride_: the components of one coordinate sit
     * together, so projecting streams the input once. Columns past
     * components_ pad the stride to a whole chunk and stay zero. */
    std::vector<double> basis_;
    int components_ = 0;
    int stride_ = 0;
    std::vector<double> variance_;
};

} // namespace potluck

#endif // POTLUCK_FEATURES_PCA_H
