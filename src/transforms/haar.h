#ifndef IDEAL_TRANSFORMS_HAAR_H_
#define IDEAL_TRANSFORMS_HAAR_H_

/**
 * @file
 * 1-D orthonormal Haar transform along the z-dimension of the 3-D
 * patch stack (paper Sec. 2.1): a 16 x 16 constant-coefficient
 * matrix-vector product (256 multiply + 256 add in direct form). The
 * hardware exploits the matrix's sparsity and power-of-two structure;
 * in software we provide both the direct matrix form (used to verify)
 * and the O(n) butterfly form (used to run).
 */

#include <vector>

#include "fixed/format.h"

namespace ideal {
namespace transforms {

/**
 * Orthonormal multi-level Haar transform of power-of-two length.
 * forward() and inverse() are exact inverses in exact arithmetic.
 */
class Haar1D
{
  public:
    /** Build for vectors of length @p n (power of two, 2..64). */
    explicit Haar1D(int n);

    int size() const { return n_; }

    /** Direct matrix-vector form: out = H * in. May not alias. */
    void forwardMatrix(const float *in, float *out) const;

    /** Direct matrix-vector inverse: out = H^T * in. May not alias. */
    void inverseMatrix(const float *in, float *out) const;

    /** Fast butterfly forward (same result as forwardMatrix). */
    void forward(const float *in, float *out) const;

    /** Fast butterfly inverse. */
    void inverse(const float *in, float *out) const;

    /**
     * Fixed-point forward: inputs quantized at @p formats.dct, outputs
     * produced in formats.haar precision.
     */
    void forwardFixed(const float *in, float *out,
                      const fixed::PipelineFormats &formats) const;

    /** Fixed-point inverse producing formats.invHaar precision. */
    void inverseFixed(const float *in, float *out,
                      const fixed::PipelineFormats &formats) const;

    /** Transform matrix entry H[row][col]. */
    float coefficient(int row, int col) const
    {
        return matrix_[static_cast<size_t>(row) * n_ + col];
    }

  private:
    int n_;
    int levels_;
    std::vector<float> matrix_; ///< H, row-major
};

} // namespace transforms
} // namespace ideal

#endif // IDEAL_TRANSFORMS_HAAR_H_
