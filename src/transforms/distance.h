#ifndef IDEAL_TRANSFORMS_DISTANCE_H_
#define IDEAL_TRANSFORMS_DISTANCE_H_

/**
 * @file
 * The l2-Norm computational block (paper Eq. 2): squared Euclidean
 * distance between two M x M patches, M^2 subtractions + M^2
 * multiplications + M^2 additions. The BM engine hardware computes a
 * full 4x4 patch distance per cycle with 16 subtractors, 16
 * multipliers and a 16-input adder tree.
 *
 * The software kernels mirror that adder tree through the runtime-
 * dispatched SIMD layer (src/simd): 8 accumulator lanes folded in one
 * canonical order, identical bitwise at the scalar and AVX2 levels
 * (see simd.h's reduction-order rule). These wrappers exist so
 * callers keep a plain-function API and so the dispatch indirection
 * is paid once per call, not once per 16 elements. The SoA forms
 * accumulate per 16-coefficient block — one hardware adder tree's
 * worth — so the bounded form checks its bound once per block.
 */

#include <cstddef>
#include <limits>

#include "simd/simd.h"

namespace ideal {
namespace transforms {

/**
 * Squared L2 distance between two length-@p len arrays, summed in the
 * canonical 8-lane tree order (deterministic for a given @p len).
 */
inline float
squaredDistance(const float *a, const float *b, int len)
{
    return simd::kernels().ssd(a, b, len);
}

/**
 * Exact squared L2 distance between two coefficient-major (SoA)
 * patches: coefficient k of patch a is pa[k][off_a], of b
 * pb[k][off_b], accumulated per 16-coefficient block. The two plane
 * sets may belong to different fields (video matching across
 * frames).
 */
inline float
squaredDistanceSoa(const float *const *pa, size_t off_a,
                   const float *const *pb, size_t off_b, int len)
{
    return simd::kernels().ssdSoa(pa, off_a, pb, off_b, len,
                                  std::numeric_limits<float>::infinity());
}

/**
 * SoA distance with early termination: returns a partial sum
 * (> @p bound) once the accumulated distance exceeds @p bound.
 * Callers may only rely on the exact value when it is <= @p bound;
 * any early-terminated result compares > @p bound just like the full
 * sum would (partial sums of squares only grow), so match selection
 * is identical to evaluating the full distance.
 */
inline float
squaredDistanceSoaBounded(const float *const *pa, size_t off_a,
                          const float *const *pb, size_t off_b, int len,
                          float bound)
{
    return simd::kernels().ssdSoa(pa, off_a, pb, off_b, len, bound);
}

/**
 * Batched SoA SSD against a gathered reference descriptor:
 * out[i] = squaredDistanceSoa of the candidate at planes[k][off + i],
 * i in [0, count) for arbitrary count (pass whole window-row runs —
 * one dispatch per run). Adjacent candidates are adjacent in every
 * coefficient plane (one contiguous vector lane per coefficient),
 * which is what makes this the block-matching hot kernel.
 */
inline void
squaredDistanceSoaBatch(const float *ref, const float *const *planes,
                        size_t off, int len, int count, float *out)
{
    simd::kernels().ssdSoaBatch(ref, planes, off, len, count, out);
}

} // namespace transforms
} // namespace ideal

#endif // IDEAL_TRANSFORMS_DISTANCE_H_
