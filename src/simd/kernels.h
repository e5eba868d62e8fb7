#ifndef IDEAL_SIMD_KERNELS_H_
#define IDEAL_SIMD_KERNELS_H_

/**
 * @file
 * Internal: the per-level kernel tables, one per translation unit so
 * each can be compiled for its own ISA. The scalar table defines the
 * reference semantics (see simd.h's reduction-order rule); the AVX2
 * table must reproduce it bitwise and is verified to do so by
 * tests/test_simd.cc.
 *
 * On non-x86 builds the AVX2 translation unit compiles to an alias of
 * the scalar table.
 */

#include "simd/simd.h"

namespace ideal {
namespace simd {
namespace detail {

extern const KernelTable kScalarTable;
extern const KernelTable &kAvx2Table;

} // namespace detail
} // namespace simd
} // namespace ideal

#endif // IDEAL_SIMD_KERNELS_H_
