/**
 * @file
 * AVX2 kernels (256-bit). The 8 canonical SSD lanes live in a single
 * __m256 whose extract/add/movehl fold is exactly the canonical tree;
 * both 4x4 DCT passes keep one patch row per 128-bit register, with
 * the transpose in registers. Compiled with
 * -mavx2 -ffp-contract=off (and no -mfma); bitwise parity with the
 * scalar table is enforced by tests/test_simd.cc.
 */

#include "simd/kernels.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <type_traits>

namespace ideal {
namespace simd {
namespace detail {

namespace {

/**
 * Canonical fold of the 8 lanes of @p acc:
 * ((s0+s4)+(s2+s6)) + ((s1+s5)+(s3+s7)).
 */
inline float
fold8(__m256 acc)
{
    const __m128 t = _mm_add_ps(_mm256_castps256_ps128(acc),
                                _mm256_extractf128_ps(acc, 1));
    const __m128 u = _mm_add_ps(t, _mm_movehl_ps(t, t));
    const __m128 r = _mm_add_ss(
        u, _mm_shuffle_ps(u, u, _MM_SHUFFLE(1, 1, 1, 1)));
    return _mm_cvtss_f32(r);
}

float
ssd(const float *a, const float *b, int len)
{
    __m256 acc = _mm256_setzero_ps();
    int i = 0;
    for (; i + 8 <= len; i += 8) {
        const __m256 d =
            _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
        acc = _mm256_add_ps(acc, _mm256_mul_ps(d, d));
    }
    float r = fold8(acc);
    for (; i < len; ++i) {
        const float d = a[i] - b[i];
        r += d * d;
    }
    return r;
}

/**
 * Scalar canonical fold of 8 lanes (the SoA pair kernel walks strided
 * per-coefficient values, so there is nothing to vectorize — the
 * scalar sequence IS the reference order and keeps bitwise parity).
 */
inline float
fold8Scalar(const float s[8])
{
    const float t0 = s[0] + s[4];
    const float t1 = s[1] + s[5];
    const float t2 = s[2] + s[6];
    const float t3 = s[3] + s[7];
    const float u0 = t0 + t2;
    const float u1 = t1 + t3;
    return u0 + u1;
}

float
ssdSoa(const float *const *pa, size_t off_a, const float *const *pb,
       size_t off_b, int len, float bound)
{
    float acc = 0.0f;
    int k = 0;
    for (; k + 16 <= len; k += 16) {
        float s[8];
        for (int j = 0; j < 8; ++j) {
            const float d = pa[k + j][off_a] - pb[k + j][off_b];
            s[j] = d * d;
        }
        for (int j = 0; j < 8; ++j) {
            const float d = pa[k + 8 + j][off_a] - pb[k + 8 + j][off_b];
            s[j] += d * d;
        }
        acc += fold8Scalar(s);
        if (acc > bound)
            return acc;
    }
    for (; k < len; ++k) {
        const float d = pa[k][off_a] - pb[k][off_b];
        acc += d * d;
        if (acc > bound)
            return acc;
    }
    return acc;
}

/** One scalar SoA candidate (partial-vector batch tail). */
inline float
ssdSoaOne(const float *ref, const float *const *planes, size_t off,
          int len)
{
    float acc = 0.0f;
    int k = 0;
    for (; k + 16 <= len; k += 16) {
        float s[8];
        for (int j = 0; j < 8; ++j) {
            const float d = ref[k + j] - planes[k + j][off];
            s[j] = d * d;
        }
        for (int j = 0; j < 8; ++j) {
            const float d = ref[k + 8 + j] - planes[k + 8 + j][off];
            s[j] += d * d;
        }
        acc += fold8Scalar(s);
    }
    for (; k < len; ++k) {
        const float d = ref[k] - planes[k][off];
        acc += d * d;
    }
    return acc;
}

void
ssdSoaBatch(const float *ref, const float *const *planes, size_t off,
            int len, int count, float *out)
{
    if (count < 8) {
        for (int i = 0; i < count; ++i)
            out[i] =
                ssdSoaOne(ref, planes, off + static_cast<size_t>(i), len);
        return;
    }
    // Eight candidates per pass: the 8 canonical accumulator lanes of
    // each candidate live across 8 __m256 registers (candidate =
    // vector lane); every coefficient plane is one contiguous 8-float
    // load and the block fold is purely vertical, so the per-lane
    // operation sequence equals the scalar reference exactly.
    const auto group8 = [&](int i) {
        const size_t o = off + static_cast<size_t>(i);
        __m256 acc = _mm256_setzero_ps();
        int k = 0;
        for (; k + 16 <= len; k += 16) {
            __m256 s[8];
            for (int j = 0; j < 8; ++j) {
                const __m256 d =
                    _mm256_sub_ps(_mm256_set1_ps(ref[k + j]),
                                  _mm256_loadu_ps(planes[k + j] + o));
                s[j] = _mm256_mul_ps(d, d);
            }
            for (int j = 0; j < 8; ++j) {
                const __m256 d =
                    _mm256_sub_ps(_mm256_set1_ps(ref[k + 8 + j]),
                                  _mm256_loadu_ps(planes[k + 8 + j] + o));
                s[j] = _mm256_add_ps(s[j], _mm256_mul_ps(d, d));
            }
            const __m256 u0 = _mm256_add_ps(_mm256_add_ps(s[0], s[4]),
                                            _mm256_add_ps(s[2], s[6]));
            const __m256 u1 = _mm256_add_ps(_mm256_add_ps(s[1], s[5]),
                                            _mm256_add_ps(s[3], s[7]));
            acc = _mm256_add_ps(acc, _mm256_add_ps(u0, u1));
        }
        for (; k < len; ++k) {
            const __m256 d =
                _mm256_sub_ps(_mm256_set1_ps(ref[k]),
                              _mm256_loadu_ps(planes[k] + o));
            acc = _mm256_add_ps(acc, _mm256_mul_ps(d, d));
        }
        _mm256_storeu_ps(out + i, acc);
    };
    int i = 0;
    for (; i + 8 <= count; i += 8)
        group8(i);
    // Overlapped tail: rescore the run's last 8 candidates. Lanes are
    // independent, so the overlap rewrites identical values.
    if (i < count)
        group8(count - 8);
}

int
selectMatches(const float *d, int count, float tau, float cut,
              BestList *list)
{
    // The 16-entry list lives in four registers: distances in dlo/dhi,
    // slots in ilo/ihi. Lanes at and past size hold +inf, so lane
    // capacity - 1 is the worst distance of a full list and +inf
    // otherwise, and the 16 lanes stay sorted: a candidate goes to the
    // first lane holding a greater distance, the lanes from there on
    // shift up by one, and one not below lane capacity - 1 leaves
    // lanes [0, capacity) as they were (the list's rejection).
    const float inf = std::numeric_limits<float>::infinity();
    const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    const __m256i up = _mm256_setr_epi32(7, 0, 1, 2, 3, 4, 5, 6);
    const __m256i size_v = _mm256_set1_epi32(list->size);
    const __m256 infv = _mm256_set1_ps(inf);
    __m256 dlo = _mm256_blendv_ps(
        infv, _mm256_loadu_ps(list->dist),
        _mm256_castsi256_ps(_mm256_cmpgt_epi32(size_v, lane)));
    __m256 dhi = _mm256_blendv_ps(
        infv, _mm256_loadu_ps(list->dist + 8),
        _mm256_castsi256_ps(_mm256_cmpgt_epi32(
            size_v, _mm256_add_epi32(lane, _mm256_set1_epi32(8)))));
    __m256i ilo =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(list->idx));
    __m256i ihi = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(list->idx + 8));
    const int cap = list->capacity;
    const __m256i worst_lane = _mm256_set1_epi32((cap - 1) & 7);
    const __m256 neg_inf = _mm256_set1_ps(-inf);
    const __m256 tauv = _mm256_set1_ps(tau);
    int size = list->size;
    int pruned = 0;

    for (int base = 0; base < count; base += 8) {
        const int n = count - base < 8 ? count - base : 8;
        const __m256 v =
            n == 8 ? _mm256_loadu_ps(d + base)
                   : _mm256_maskload_ps(
                         d + base, _mm256_cmpgt_epi32(
                                       _mm256_set1_epi32(n), lane));
        const unsigned valid = (1u << n) - 1u;
        // Pre-filter: the cut only falls, so a lane not below it now
        // stays rejected for the rest of the group.
        unsigned accept = static_cast<unsigned>(_mm256_movemask_ps(
                              _mm256_cmp_ps(v, _mm256_set1_ps(cut),
                                            _CMP_LT_OQ))) &
                          valid;
        const unsigned below_tau =
            static_cast<unsigned>(_mm256_movemask_ps(
                _mm256_cmp_ps(v, tauv, _CMP_LT_OQ))) &
            valid;
        pruned += _mm_popcnt_u32(below_tau & ~accept);
        while (accept != 0) {
            const int j = __builtin_ctz(accept);
            accept &= accept - 1;
            const float x = d[base + j];
            if (!(x < cut)) {
                if (x < tau)
                    ++pruned;
                continue;
            }
            const __m256 xv = _mm256_set1_ps(x);
            const __m256i sv = _mm256_set1_epi32(base + j);
            // Shift-up images: lane k holds lane k - 1 of the list
            // (-inf in front of lane 0, which is never greater than x).
            const __m256 dlo_r = _mm256_permutevar8x32_ps(dlo, up);
            const __m256 dhi_r = _mm256_permutevar8x32_ps(dhi, up);
            const __m256i ilo_r = _mm256_permutevar8x32_epi32(ilo, up);
            const __m256i ihi_r = _mm256_permutevar8x32_epi32(ihi, up);
            const __m256 slo = _mm256_blend_ps(dlo_r, neg_inf, 0x01);
            const __m256 shi = _mm256_blend_ps(dhi_r, dlo_r, 0x01);
            const __m256i sihi = _mm256_blend_epi32(ihi_r, ilo_r, 0x01);
            const __m256 gt_lo = _mm256_cmp_ps(dlo, xv, _CMP_GT_OQ);
            const __m256 gt_hi = _mm256_cmp_ps(dhi, xv, _CMP_GT_OQ);
            const __m256 sgt_lo = _mm256_cmp_ps(slo, xv, _CMP_GT_OQ);
            const __m256 sgt_hi = _mm256_cmp_ps(shi, xv, _CMP_GT_OQ);
            // Greater lanes take their shifted-up entry, except the
            // first of them, which takes the candidate.
            dlo = _mm256_blendv_ps(dlo, _mm256_blendv_ps(xv, slo, sgt_lo),
                                   gt_lo);
            dhi = _mm256_blendv_ps(dhi, _mm256_blendv_ps(xv, shi, sgt_hi),
                                   gt_hi);
            ilo = _mm256_blendv_epi8(
                ilo,
                _mm256_blendv_epi8(sv, ilo_r, _mm256_castps_si256(sgt_lo)),
                _mm256_castps_si256(gt_lo));
            ihi = _mm256_blendv_epi8(
                ihi,
                _mm256_blendv_epi8(sv, sihi, _mm256_castps_si256(sgt_hi)),
                _mm256_castps_si256(gt_hi));
            if (size < cap)
                ++size;
            const float worst = _mm256_cvtss_f32(_mm256_permutevar8x32_ps(
                cap > 8 ? dhi : dlo, worst_lane));
            cut = std::min(cut, worst);
        }
    }
    _mm256_storeu_ps(list->dist, dlo);
    _mm256_storeu_ps(list->dist + 8, dhi);
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(list->idx), ilo);
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(list->idx + 8), ihi);
    list->size = size;
    return pruned;
}

/** The 2x2 half matrices of the folded 4x4 DCT, each entry broadcast. */
struct Dct4Halves
{
    __m128 e[4];
    __m128 o[4];

    Dct4Halves(const float *even, const float *odd)
    {
        for (int k = 0; k < 4; ++k) {
            e[k] = _mm_set1_ps(even[k]);
            o[k] = _mm_set1_ps(odd[k]);
        }
    }
};

/**
 * Forward row pass on four 128-bit rows: mirror sums/differences, then
 * each output row as two broadcast products — the scalar reference's
 * per-lane expressions, with no cross-lane fold.
 */
inline void
dct4Pass(__m128 *r, const Dct4Halves &h)
{
    const __m128 s0 = _mm_add_ps(r[0], r[3]);
    const __m128 s1 = _mm_add_ps(r[1], r[2]);
    const __m128 d0 = _mm_sub_ps(r[0], r[3]);
    const __m128 d1 = _mm_sub_ps(r[1], r[2]);
    r[0] = _mm_add_ps(_mm_mul_ps(h.e[0], s0), _mm_mul_ps(h.e[1], s1));
    r[1] = _mm_add_ps(_mm_mul_ps(h.o[0], d0), _mm_mul_ps(h.o[1], d1));
    r[2] = _mm_add_ps(_mm_mul_ps(h.e[2], s0), _mm_mul_ps(h.e[3], s1));
    r[3] = _mm_add_ps(_mm_mul_ps(h.o[2], d0), _mm_mul_ps(h.o[3], d1));
}

/**
 * Inverse row pass on four 128-bit rows: each mirror pair's even and
 * odd halves as two broadcast products, then their sum (rows 0, 1)
 * and difference (rows 3, 2) — the scalar reference's expressions.
 */
inline void
dct4PassInverse(__m128 *r, const Dct4Halves &h)
{
    const __m128 e0 =
        _mm_add_ps(_mm_mul_ps(h.e[0], r[0]), _mm_mul_ps(h.e[1], r[2]));
    const __m128 e1 =
        _mm_add_ps(_mm_mul_ps(h.e[2], r[0]), _mm_mul_ps(h.e[3], r[2]));
    const __m128 o0 =
        _mm_add_ps(_mm_mul_ps(h.o[0], r[1]), _mm_mul_ps(h.o[1], r[3]));
    const __m128 o1 =
        _mm_add_ps(_mm_mul_ps(h.o[2], r[1]), _mm_mul_ps(h.o[3], r[3]));
    r[0] = _mm_add_ps(e0, o0);
    r[1] = _mm_add_ps(e1, o1);
    r[2] = _mm_sub_ps(e1, o1);
    r[3] = _mm_sub_ps(e0, o0);
}

/** 2-D inverse of the 16 coefficients at @p in into four pixel rows. */
inline void
dct4InverseRows(const float *in, const Dct4Halves &h, __m128 *r)
{
    for (int k = 0; k < 4; ++k)
        r[k] = _mm_loadu_ps(in + 4 * k);
    dct4PassInverse(r, h);
    _MM_TRANSPOSE4_PS(r[0], r[1], r[2], r[3]);
    dct4PassInverse(r, h);
}

void
dct4Forward(const float *in, float *out, const float *fwd_even,
            const float *fwd_odd)
{
    const Dct4Halves h(fwd_even, fwd_odd);
    __m128 r[4];
    for (int k = 0; k < 4; ++k)
        r[k] = _mm_loadu_ps(in + 4 * k);
    dct4Pass(r, h);
    _MM_TRANSPOSE4_PS(r[0], r[1], r[2], r[3]);
    dct4Pass(r, h);
    for (int k = 0; k < 4; ++k)
        _mm_storeu_ps(out + 4 * k, r[k]);
}

void
dct4Inverse(const float *in, float *out, const float *inv_even,
            const float *inv_odd)
{
    __m128 r[4];
    dct4InverseRows(in, Dct4Halves(inv_even, inv_odd), r);
    for (int k = 0; k < 4; ++k)
        _mm_storeu_ps(out + 4 * k, r[k]);
}

void
aggregateAdd(float *num, float *den, const float *pix, float weight,
             int count)
{
    const __m256 wv = _mm256_set1_ps(weight);
    int i = 0;
    for (; i + 8 <= count; i += 8) {
        const __m256 n = _mm256_loadu_ps(num + i);
        const __m256 p = _mm256_loadu_ps(pix + i);
        _mm256_storeu_ps(num + i,
                         _mm256_add_ps(n, _mm256_mul_ps(wv, p)));
        _mm256_storeu_ps(den + i,
                         _mm256_add_ps(_mm256_loadu_ps(den + i), wv));
    }
    for (; i < count; ++i) {
        num[i] += weight * pix[i];
        den[i] += weight;
    }
}

void
mergeAdd(float *num, float *den, const float *onum, const float *oden,
         int count)
{
    int i = 0;
    for (; i + 8 <= count; i += 8) {
        _mm256_storeu_ps(num + i,
                         _mm256_add_ps(_mm256_loadu_ps(num + i),
                                       _mm256_loadu_ps(onum + i)));
        _mm256_storeu_ps(den + i,
                         _mm256_add_ps(_mm256_loadu_ps(den + i),
                                       _mm256_loadu_ps(oden + i)));
    }
    for (; i < count; ++i) {
        num[i] += onum[i];
        den[i] += oden[i];
    }
}

// ---- int16 kernels -----------------------------------------------
//
// _mm256_madd_epi16 accumulates 16 int16 lanes per instruction — the
// throughput win this path exists for. Integer adds commute mod 2^32,
// so lane/fold order is free; only the element semantics of the
// scalar reference must hold (and the intrinsics define them).

/** Scalar element helpers for tails (same bodies as the scalar TU). */
inline int16_t
diffI16(int16_t a, int16_t b)
{
    return static_cast<int16_t>(static_cast<uint16_t>(a) -
                                static_cast<uint16_t>(b));
}

inline uint32_t
sqI16(int16_t d)
{
    return static_cast<uint32_t>(static_cast<int32_t>(d) * d);
}

inline int16_t
satAddI16(int16_t a, int16_t b)
{
    const int32_t v = static_cast<int32_t>(a) + b;
    return static_cast<int16_t>(v > 32767 ? 32767 : (v < -32768 ? -32768 : v));
}

inline int16_t
satSubI16(int16_t a, int16_t b)
{
    const int32_t v = static_cast<int32_t>(a) - b;
    return static_cast<int16_t>(v > 32767 ? 32767 : (v < -32768 ? -32768 : v));
}

inline int16_t
mulhrsI16(int16_t a, int16_t b)
{
    return static_cast<int16_t>(
        (static_cast<int32_t>(a) * b + 0x4000) >> 15);
}

/** Strided gathers — scalar at every level (like the float ssdSoa). */
int32_t
ssdSoaI16(const int16_t *const *pa, size_t off_a, const int16_t *const *pb,
          size_t off_b, int len, int32_t bound)
{
    uint32_t acc = 0;
    int k = 0;
    for (; k + 16 <= len; k += 16) {
        for (int j = 0; j < 16; ++j)
            acc += sqI16(diffI16(pa[k + j][off_a], pb[k + j][off_b]));
        if (static_cast<int32_t>(acc) > bound)
            return static_cast<int32_t>(acc);
    }
    for (; k < len; ++k) {
        acc += sqI16(diffI16(pa[k][off_a], pb[k][off_b]));
        if (static_cast<int32_t>(acc) > bound)
            return static_cast<int32_t>(acc);
    }
    return static_cast<int32_t>(acc);
}

inline int32_t
ssdSoaOneI16(const int16_t *ref, const int16_t *const *planes, size_t off,
             int len)
{
    uint32_t acc = 0;
    for (int k = 0; k < len; ++k)
        acc += sqI16(diffI16(ref[k], planes[k][off]));
    return static_cast<int32_t>(acc);
}

void
ssdSoaBatchI16(const int16_t *ref, const int16_t *const *planes,
               size_t off, int len, int count, int32_t *out)
{
    // Sixteen candidates per pass. Coefficient pairs (k, k+1) are
    // interleaved per 128-bit lane with unpacklo/hi so one madd
    // accumulates both squares per candidate:
    //   accA int32 lanes = candidates {0-3, 8-11},
    //   accB int32 lanes = candidates {4-7, 12-15};
    // permute2x128 relinearizes after the loop.
    const auto block16 = [&](size_t o, int32_t *dst) {
        __m256i accA = _mm256_setzero_si256();
        __m256i accB = _mm256_setzero_si256();
        int k = 0;
        for (; k + 2 <= len; k += 2) {
            const __m256i dk = _mm256_sub_epi16(
                _mm256_set1_epi16(ref[k]),
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(planes[k] + o)));
            const __m256i dk1 = _mm256_sub_epi16(
                _mm256_set1_epi16(ref[k + 1]),
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(planes[k + 1] + o)));
            const __m256i lo = _mm256_unpacklo_epi16(dk, dk1);
            const __m256i hi = _mm256_unpackhi_epi16(dk, dk1);
            accA = _mm256_add_epi32(accA, _mm256_madd_epi16(lo, lo));
            accB = _mm256_add_epi32(accB, _mm256_madd_epi16(hi, hi));
        }
        __m256i out0 = _mm256_permute2x128_si256(accA, accB, 0x20);
        __m256i out1 = _mm256_permute2x128_si256(accA, accB, 0x31);
        if (k < len) { // odd trailing coefficient, linear layout
            const __m256i d = _mm256_sub_epi16(
                _mm256_set1_epi16(ref[k]),
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(planes[k] + o)));
            const __m256i wa =
                _mm256_cvtepi16_epi32(_mm256_castsi256_si128(d));
            const __m256i wb =
                _mm256_cvtepi16_epi32(_mm256_extracti128_si256(d, 1));
            out0 = _mm256_add_epi32(out0, _mm256_mullo_epi32(wa, wa));
            out1 = _mm256_add_epi32(out1, _mm256_mullo_epi32(wb, wb));
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst), out0);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + 8), out1);
    };
    // Eight candidates: the same pair interleave on 128-bit loads,
    // the two halves joined into one 256-bit madd (already linear).
    const auto block8 = [&](size_t o, int32_t *dst) {
        __m256i acc = _mm256_setzero_si256();
        int k = 0;
        for (; k + 2 <= len; k += 2) {
            const __m128i dk = _mm_sub_epi16(
                _mm_set1_epi16(ref[k]),
                _mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(planes[k] + o)));
            const __m128i dk1 = _mm_sub_epi16(
                _mm_set1_epi16(ref[k + 1]),
                _mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(planes[k + 1] + o)));
            const __m256i p = _mm256_set_m128i(_mm_unpackhi_epi16(dk, dk1),
                                               _mm_unpacklo_epi16(dk, dk1));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(p, p));
        }
        if (k < len) { // odd trailing coefficient
            const __m256i w = _mm256_cvtepi16_epi32(_mm_sub_epi16(
                _mm_set1_epi16(ref[k]),
                _mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(planes[k] + o))));
            acc = _mm256_add_epi32(acc, _mm256_mullo_epi32(w, w));
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst), acc);
    };
    if (count < 8) {
        for (int i = 0; i < count; ++i)
            out[i] = ssdSoaOneI16(ref, planes,
                                  off + static_cast<size_t>(i), len);
        return;
    }
    int i = 0;
    for (; i + 16 <= count; i += 16)
        block16(off + static_cast<size_t>(i), out + i);
    for (; i + 8 <= count; i += 8)
        block8(off + static_cast<size_t>(i), out + i);
    // Overlapped tail (see ssdSoaBatch): SSDs are pure per-candidate
    // functions, so the overlapping lanes rewrite identical values.
    if (i < count)
        block8(off + static_cast<size_t>(count - 8), out + (count - 8));
}

inline int32_t
ssdPairOneI16(const int16_t *ref, const int16_t *const *pair_planes,
              size_t o2, int len)
{
    uint32_t acc = 0;
    for (int p = 0; p + 2 <= len; p += 2) {
        const int16_t *plane = pair_planes[p / 2];
        acc += sqI16(diffI16(ref[p], plane[o2]));
        acc += sqI16(diffI16(ref[p + 1], plane[o2 + 1]));
    }
    return static_cast<int32_t>(acc);
}

void
ssdPairBatchI16(const int16_t *ref, const int16_t *const *pair_planes,
                size_t off, int len, int count, int32_t *out)
{
    // The pair-interleaved layout is what the interleave dance in
    // ssdSoaBatchI16 exists to synthesize: one 256-bit load covers the
    // (2p, 2p+1) lanes of eight adjacent candidates and madd against
    // the broadcast reference pair yields eight already-linear int32
    // partial sums. Sixteen candidates per pass, two loads and two
    // madds per pair, zero shuffles; then eight-candidate blocks of one
    // load and one madd per pair.
    const int pairs = len / 2;
    __m256i rbc[32]; // ref pairs broadcast once; len <= 64 coefs
    for (int p = 0; p < pairs && p < 32; ++p) {
        const uint32_t packed =
            static_cast<uint16_t>(ref[2 * p]) |
            (static_cast<uint32_t>(static_cast<uint16_t>(ref[2 * p + 1]))
             << 16);
        rbc[p] = _mm256_set1_epi32(static_cast<int32_t>(packed));
    }
    const auto block16 = [&](size_t o2, int32_t *dst) {
        __m256i acc0 = _mm256_setzero_si256();
        __m256i acc1 = _mm256_setzero_si256();
        for (int p = 0; p < pairs; ++p) {
            const int16_t *base = pair_planes[p] + o2;
            const __m256i d0 = _mm256_sub_epi16(
                rbc[p], _mm256_loadu_si256(
                            reinterpret_cast<const __m256i *>(base)));
            const __m256i d1 = _mm256_sub_epi16(
                rbc[p],
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(base + 16)));
            acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(d0, d0));
            acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(d1, d1));
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst), acc0);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + 8), acc1);
    };
    const auto block8 = [&](size_t o2, int32_t *dst) {
        __m256i acc = _mm256_setzero_si256();
        for (int p = 0; p < pairs; ++p) {
            const __m256i d = _mm256_sub_epi16(
                rbc[p], _mm256_loadu_si256(reinterpret_cast<const __m256i *>(
                            pair_planes[p] + o2)));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(d, d));
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst), acc);
    };
    if (count < 8) {
        for (int i = 0; i < count; ++i)
            out[i] = ssdPairOneI16(ref, pair_planes,
                                   2 * (off + static_cast<size_t>(i)), len);
        return;
    }
    int i = 0;
    for (; i + 16 <= count; i += 16)
        block16(2 * (off + static_cast<size_t>(i)), out + i);
    for (; i + 8 <= count; i += 8)
        block8(2 * (off + static_cast<size_t>(i)), out + i);
    // Overlapped tail (see ssdSoaBatchI16).
    if (i < count)
        block8(2 * (off + static_cast<size_t>(count - 8)),
               out + (count - 8));
}

/** [set1(lo) | set1(hi)] as 8 int32 lanes. */
inline __m256i
pairI32(int lo, int hi)
{
    return _mm256_set_m128i(_mm_set1_epi32(hi), _mm_set1_epi32(lo));
}

/**
 * Int16 DCT row pass, two output rows per register: widen the four
 * input rows to int32, mirror fold, compute [row0|row2] from the sums
 * and [row1|row3] from the differences, rounded shift, then one
 * 256-bit packs_epi32 whose per-lane packing emits rows 0,1,2,3 in
 * order.
 */
inline void
dct4PassI16(const int16_t *in, int16_t *out, const int16_t *even,
            const int16_t *odd, int shift)
{
    const __m128i cnt = _mm_cvtsi32_si128(shift);
    const __m256i rnd = _mm256_set1_epi32(1 << (shift - 1));
    const __m128i r0 = _mm_cvtepi16_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i *>(in)));
    const __m128i r1 = _mm_cvtepi16_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i *>(in + 4)));
    const __m128i r2 = _mm_cvtepi16_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i *>(in + 8)));
    const __m128i r3 = _mm_cvtepi16_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i *>(in + 12)));
    const __m256i s0 =
        _mm256_broadcastsi128_si256(_mm_add_epi32(r0, r3));
    const __m256i s1 =
        _mm256_broadcastsi128_si256(_mm_add_epi32(r1, r2));
    const __m256i d0 =
        _mm256_broadcastsi128_si256(_mm_sub_epi32(r0, r3));
    const __m256i d1 =
        _mm256_broadcastsi128_si256(_mm_sub_epi32(r1, r2));
    const __m256i v02 = _mm256_add_epi32(
        _mm256_mullo_epi32(pairI32(even[0], even[2]), s0),
        _mm256_mullo_epi32(pairI32(even[1], even[3]), s1));
    const __m256i v13 = _mm256_add_epi32(
        _mm256_mullo_epi32(pairI32(odd[0], odd[2]), d0),
        _mm256_mullo_epi32(pairI32(odd[1], odd[3]), d1));
    const __m256i q02 =
        _mm256_sra_epi32(_mm256_add_epi32(v02, rnd), cnt);
    const __m256i q13 =
        _mm256_sra_epi32(_mm256_add_epi32(v13, rnd), cnt);
    // per lane: low = [row0, row1], high = [row2, row3]
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(out),
                        _mm256_packs_epi32(q02, q13));
}

/** Pure permutation — bitwise-neutral, scalar is fine. */
inline void
transpose4I16(const int16_t *in, int16_t *out)
{
    for (int r = 0; r < 4; ++r)
        for (int c = 0; c < 4; ++c)
            out[c * 4 + r] = in[r * 4 + c];
}

void
dct4ForwardI16(const int16_t *in, int16_t *out, const int16_t *even_q,
               const int16_t *odd_q, int shift1, int shift2)
{
    int16_t t1[16], t2[16];
    dct4PassI16(in, t1, even_q, odd_q, shift1);
    transpose4I16(t1, t2);
    dct4PassI16(t2, out, even_q, odd_q, shift2);
}

int
hardThresholdI16(int16_t *v, int count, int16_t threshold)
{
    const __m256i thr = _mm256_set1_epi16(threshold);
    int kept = 0;
    int i = 0;
    for (; i + 16 <= count; i += 16) {
        const __m256i x = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(v + i));
        // AVX2 has no cmplt: below = thr > abs(x).
        const __m256i below =
            _mm256_cmpgt_epi16(thr, _mm256_abs_epi16(x));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(v + i),
                            _mm256_andnot_si256(below, x));
        kept += 16 - _mm_popcnt_u32(static_cast<unsigned>(
                         _mm256_movemask_epi8(below))) /
                         2;
    }
    for (; i < count; ++i) {
        const int16_t av =
            v[i] < 0 ? static_cast<int16_t>(-static_cast<int32_t>(v[i]))
                     : v[i];
        if (av < threshold)
            v[i] = 0;
        else
            ++kept;
    }
    return kept;
}

// ---- fused group-major denoise kernels (DESIGN §12) --------------
//
// A group tile runs in column groups of 8 float (16 int16) lanes. The
// stack rows of a group ride in registers, one vector per row, and the
// Haar butterfly schedule is unrolled at compile time for each depth
// the KernelTable allows (the powers of two up to 16): no loop runs to
// a runtime stack length, and the rows stay in registers from load to
// store (a 16-deep group and its constants need a few more than the 16
// ymm registers, so the compiler spills those). Every operation is
// lane-vertical with the same per-element expressions as the scalar
// TU, so the results match the scalar kernels bitwise. The last group
// of a width that is not a multiple of the group runs the same code on
// a zero-padded copy, its padding lanes masked out of the counts.

/** Float butterfly: (a + b) * 1/sqrt(2) and (a - b) * 1/sqrt(2). */
struct HaarF32
{
    __m256 f = _mm256_set1_ps(1.0f / std::sqrt(2.0f));

    __m256
    sum(__m256 a, __m256 b) const
    {
        return _mm256_mul_ps(_mm256_add_ps(a, b), f);
    }

    __m256
    diff(__m256 a, __m256 b) const
    {
        return _mm256_mul_ps(_mm256_sub_ps(a, b), f);
    }
};

/** Int16 butterfly: mulhrs(adds(a, b), f) and mulhrs(subs(a, b), f). */
struct HaarI16
{
    __m256i f;

    __m256i
    sum(__m256i a, __m256i b) const
    {
        return _mm256_mulhrs_epi16(_mm256_adds_epi16(a, b), f);
    }

    __m256i
    diff(__m256i a, __m256i b) const
    {
        return _mm256_mulhrs_epi16(_mm256_subs_epi16(a, b), f);
    }
};

/**
 * Forward Haar across the first @p Len rows of @p buf in the
 * Haar1D::forward schedule: each level writes its details to
 * dom[half + i] and its approximations to the front of buf, and the
 * last approximation lands in dom[0].
 */
template <int Len, typename V, typename B>
inline void
haarForwardRegs(V *buf, V *dom, const B &bf)
{
    if constexpr (Len == 1) {
        dom[0] = buf[0];
    } else {
        constexpr int half = Len / 2;
        for (int i = 0; i < half; ++i) {
            const V e = buf[2 * i];
            const V o = buf[2 * i + 1];
            dom[half + i] = bf.diff(e, o);
            buf[i] = bf.sum(e, o);
        }
        haarForwardRegs<half>(buf, dom, bf);
    }
}

/**
 * Inverse Haar of @p dom into the @p S rows of @p buf, doubling the
 * rebuilt length from @p Len; each level writes its rows back to
 * front, so it works in place.
 */
template <int S, int Len = 1, typename V, typename B>
inline void
haarInverseRegs(V *buf, const V *dom, const B &bf)
{
    if constexpr (Len == 1)
        buf[0] = dom[0];
    if constexpr (Len < S) {
        for (int i = Len - 1; i >= 0; --i) {
            const V a = buf[i];
            const V d = dom[Len + i];
            buf[2 * i] = bf.sum(a, d);
            buf[2 * i + 1] = bf.diff(a, d);
        }
        haarInverseRegs<S, 2 * Len>(buf, dom, bf);
    }
}

/**
 * Call @p f with std::integral_constant<int, stack>: the fused kernels
 * take a power-of-two stack of at most 16 (simd.h), one unrolled
 * instance per depth.
 */
template <typename F>
inline int
withDepth(int stack, const F &f)
{
    switch (stack) {
      case 1: return f(std::integral_constant<int, 1>{});
      case 2: return f(std::integral_constant<int, 2>{});
      case 4: return f(std::integral_constant<int, 4>{});
      case 8: return f(std::integral_constant<int, 8>{});
      default:
        assert(stack == 16);
        return f(std::integral_constant<int, 16>{});
    }
}

/**
 * Copy @p n lanes of each of @p rows tile rows between row strides
 * (the partial last column group in and out of its padded copy).
 */
template <typename T>
inline void
copyLanes(const T *src, int src_stride, T *dst, int dst_stride, int rows,
          int n)
{
    for (int i = 0; i < rows; ++i)
        std::copy(src + static_cast<size_t>(i) * src_stride,
                  src + static_cast<size_t>(i) * src_stride + n,
                  dst + static_cast<size_t>(i) * dst_stride);
}

/**
 * haarShrinkFused on one 8-lane column group at row stride @p stride;
 * @p lanes masks the lanes that count towards the kept total.
 */
template <int S>
inline int
haarShrinkGroup(float *g, int stride, const HaarF32 &bf, __m256 thr,
                unsigned lanes)
{
    const __m256 abs_mask =
        _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
    __m256 buf[S];
    __m256 dom[S];
    for (int i = 0; i < S; ++i)
        buf[i] = _mm256_loadu_ps(g + static_cast<size_t>(i) * stride);
    haarForwardRegs<S>(buf, dom, bf);
    int kept = 0;
    for (int i = 0; i < S; ++i) {
        const __m256 below = _mm256_cmp_ps(_mm256_and_ps(dom[i], abs_mask),
                                           thr, _CMP_LT_OQ);
        dom[i] = _mm256_andnot_ps(below, dom[i]);
        kept += _mm_popcnt_u32(
            ~static_cast<unsigned>(_mm256_movemask_ps(below)) & lanes);
    }
    haarInverseRegs<S>(buf, dom, bf);
    for (int i = 0; i < S; ++i)
        _mm256_storeu_ps(g + static_cast<size_t>(i) * stride, buf[i]);
    return kept;
}

int
haarShrinkFused(float *g, int stack, int width, float threshold)
{
    return withDepth(stack, [&](auto depth) {
        constexpr int S = decltype(depth)::value;
        const HaarF32 bf;
        const __m256 thr = _mm256_set1_ps(threshold);
        int kept = 0;
        int c = 0;
        for (; c + 8 <= width; c += 8)
            kept += haarShrinkGroup<S>(g + c, width, bf, thr, 0xffu);
        if (c < width) {
            const int n = width - c;
            alignas(32) float pad[S * 8] = {};
            copyLanes(g + c, width, pad, 8, S, n);
            kept += haarShrinkGroup<S>(pad, 8, bf, thr, (1u << n) - 1);
            copyLanes(pad, 8, g + c, width, S, n);
        }
        return kept;
    });
}

/**
 * wienerShrinkFused on one 8-lane column group. The basic rows go
 * first — their transform back to @p bg, their weights to @p w — and
 * the noisy rows then read the weights back, so one stack at a time
 * is live in registers.
 */
template <int S>
inline int
wienerShrinkGroup(float *g, float *bg, float *w, int stride,
                  const HaarF32 &bf, __m256 s2, unsigned lanes)
{
    const __m256 half = _mm256_set1_ps(0.5f);
    __m256 buf[S];
    __m256 dom[S];
    for (int i = 0; i < S; ++i)
        buf[i] = _mm256_loadu_ps(bg + static_cast<size_t>(i) * stride);
    haarForwardRegs<S>(buf, dom, bf);
    int strong = 0;
    for (int i = 0; i < S; ++i) {
        const __m256 b2 = _mm256_mul_ps(dom[i], dom[i]);
        const __m256 wv = _mm256_div_ps(b2, _mm256_add_ps(b2, s2));
        _mm256_storeu_ps(w + static_cast<size_t>(i) * stride, wv);
        _mm256_storeu_ps(bg + static_cast<size_t>(i) * stride, dom[i]);
        strong += _mm_popcnt_u32(
            static_cast<unsigned>(_mm256_movemask_ps(
                _mm256_cmp_ps(wv, half, _CMP_GT_OQ))) &
            lanes);
    }
    for (int i = 0; i < S; ++i)
        buf[i] = _mm256_loadu_ps(g + static_cast<size_t>(i) * stride);
    haarForwardRegs<S>(buf, dom, bf);
    for (int i = 0; i < S; ++i)
        dom[i] = _mm256_mul_ps(
            dom[i], _mm256_loadu_ps(w + static_cast<size_t>(i) * stride));
    haarInverseRegs<S>(buf, dom, bf);
    for (int i = 0; i < S; ++i)
        _mm256_storeu_ps(g + static_cast<size_t>(i) * stride, buf[i]);
    return strong;
}

int
wienerShrinkFused(float *g, float *bg, float *w, int stack, int width,
                  float sigma2)
{
    return withDepth(stack, [&](auto depth) {
        constexpr int S = decltype(depth)::value;
        const HaarF32 bf;
        const __m256 s2 = _mm256_set1_ps(sigma2);
        int strong = 0;
        int c = 0;
        for (; c + 8 <= width; c += 8)
            strong += wienerShrinkGroup<S>(g + c, bg + c, w + c, width, bf,
                                           s2, 0xffu);
        if (c < width) {
            const int n = width - c;
            alignas(32) float pg[S * 8] = {};
            alignas(32) float pb[S * 8] = {};
            alignas(32) float pw[S * 8];
            copyLanes(g + c, width, pg, 8, S, n);
            copyLanes(bg + c, width, pb, 8, S, n);
            strong +=
                wienerShrinkGroup<S>(pg, pb, pw, 8, bf, s2, (1u << n) - 1);
            copyLanes(pg, 8, g + c, width, S, n);
            copyLanes(pb, 8, bg + c, width, S, n);
            copyLanes(pw, 8, w + c, width, S, n);
        }
        return strong;
    });
}

void
aggregateGroup(float *num, float *den, int plane_w, const float *coefs,
               const int *lx, const int *ly, int stack, float weight,
               const float *inv_even, const float *inv_odd)
{
    // Patch rows are 4 floats: each restored row is added straight
    // from its register with 128-bit adds — the same element
    // expressions as the scalar reference (and aggregateAdd's body).
    const Dct4Halves h(inv_even, inv_odd);
    const __m128 wv = _mm_set1_ps(weight);
    for (int i = 0; i < stack; ++i) {
        __m128 r[4];
        dct4InverseRows(coefs + 16 * i, h, r);
        for (int k = 0; k < 4; ++k) {
            const size_t off =
                static_cast<size_t>(ly[i] + k) * plane_w + lx[i];
            _mm_storeu_ps(num + off,
                          _mm_add_ps(_mm_loadu_ps(num + off),
                                     _mm_mul_ps(wv, r[k])));
            _mm_storeu_ps(den + off,
                          _mm_add_ps(_mm_loadu_ps(den + off), wv));
        }
    }
}

/**
 * haarShrinkFusedI16 on one 16-lane column group; @p lanes masks the
 * movemask bits (two per lane) that count towards the kept total.
 */
template <int S>
inline int
haarShrinkGroupI16(int16_t *g, int stride, const HaarI16 &bf, __m256i thr,
                   unsigned lanes)
{
    __m256i buf[S];
    __m256i dom[S];
    for (int i = 0; i < S; ++i)
        buf[i] = _mm256_loadu_si256(reinterpret_cast<const __m256i *>(
            g + static_cast<size_t>(i) * stride));
    haarForwardRegs<S>(buf, dom, bf);
    int kept_bits = 0;
    for (int i = 0; i < S; ++i) {
        // AVX2 has no cmplt: below = thr > abs(x).
        const __m256i below =
            _mm256_cmpgt_epi16(thr, _mm256_abs_epi16(dom[i]));
        dom[i] = _mm256_andnot_si256(below, dom[i]);
        kept_bits += _mm_popcnt_u32(
            ~static_cast<unsigned>(_mm256_movemask_epi8(below)) & lanes);
    }
    haarInverseRegs<S>(buf, dom, bf);
    for (int i = 0; i < S; ++i)
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(g + static_cast<size_t>(i) * stride),
            buf[i]);
    return kept_bits / 2;
}

int
haarShrinkFusedI16(int16_t *g, int stack, int width, int16_t threshold,
                   int16_t factor_q15)
{
    return withDepth(stack, [&](auto depth) {
        constexpr int S = decltype(depth)::value;
        const HaarI16 bf{_mm256_set1_epi16(factor_q15)};
        const __m256i thr = _mm256_set1_epi16(threshold);
        int kept = 0;
        int c = 0;
        for (; c + 16 <= width; c += 16)
            kept += haarShrinkGroupI16<S>(g + c, width, bf, thr,
                                          0xffffffffu);
        if (c < width) {
            const int n = width - c;
            alignas(32) int16_t pad[S * 16] = {};
            copyLanes(g + c, width, pad, 16, S, n);
            kept += haarShrinkGroupI16<S>(pad, 16, bf, thr,
                                          (1u << (2 * n)) - 1);
            copyLanes(pad, 16, g + c, width, S, n);
        }
        return kept;
    });
}

const KernelTable kAvx2TableStorage = {
    ssd,           ssdSoa,          ssdSoaBatch,     selectMatches,
    dct4Forward,   dct4Inverse,     aggregateAdd,    mergeAdd,
    ssdSoaI16,     ssdSoaBatchI16,  ssdPairBatchI16, dct4ForwardI16,
    hardThresholdI16,
    haarShrinkFused, wienerShrinkFused, aggregateGroup,
    haarShrinkFusedI16,
};

} // namespace

const KernelTable &kAvx2Table = kAvx2TableStorage;

} // namespace detail
} // namespace simd
} // namespace ideal

#else // !x86

namespace ideal {
namespace simd {
namespace detail {

const KernelTable &kAvx2Table = kScalarTable;

} // namespace detail
} // namespace simd
} // namespace ideal

#endif
