#ifndef IDEAL_SIMD_SIMD_H_
#define IDEAL_SIMD_SIMD_H_

/**
 * @file
 * Runtime-dispatched SIMD kernel layer for the BM3D hot path.
 *
 * One implementation of every hot kernel exists per instruction-set
 * level (scalar / AVX2); the best level the CPU supports is selected
 * once at startup via CPUID and can be overridden with
 * IDEAL_SIMD=scalar|avx2 (an unknown value, or a request above what
 * the CPU supports, keeps the best level with a warning). Library
 * code calls through the active KernelTable, so a single baseline-ISA
 * build adapts to the machine it lands on.
 *
 * ## The reduction-order rule
 *
 * Every kernel is bitwise-deterministic across dispatch levels: for
 * the same inputs, the scalar and AVX2 variants return identical
 * bits. Two mechanisms make that possible:
 *
 * 1. *Vertical* operations (the DCT passes, Haar butterflies,
 *    shrinkage, aggregation) touch each lane independently, so any
 *    vector width computes the exact scalar sequence per element.
 *    The only rule is that no variant may fuse a multiply-add (the
 *    kernel translation units are compiled with -ffp-contract=off
 *    and without -mfma).
 *
 * 2. *Horizontal* reductions (the SSD distance) fix one canonical
 *    adder tree: 8 accumulator lanes, element k accumulating into
 *    lane k%8 in element order, folded as
 *        ((s0+s4)+(s2+s6)) + ((s1+s5)+(s3+s7)).
 *    The scalar variant keeps 8 scalar accumulators and AVX2 holds
 *    them in one __m256 whose standard extract/add/movehl fold
 *    produces exactly that tree.
 *    Trailing elements (len % 8) are always added sequentially after
 *    the fold, in every variant.
 *
 * Because the tree is fixed per kernel *and* per length, output is
 * also invariant under thread count (kernels are pure functions),
 * preserving the tiled runner's determinism guarantee.
 *
 * ## Int16 kernels
 *
 * The *I16 rows operate on pre-quantized int16 raws (see
 * fixed/int16plan.h). Their determinism needs no canonical tree:
 * integer addition mod 2^32 is associative and commutative, so any
 * lane count and any fold order produce identical bits. The contract
 * is instead fixed at the element level — wrapping int16 differences,
 * mod-2^32 accumulation, round-to-nearest right shifts, and
 * saturation only at documented pack points — which every ISA variant
 * reproduces exactly, including out-of-range edge cases (the
 * all-(-32768) _mm256_madd_epi16 wrap, abs(-32768) == -32768).
 */

#include <cstddef>
#include <cstdint>

namespace ideal {
namespace simd {

/** Instruction-set level of a kernel table, in increasing order. */
enum class Level {
    Scalar = 0, ///< portable C++, no intrinsics
    Avx2 = 1,   ///< AVX2 (256-bit)
};

/** Lower-case level name ("scalar", "avx2"). */
const char *toString(Level level);

/**
 * The best-match list one selectMatches call reads and updates — the
 * BM engine's 16-entry priority queue MQ (paper Fig. 6). Entries
 * [0, size) hold ascending distances, equal distances in insertion
 * order; idx names the candidate's slot in the scanned buffer.
 */
struct BestList
{
    static constexpr int kCapacity = 16;
    float dist[kCapacity];
    int32_t idx[kCapacity];
    int size;     ///< entries held, in [0, capacity]
    int capacity; ///< in [1, kCapacity]
};

/**
 * The set of hot kernels. All pointers are always non-null; the
 * scalar table is the reference semantics every other level must
 * reproduce bitwise.
 */
struct KernelTable
{
    /**
     * Squared L2 distance over @p len elements with the canonical
     * 8-lane tree applied once over the whole array (single fold,
     * sequential tail).
     */
    float (*ssd)(const float *a, const float *b, int len);

    /**
     * Squared L2 distance between two patches stored coefficient-major
     * (SoA): coefficient k of patch a is pa[k][off_a], of patch b
     * pb[k][off_b]. Accumulated per 16-coefficient block in the
     * canonical 8-lane tree (lane k%8, fold, blocks summed
     * sequentially, sequential tail), with early exit once the
     * partial sum exceeds @p bound (pass +inf for the exact
     * distance); partial results are only guaranteed to compare
     * > @p bound. The two pointer arrays may differ, so cross-field
     * distances (video matching) use the same kernel.
     */
    float (*ssdSoa)(const float *const *pa, size_t off_a,
                    const float *const *pb, size_t off_b, int len,
                    float bound);

    /**
     * Batched SoA SSD: out[i] = exact distance between the gathered
     * reference descriptor @p ref (len contiguous floats) and the
     * candidate at planes[k][off + i], for i in [0, count); @p count
     * is arbitrary (callers pass whole window-row runs — one dispatch
     * per run). Candidates i are adjacent in every coefficient plane,
     * so each coefficient is one contiguous vector load. A run of 8 or
     * more ends with one vector group overlapping the previous one
     * (the overlapped tail rule: it reads only candidates inside the
     * run and rewrites identical values); shorter runs are scored per
     * candidate. Per candidate the accumulation order is exactly
     * ssdSoa with bound = +inf, so batch and single-pair results agree
     * bitwise at every dispatch level however a caller splits a run.
     */
    void (*ssdSoaBatch)(const float *ref, const float *const *planes,
                        size_t off, int len, int count, float *out);

    /**
     * Block-matching selection over one scored window (the BM
     * engine's compare-and-insert, paper Fig. 6). For i in [0, count)
     * in order, with the running cut starting at @p cut (callers pass
     * min(tau, adaptive bound)):
     *   - d[i] < cut: insert (d[i], i) into @p list — after entries of
     *     equal distance; a full list keeps its entries when d[i] is
     *     not below its last one, else drops the last — then
     *     cut = min(cut, worst), worst being the last distance of a
     *     full list and +inf otherwise;
     *   - else d[i] < @p tau: the candidate counts as pruned.
     * NaN distances fail both compares. Returns the pruned count.
     */
    int (*selectMatches)(const float *d, int count, float tau, float cut,
                         BestList *list);

    /**
     * Full 2-D folded 4x4 DCT forward: row pass, transpose, row pass.
     * @p fwd_even / @p fwd_odd are the 2x2 half matrices packed
     * row-major (Dct2D's fwdEven_/fwdOdd_ for n == 4).
     */
    void (*dct4Forward)(const float *in, float *out,
                        const float *fwd_even, const float *fwd_odd);

    /** Full 2-D folded 4x4 DCT inverse (invEven_/invOdd_ layout). */
    void (*dct4Inverse)(const float *in, float *out,
                        const float *inv_even, const float *inv_odd);

    /**
     * Weighted aggregation row: num[i] += weight * pix[i],
     * den[i] += weight.
     */
    void (*aggregateAdd)(float *num, float *den, const float *pix,
                         float weight, int count);

    /**
     * Aggregator tile-merge row: num[i] += onum[i], den[i] += oden[i].
     * Purely vertical, so any vector width reproduces the scalar
     * per-element sequence.
     */
    void (*mergeAdd)(float *num, float *den, const float *onum,
                     const float *oden, int count);

    /**
     * SoA int16 SSD (coefficient-major planes, same layout contract
     * as ssdSoa) with per-16-block early exit: differences wrap in
     * int16, squares accumulate mod 2^32. Exact whenever the
     * |pa - pb| raws fit the fixed::ssdSafeMagnitudeBits bound;
     * otherwise deterministically wrapped, identically at every
     * dispatch level. Strided gathers keep this scalar at every
     * level; the batch kernels below carry the vector win.
     */
    int32_t (*ssdSoaI16)(const int16_t *const *pa, size_t off_a,
                         const int16_t *const *pb, size_t off_b, int len,
                         int32_t bound);

    /**
     * Batched SoA int16 SSD: out[i] = the exact (bound-free) ssdSoaI16
     * distance of @p ref against the candidate at planes[k][off + i],
     * for i in [0, count); arbitrary @p count. _mm256_madd_epi16
     * processes 16 candidates per accumulate, then 8-candidate blocks
     * with the same overlapped tail rule as ssdSoaBatch, so window
     * rows of 8 to 15 candidates stay vectorized.
     */
    void (*ssdSoaBatchI16)(const int16_t *ref,
                           const int16_t *const *planes, size_t off,
                           int len, int count, int32_t *out);

    /**
     * Batched pair-interleaved int16 SSD — the block-matching window
     * scan kernel. Pair plane p stores coefficients (2p, 2p+1) of
     * position x adjacent at indices (2x, 2x+1), so eight candidates'
     * pair lanes are one contiguous 256-bit load and one madd against
     * the broadcast reference pair produces eight already-linearized
     * int32 partial sums: no unpack, no cross-lane permute. @p ref is
     * the gathered descriptor in natural coefficient order (pairs
     * adjacent), @p len the coefficient count (must be even), out[i]
     * the SSD of candidate off + i. Same wrap/exactness contract as
     * ssdSoaI16, same block and overlapped-tail shape as
     * ssdSoaBatchI16.
     */
    void (*ssdPairBatchI16)(const int16_t *ref,
                            const int16_t *const *pair_planes, size_t off,
                            int len, int count, int32_t *out);

    /**
     * Int16 folded 4x4 DCT forward. @p even_q / @p odd_q are the 2x2
     * half matrices quantized to Q(coefFracBits) raws. Each 1-D pass
     * computes in int32, renormalizes with a round-to-nearest right
     * shift (@p shift1 after pass 1, @p shift2 after pass 2) and
     * saturates to int16 at the two pack points (packs_epi32
     * semantics). See fixed::Int16DctPlan for the shift schedule.
     */
    void (*dct4ForwardI16)(const int16_t *in, int16_t *out,
                           const int16_t *even_q, const int16_t *odd_q,
                           int shift1, int shift2);

    /**
     * Int16 hard threshold in place: v[i] with abs_epi16(v[i]) <
     * threshold becomes 0. abs(-32768) stays -32768 and compares below
     * any positive threshold, so INT16_MIN is always zeroed — every
     * variant, scalar included, reproduces that. Returns the count of
     * surviving elements.
     */
    int (*hardThresholdI16)(int16_t *v, int count, int16_t threshold);

    // ---- fused group-major denoise kernels (DESIGN §12) ----------
    //
    // All four operate on a contiguous group tile g of
    // stack * width floats (int16 raws for the I16 row), row i holding
    // patch i's coefficients: the patch position is the SIMD lane, the
    // Haar butterflies walk rows. Every float operation is
    // lane-vertical with the exact per-element expressions of the
    // discrete denoise path (DenoiseEngine): Haar1D::forward /
    // inverse down each lane, |v| < threshold zeroed to +0.0f, Wiener
    // w = b^2 / (b^2 + sigma2), dct4Inverse + aggregateAdd arithmetic.
    // Fused output is therefore bitwise equal to that path at every
    // dispatch level. stack must be a power of two <= 16.

    /**
     * Fused DE1 spectrum pipeline over one group tile: full forward
     * Haar across the stack rows (factor = 1/sqrt(2) butterflies in
     * the Haar1D::forward schedule), hard threshold of every
     * transform-domain element against @p threshold (|v| < threshold
     * becomes +0.0f; NaN survives), full inverse Haar — one call, no
     * intermediate spill. Returns the surviving-coefficient count (the
     * aggregation weight's M).
     */
    int (*haarShrinkFused)(float *g, int stack, int width,
                           float threshold);

    /**
     * Fused DE2 spectrum pipeline: forward-Haar both the noisy tile
     * @p g and the basic tile @p bg, apply the empirical Wiener
     * weights w = b^2 / (b^2 + sigma2) to g (storing them to the
     * stack * width tile @p w, through which the AVX2 body carries
     * them from its basic pass to its noisy pass), inverse-Haar g.
     * @p bg is clobbered (left in the transform domain). Returns the
     * count of weights > 0.5.
     */
    int (*wienerShrinkFused)(float *g, float *bg, float *w, int stack,
                             int width, float sigma2);

    /**
     * Fused inverse-DCT + weighted scanline aggregation of one group:
     * for each patch i in [0, stack), inverse-transform the 16
     * coefficients at coefs + 16*i (dct4Inverse arithmetic with the
     * invEven_/invOdd_ half matrices) and accumulate the restored 4x4
     * patch into the num/den planes (row stride @p plane_w) at offset
     * (lx[i], ly[i]) with aggregateAdd element arithmetic, rows
     * blocked 4 wide. Patches are accumulated in ascending i, so
     * overlapping pixels see the same addition order as per-patch
     * aggregateAdd calls.
     */
    void (*aggregateGroup)(float *num, float *den, int plane_w,
                           const float *coefs, const int *lx,
                           const int *ly, int stack, float weight,
                           const float *inv_even, const float *inv_odd);

    /**
     * Int16 fused DE1 spectrum pipeline, same tile contract as
     * haarShrinkFused on Q11.1 raws: Haar butterflies of saturating
     * add/sub (adds/subs_epi16 semantics) followed by a Q15 rounded
     * multiply by @p factor_q15 (_mm_mulhrs_epi16 semantics, including
     * the -32768 * -32768 wrap), hardThresholdI16 shrinkage.
     * Integer lane arithmetic, so bitwise identical across levels by
     * construction. Returns the surviving-coefficient count.
     */
    int (*haarShrinkFusedI16)(int16_t *g, int stack, int width,
                              int16_t threshold, int16_t factor_q15);
};

/** Best level this CPU supports (probed once). */
Level bestSupported();

/**
 * The active dispatch level. Resolved on first use: bestSupported(),
 * lowered by IDEAL_SIMD if set.
 */
Level activeLevel();

/**
 * Test hook: force the active level (clamped to bestSupported()).
 * Not thread-safe against kernels in flight — call only from tests
 * and benchmarks between runs.
 */
void setLevel(Level level);

/** The kernel table of the active level. */
const KernelTable &kernels();

/**
 * The kernel table of @p level, clamped to bestSupported(). Lets
 * parity tests and microbenchmarks address a specific level without
 * changing the active dispatch.
 */
const KernelTable &kernelsFor(Level level);

} // namespace simd
} // namespace ideal

#endif // IDEAL_SIMD_SIMD_H_
