#ifndef IDEAL_BM3D_CONFIG_H_
#define IDEAL_BM3D_CONFIG_H_

/**
 * @file
 * Configuration of the BM3D denoiser (paper Sec. 2). The defaults are
 * the quality-optimal parameters reported by Heide et al. and used
 * throughout the paper: 4x4 patches, reference/search strides of 1,
 * 49x49 search windows in the hard-thresholding stage, 39x39 in the
 * Wiener stage, and 16 best matches.
 */

#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>

#include "fixed/format.h"

namespace ideal {
namespace bm3d {

/** Which of the two BM3D stages a step belongs to. */
enum class Stage {
    HardThreshold, ///< stage 1: BM1 + DE1
    Wiener,        ///< stage 2: BM2 + DE2
};

/**
 * Arithmetic precision of the block-matching datapath.
 *
 * Int16 quantizes the matching planes (thresholded DCT coefficients
 * for BM1, basic-estimate pixels for BM2) to the int16 Q formats of
 * fixed/int16plan.h and runs the SSD kernels on int16 lanes — twice
 * the AVX2 throughput of float. On the fused denoise path (DESIGN
 * §12) DE1's Haar-across-patches + hard threshold also runs on Q11.1
 * int16 raws; DE2's Wiener shrinkage and all inverse transforms stay
 * float. Output is NOT bitwise equal to Float32 (tolerance-gated
 * instead) but is bitwise deterministic across SIMD levels and thread
 * counts within Int16. Requires the fused denoise path
 * (Bm3dConfig::fusedDenoisePath()), the only one with an int16 DE1.
 * Temporal match seeding seeds the float DCT domain only, so
 * runtime::StreamConfig::validate() rejects it under Int16.
 */
enum class Precision {
    Float32, ///< full float matching (the default)
    Int16,   ///< quantized int16 matching datapath
};

/**
 * Adaptive fast-matching configuration (DESIGN §11): algorithmic
 * BM1/BM2 work reduction in the spirit of the fast-BM3D survey of
 * Sanders & Larkin (arXiv 2103.10765), orthogonal to the SIMD and
 * int16 datapaths. Two composable mechanisms, each an ablation knob:
 *
 *  1. *Adaptive early-termination bound* (adaptiveBound): each window
 *     search seeds its acceptance cutoff from the previous reference
 *     cell's worst kept distance, scaled by a safety margin, instead
 *     of starting from Tmatch and re-learning the cutoff while the
 *     match list refills. Adjacent references see overlapping windows,
 *     so the previous cell's 16th-best distance is a tight prediction
 *     of the current one's. Candidates whose distance already exceeds
 *     the propagated bound die on one compare without an insertion
 *     attempt. A candidate is only ever lost when its distance lands
 *     between the bound and what the dense scan would have kept, which
 *     the margin makes rare; boundMargin = infinity is *bitwise*
 *     identical to the dense scan.
 *
 *  2. *Coarse-to-fine reference grid* (coarseToFine): BM runs on a
 *     subsampled reference grid (every coarseStride-th grid position,
 *     tile edges always included), then measures a per-tile residual —
 *     mean normalized match distance with unfilled stack slots charged
 *     at Tmatch — and densifies only tiles whose residual reaches
 *     densifyThreshold back to the full grid. Smooth regions keep the
 *     stride-squared work reduction; structured regions fall back to
 *     the dense scan, so worst-case quality is preserved.
 *     densifyThreshold <= 0 densifies every tile, which is bitwise
 *     identical to the full-stride scan; >= 1 never densifies.
 *
 * Not composable with Matches Reuse (mr.enabled): MR chains state
 * across *consecutive* references, which the subsampled grid breaks;
 * validate() rejects the combination rather than silently changing
 * MR's meaning. Temporal seeding (streaming runtime) composes with
 * both mechanisms.
 */
struct MatchVariantConfig
{
    /// Mechanism 1: propagate each search's final worst-kept distance
    /// into the next search's starting cutoff.
    bool adaptiveBound = false;

    /**
     * Safety margin multiplier (>= 1) applied to the propagated bound.
     * Larger margins prune less and lose less quality; infinity turns
     * the mechanism into a no-op that is bitwise equal to dense.
     */
    float boundMargin = 2.0f;

    /// Mechanism 2: subsampled reference grid with per-tile dense
    /// fallback.
    bool coarseToFine = false;

    /// Reference-grid subsample factor (2 or 3), in grid-index units
    /// on top of refStride.
    int coarseStride = 2;

    /**
     * Per-tile residual at or above which the tile is densified to the
     * full reference grid. The residual is in [0, 1): 0 = every stack
     * full of perfect matches, ->1 = stacks empty or at Tmatch.
     */
    float densifyThreshold = 0.25f;

    /// True when any mechanism is active.
    bool
    any() const
    {
        return adaptiveBound || coarseToFine;
    }
};

/**
 * Row-band streaming schedule (DESIGN §15): partition the frame into
 * horizontal bands of consecutive tile rows and run each stage band by
 * band — and, in the full two-stage pipeline, interleave stage-2 bands
 * behind stage 1's aggregation frontier — so the live DctPatchField
 * working set is O(W * bandRows * 16) coefficients (a ring buffer)
 * instead of O(W * H * 16). The CPU analog of IDEALMR's 6.5 KB
 * sliding-window buffer (paper §5): same arithmetic, restructured for
 * locality. Band scheduling may reorder work but never arithmetic —
 * output is bitwise identical to the stage-major schedule for every
 * precision, SIMD level and thread count.
 */
struct BandConfig
{
    /// Enable the band-pipelined schedule.
    bool enabled = false;

    /**
     * Nominal band height in reference-grid rows. Bands are rounded to
     * whole tile rows (the merge-order unit), so the effective height
     * is a multiple of tileGrain covering at least this many rows; the
     * trailing band takes whatever is left. The field ring is sized to
     * one band plus the BM1 search halo.
     */
    int rows = 64;
};

/** Matches-Reuse (MR) configuration (paper Sec. 5.1). */
struct MrConfig
{
    bool enabled = false;
    /**
     * Aggressiveness factor K in (0, 1]: reuse is attempted when the
     * distance between consecutive reference patches is below
     * K * Tmatch. Larger K reuses more aggressively.
     */
    double k = 0.25;

    /**
     * Extension (paper Sec. 5.3 future work: "Exploiting MR across
     * rows could further reduce the processing time"): when the
     * left-neighbor check misses, also try reusing the matches of the
     * reference patch directly above. Applies within a worker's row
     * band, so the hardware implication is per-lane state only.
     */
    bool acrossRows = false;
};

/** Full algorithm configuration. */
struct Bm3dConfig
{
    /// Patch dimension PD (patches are patchSize x patchSize pixels).
    int patchSize = 4;
    /// Reference-patch stride Ps.
    int refStride = 1;
    /// Search stride Ss within the window.
    int searchStride = 1;
    /// Search window dimension Ns for the hard-thresholding stage.
    int searchWindow1 = 49;
    /// Search window dimension Ns for the Wiener stage.
    int searchWindow2 = 39;
    /// Maximum patches in a 3-D stack (16 best matches).
    int maxMatches = 16;

    /// Noise standard deviation the filter is tuned for.
    float sigma = 25.0f;

    /// 2-D DCT hard threshold Tht used before matching distances in
    /// BM1, as a multiple of sigma. The paper's pipeline always
    /// thresholds (Fig. 1b); suppressing sub-threshold noise in the
    /// matching domain is also what makes adjacent reference patches
    /// similar enough for the high MR hit rates of Fig. 10.
    float lambda2d = 2.0f;
    /// 3-D shrinkage threshold Thard as a multiple of sigma.
    float lambda3d = 2.7f;
    /// Match-distance threshold Tmatch for BM1 (normalized by PD^2).
    float tauMatch1 = 3000.0f;
    /// Match-distance threshold Tmatch for BM2 (normalized by PD^2).
    float tauMatch2 = 400.0f;

    /// Run the second (Wiener) stage. Disabling it is an ablation knob;
    /// the paper's pipeline always runs both stages.
    bool enableWiener = true;

    /// Software optimization: early-terminate distance computations
    /// once they exceed the current acceptance bound. The "Basic"
    /// CPU implementation of Fig. 2 disables this.
    bool boundedDistance = true;

    MrConfig mr;

    /// Adaptive fast-matching mechanisms (all off = the dense scan).
    MatchVariantConfig variant;

    /// Row-band streaming schedule (off = stage-major, DESIGN §15).
    BandConfig band;

    /**
     * Joint sharpening (paper Sec. 7): after shrinkage, coefficient
     * magnitudes are raised to the power 1/alpha (alpha-rooting) for
     * alpha > 1. 1.0 means no sharpening.
     */
    float sharpenAlpha = 1.0f;

    /**
     * Cap on the per-coefficient amplification alpha-rooting may
     * apply (spatially-adaptive rooting in the spirit of Makitalo &
     * Foi keeps the boost bounded; unbounded rooting over-amplifies
     * mid-band coefficients).
     */
    float sharpenMaxBoost = 2.0f;

    /**
     * When set, run the datapath in fixed point with these formats
     * (paper Sec. 4.2); otherwise use floating point.
     */
    std::optional<fixed::PipelineFormats> fixedPoint;

    /// Precision of the block-matching datapath (see Precision).
    Precision precision = Precision::Float32;

    /// Number of worker threads (1 = single-thread; 0 or negative
    /// selects the hardware thread count).
    int numThreads = 1;

    /**
     * Tile edge of the parallel runner's 2-D decomposition, in
     * reference-patch grid units. The tile grid depends only on the
     * image size and this grain — never on the thread count — which is
     * what makes denoised output bit-identical for any numThreads.
     * Smaller grains improve load balance and cache locality of the
     * search window; larger grains lengthen Matches-Reuse runs (MR
     * state resets at each tile's row starts).
     */
    int tileGrain = 64;

    /** Validate invariants; throws std::invalid_argument on error. */
    void
    validate() const
    {
        if (patchSize < 2 || patchSize > 8)
            throw std::invalid_argument("patchSize must be in [2, 8]");
        if (refStride < 1 || searchStride < 1)
            throw std::invalid_argument("strides must be >= 1");
        if (searchWindow1 < patchSize || searchWindow2 < patchSize)
            throw std::invalid_argument("search window smaller than patch");
        if (searchWindow1 % 2 == 0 || searchWindow2 % 2 == 0)
            throw std::invalid_argument("search windows must be odd");
        if (maxMatches < 1 || maxMatches > 16 ||
            (maxMatches & (maxMatches - 1)) != 0)
            throw std::invalid_argument("maxMatches must be pow2 <= 16");
        // !(in range) rather than (out of range): NaN fails every
        // comparison, and must be rejected too.
        if (!(sigma > 0.0f))
            throw std::invalid_argument("sigma must be positive");
        if (mr.enabled && !(mr.k > 0.0 && mr.k <= 1.0))
            throw std::invalid_argument("MR factor K must be in (0, 1]");
        if (variant.adaptiveBound &&
            (std::isnan(variant.boundMargin) || variant.boundMargin < 1.0f))
            throw std::invalid_argument(
                "variant.boundMargin must be >= 1 (inf = dense)");
        if (variant.coarseToFine &&
            (variant.coarseStride < 2 || variant.coarseStride > 4))
            throw std::invalid_argument(
                "variant.coarseStride must be in [2, 4]");
        if (variant.coarseToFine && mr.enabled)
            throw std::invalid_argument(
                "variant.coarseToFine is not composable with Matches "
                "Reuse (MR chains state across consecutive references)");
        if (!(sharpenAlpha >= 1.0f))
            throw std::invalid_argument("sharpenAlpha must be >= 1");
        if (tileGrain < 1)
            throw std::invalid_argument("tileGrain must be >= 1");
        if (band.rows < 1)
            throw std::invalid_argument("band.rows must be >= 1");
        if (precision == Precision::Int16 && !fusedDenoisePath())
            throw std::invalid_argument(
                "int16 precision requires the fused denoise path "
                "(patchSize 4, no fixedPoint, sharpenAlpha 1): the "
                "discrete denoise path has no int16 DE1");
    }

    /**
     * True when the denoising step DE runs the group-major fused
     * datapath (DESIGN §12): 4x4 patches, no fixedPoint formats and no
     * sharpening. Every other config runs the discrete per-position
     * path, whose float output the fused one reproduces bit for bit.
     * Only the fused path has an int16 DE1, so Int16 requires it.
     */
    bool
    fusedDenoisePath() const
    {
        return patchSize == 4 && !fixedPoint && sharpenAlpha == 1.0f;
    }

    /** Search window size of @p stage. */
    int
    searchWindow(Stage stage) const
    {
        return stage == Stage::HardThreshold ? searchWindow1
                                             : searchWindow2;
    }

    /** Match threshold of @p stage (normalized distance units). */
    float
    tauMatch(Stage stage) const
    {
        return stage == Stage::HardThreshold ? tauMatch1 : tauMatch2;
    }
};

} // namespace bm3d
} // namespace ideal

#endif // IDEAL_BM3D_CONFIG_H_
