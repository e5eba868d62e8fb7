#ifndef IDEAL_BM3D_DENOISE_H_
#define IDEAL_BM3D_DENOISE_H_

/**
 * @file
 * The denoising step DE (paper Fig. 1c): stack the 16 best-matching
 * patches in the DCT domain, Haar-transform along the z dimension,
 * shrink the spectrum (hard threshold in DE1, empirical Wiener filter
 * in DE2, optional alpha-rooting for sharpening), inverse transform,
 * weight each restored patch by 1/M and accumulate into the output.
 */

#include <array>
#include <optional>
#include <vector>

#include "bm3d/config.h"
#include "bm3d/matchlist.h"
#include "bm3d/patchfield.h"
#include "bm3d/profile.h"
#include "image/image.h"
#include "transforms/dct.h"
#include "transforms/haar.h"

namespace ideal {
namespace runtime {
class BufferArena;
} // namespace runtime

namespace bm3d {

/**
 * Weighted-aggregation accumulators: per channel, a numerator image of
 * weighted pixel sums and a denominator image of weights. finalize()
 * produces the estimate, falling back to @p fallback where no patch
 * contributed (cannot happen for full-coverage strides, but guards
 * degenerate configurations).
 *
 * An aggregator may cover a sub-region of the image (the tiled
 * parallel runner gives each tile one sized to the tile's contribution
 * footprint). Patch coordinates are always full-image coordinates;
 * region aggregators are merged into the full-image one in tile order,
 * which is what makes multi-threaded aggregation deterministic.
 *
 * When constructed with a BufferArena, the accumulator planes are
 * drawn from (and on destruction returned to) the arena, so streamed
 * frames recycle them; the planes are zero-filled either way and the
 * arithmetic is unchanged, keeping output bitwise identical.
 */
class Aggregator
{
  public:
    /** Full-image accumulator with origin (0, 0). */
    Aggregator(int width, int height, int channels,
               runtime::BufferArena *arena = nullptr);

    /** Sub-region accumulator with origin (x0, y0) in image coords. */
    Aggregator(int x0, int y0, int width, int height, int channels,
               runtime::BufferArena *arena = nullptr);

    Aggregator(const Aggregator &) = delete;
    Aggregator &operator=(const Aggregator &) = delete;
    Aggregator(Aggregator &&other) noexcept;
    Aggregator &operator=(Aggregator &&other) noexcept;

    /** Releases the accumulator planes back to the arena, if any. */
    ~Aggregator();

    int originX() const { return x0_; }
    int originY() const { return y0_; }
    int width() const { return num_.width(); }
    int height() const { return num_.height(); }

    /** Accumulate a restored patch with weight @p w. The patch must
        lie fully inside this aggregator's region. */
    void addPatch(int x, int y, int c, int patch_size, const float *pixels,
                  float w);

    /**
     * Fused group aggregation (DESIGN §12): inverse-DCT and accumulate
     * @p stack 4x4 patches whose shrunk coefficients sit contiguously
     * in @p coefs (16 floats per patch), top-left corners at
     * (@p xs[i], @p ys[i]) in image coordinates, all with weight @p w.
     * Patches are added in ascending i with the same per-element
     * arithmetic as inverse-DCT + addPatch, so the result is bitwise
     * identical to the discrete sequence. 4x4 patches only;
     * @p inv_even / @p inv_odd are Dct2D::invEvenHalf()/invOddHalf().
     */
    void addGroup(const int *xs, const int *ys, int c, int stack,
                  const float *coefs, float w, const float *inv_even,
                  const float *inv_odd);

    /**
     * Produce the estimate image (full-image aggregators only). With
     * @p out_arena, the output image's storage is drawn from it (the
     * caller recycles it via Image::takeStorage or
     * StreamDenoiser::recycle).
     */
    image::ImageF finalize(const image::ImageF &fallback,
                           runtime::BufferArena *out_arena = nullptr) const;

    /**
     * Finalize pixel rows [y0, y1) of every channel into the
     * preallocated same-shape image @p out (full-image aggregators
     * only). Each sample computes the exact finalize() expression —
     * num/den with @p fallback where no patch contributed — and
     * samples are independent, so finalizing an image in row bands
     * (the band pipeline normalizes a band as soon as its halo is
     * complete, DESIGN §15) is bitwise identical to one finalize()
     * over the whole image.
     */
    void finalizeRowsInto(int y0, int y1, const image::ImageF &fallback,
                          image::ImageF &out) const;

    /**
     * Merge another aggregator whose region is contained in this one
     * (same-shape full merges and tile-into-image merges alike).
     */
    void merge(const Aggregator &other);

  private:
    int x0_ = 0;
    int y0_ = 0;
    image::ImageF num_;
    image::ImageF den_;
    runtime::BufferArena *arena_ = nullptr; ///< owns the plane storage
};

/**
 * Denoising engine for one stage. Denoises 3-D stacks from the match
 * lists block matching produced, one tile row of lists per call in the
 * tiled runner.
 */
class DenoiseEngine
{
  public:
    /**
     * @param config   algorithm configuration
     * @param stage    which stage's shrinkage to apply
     * @param noisy    the noisy input image (all channels)
     * @param basic    stage-1 estimate; required for the Wiener stage
     * @param dctField stage-1 channel-0 DCT field (Path C); may be
     *                 null for the Wiener stage
     * @param profile  optional profile for DE/DCT2 timing + op counts
     * @param arena    optional buffer arena the transform-once tile
     *                 caches recycle their storage through
     */
    DenoiseEngine(const Bm3dConfig &config, Stage stage,
                  const image::ImageF &noisy, const image::ImageF *basic,
                  const DctPatchField *dctField, Profile *profile,
                  runtime::BufferArena *arena = nullptr);

    DenoiseEngine(const DenoiseEngine &) = delete;
    DenoiseEngine &operator=(const DenoiseEngine &) = delete;

    /** Releases the fused group tile back to the arena, if any. */
    ~DenoiseEngine();

    /**
     * Denoise the @p count stacks described by @p lists in order and
     * accumulate the restored patches into @p agg: the second phase of
     * a tile row (DESIGN §5). The row is timed under DE1/DE2 as a
     * whole — the Wiener gathers included — and its op counts are
     * charged once. Empty lists denoise nothing.
     */
    void processRow(const MatchList *lists, int count, Aggregator &agg);

    /**
     * Group-major fused datapath traffic (DESIGN §12), accumulated
     * across processRow calls. The stage runner flushes these into
     * obs::MetricsRegistry as the bm3d.group.* counters; totals are
     * thread-count invariant.
     */
    struct GroupStats
    {
        uint64_t fusedStacks = 0;    ///< stacks through the fused path
        uint64_t fusedPatches = 0;   ///< patch-channel aggregations
        uint64_t fusedStacksI16 = 0; ///< subset shrunk in int16
        uint64_t legacyStacks = 0;   ///< stacks through the discrete path
    };
    const GroupStats &groupStats() const { return groupStats_; }

    /**
     * Transform-once: (re)build the per-tile DCT caches over the
     * inclusive patch-position range [x0, x1] x [y0, y1] — the tile
     * plus the matching halo its stacks can reach. The Wiener stage
     * caches every channel of both the noisy and the basic image
     * (charged to DCT2); stage 1 caches the color channels of the
     * noisy image (channel 0 stays on the global Path-C field).
     * gatherStack then copies cached coefficients instead of running
     * a forward DCT per stack membership. Positions outside the built
     * range fall back to on-the-fly transforms, so correctness never
     * depends on the halo. The caches are worker-local arenas: call
     * once per tile, steady-state rebuilds allocate nothing.
     */
    void prepareTile(int x0, int y0, int x1, int y1);

  private:
    static constexpr int kMaxStack = MatchList::kCapacity;
    static constexpr int kMaxCoefs = 64; // up to 8x8 patches

    /**
     * Gather the DCT-domain stack of channel @p c from image @p src,
     * resolving each member from the global Path-C field (when
     * @p reuse_field), then the tile cache @p tile (when it covers the
     * position), then an on-the-fly forward DCT. Member i's
     * coefficients are written at @p coefs + i * @p stride (the
     * discrete path passes kMaxCoefs, the fused path its packed tile
     * width pp).
     * @return the number of forward DCTs actually executed
     */
    uint64_t gatherStack(const image::ImageF &src, const MatchList &matches,
                         int stack_size, int c, bool reuse_field,
                         const TileDctField *tile, float *coefs,
                         int stride);

    /**
     * Discrete datapath, for every config the fused path cannot take
     * (Bm3dConfig::fusedDenoisePath() false: sharpening, fixedPoint
     * formats, patch sizes other than 4): per coefficient position,
     * Haar1D along the stack (fixed point under fixedPoint), shrink,
     * optional alpha-rooting, inverse Haar; then an inverse DCT and
     * addPatch per member. The op charge accrues to rowOps_.
     */
    void processStackDiscrete(const MatchList &matches, Aggregator &agg);

    /**
     * Group-major fused datapath (DESIGN §12): gather the matched
     * patches' DCT coefficients into the contiguous group tile, run
     * Haar-across-patches + shrinkage + inverse Haar as one fused
     * kernel call, and inverse-DCT + aggregate straight out of the
     * tile. Float output is bitwise identical to the discrete path's
     * per-element arithmetic; under Precision::Int16, DE1's
     * Haar+shrink runs on quantized Q11.1 raws instead
     * (tolerance-gated, still bitwise deterministic across SIMD levels
     * and thread counts).
     */
    void processStackFused(const MatchList &matches, Aggregator &agg);

    /** Op accounting shared by the fused and discrete paths: the
        charges are formula-based, so a stack costs the same ops on
        either path. Accrues to rowOps_/rowDctOps_ until processRow
        charges the row. */
    void chargeStackOps(uint64_t forward_dcts, int stack_size);

    /** Shrink one z-vector in place; returns its count M of
        surviving (DE1) or strongly passed (DE2, w > 0.5)
        coefficients. */
    int shrinkVector(float *vec, const float *wiener_ref, int stack_size);

    const Bm3dConfig &config_;
    Stage stage_;
    const image::ImageF &noisy_;
    const image::ImageF *basic_;
    const DctPatchField *dctField_;
    Profile *profile_;
    runtime::BufferArena *arena_;

    /// Op counts of the row in flight: DE1/DE2, and the forward DCTs
    /// of Wiener gathers no cache served (charged to DCT2).
    OpCounters rowOps_;
    OpCounters rowDctOps_;

    transforms::Dct2D dct_;
    std::vector<transforms::Haar1D> haars_; ///< sizes 2, 4, 8, 16
    float threshold3d_;

    /// Transform-once tile caches, one per channel (unbuilt entries
    /// cover no positions and are simply skipped).
    std::vector<TileDctField> noisyTiles_;
    std::vector<TileDctField> basicTiles_;
    bool tilesValid_ = false;

    /// Fused datapath state. The group tile holds three kMaxStack x 16
    /// slices (noisy coefficients, Wiener reference, Wiener weights:
    /// wienerShrinkFused's output tile, which the engine does not
    /// read), arena-recycled so streamed frames stay malloc-free.
    bool fusedEligible_ = false;
    std::vector<float> groupTile_;
    float *gNoisy_ = nullptr;
    float *gBasic_ = nullptr;
    float *wTile_ = nullptr;
    std::array<int16_t, kMaxStack * 16> gi16_{}; ///< int16 DE1 tile
    int16_t thresholdI16_ = 0; ///< threshold3d_ as a Q11.1 raw
    GroupStats groupStats_;
};

} // namespace bm3d
} // namespace ideal

#endif // IDEAL_BM3D_DENOISE_H_
