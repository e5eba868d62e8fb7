#ifndef IDEAL_BM3D_BM3D_H_
#define IDEAL_BM3D_BM3D_H_

/**
 * @file
 * Top-level BM3D denoiser (paper Sec. 2): the two-stage pipeline of
 * Hard-Thresholding (BM1 + DE1) followed by Wiener Filtering
 * (BM2 + DE2), with optional Matches Reuse, fixed-point datapath, and
 * joint sharpening. This is both the reference software implementation
 * (the "CPU" baselines of Sec. 3) and the functional model the
 * accelerator simulator validates against.
 */

#include "bm3d/config.h"
#include "bm3d/profile.h"
#include "image/image.h"

namespace ideal {
namespace runtime {
class BufferArena;
} // namespace runtime

namespace bm3d {

class DctPatchField;
struct TemporalSeed;

/**
 * Optional plumbing of a runStage() call, used by the frame pipeline
 * (src/service; StreamDenoiser runs on it). All members default to
 * "off"; the plain runStage overload forwards an empty StageOptions,
 * and every combination produces bitwise-identical output except an
 * active `seed` (which changes which candidates BM1 scores).
 */
struct StageOptions
{
    /**
     * Prebuilt channel-0 DCT field for the hard-threshold stage (the
     * streaming prepass computes it on a different thread, overlapping
     * the previous frame's stage-2/aggregation). When set, runStage
     * skips its own DCT1 pass; the caller keeps the field alive and
     * accounts its Dct1 time/ops.
     */
    const DctPatchField *field = nullptr;

    /// Recycle the large per-call buffers (aggregator planes, tile
    /// caches, output image, Wiener matching plane) through this arena.
    runtime::BufferArena *arena = nullptr;

    /// Temporal match seeding I/O (stage 1 only; see bm3d/seeding.h).
    TemporalSeed *seed = nullptr;
};

/** Output of a denoising run. */
struct Bm3dResult
{
    image::ImageF output; ///< final (Wiener-stage) estimate
    image::ImageF basic;  ///< intermediate hard-thresholding estimate
    Profile profile;      ///< per-step time/op accounting + MR stats
};

/**
 * BM3D denoiser. Construct once per configuration; denoise() is
 * reentrant and const (thread-safe for concurrent calls on different
 * images).
 */
class Bm3d
{
  public:
    /** @throws std::invalid_argument when the config is inconsistent */
    explicit Bm3d(Bm3dConfig config);

    const Bm3dConfig &config() const { return config_; }

    /**
     * Denoise @p noisy (1 or 3 channels, samples in [0, 255]).
     * Block matching uses channel 0, as in the paper.
     */
    Bm3dResult denoise(const image::ImageF &noisy) const;

    /**
     * Run a single stage. For Stage::Wiener, @p basic must be the
     * stage-1 estimate. Exposed for tests and for the accelerator
     * simulator's functional cross-checks.
     */
    image::ImageF runStage(Stage stage, const image::ImageF &noisy,
                           const image::ImageF *basic,
                           Profile &profile) const;

    /** runStage with streaming-runtime plumbing (see StageOptions). */
    image::ImageF runStage(Stage stage, const image::ImageF &noisy,
                           const image::ImageF *basic, Profile &profile,
                           const StageOptions &opts) const;

  private:
    Bm3dConfig config_;
};

/**
 * Reference-patch top-left positions along one axis: 0, Ps, 2*Ps, ...
 * with the final position clamped so the last patch touches the image
 * edge (every pixel is covered by at least one reference patch).
 */
std::vector<int> makeRefPositions(int last_valid, int stride);

} // namespace bm3d
} // namespace ideal

#endif // IDEAL_BM3D_BM3D_H_
