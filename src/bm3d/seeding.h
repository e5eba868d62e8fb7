#ifndef IDEAL_BM3D_SEEDING_H_
#define IDEAL_BM3D_SEEDING_H_

/**
 * @file
 * Temporal match seeding for the streaming runtime: frame t's BM1
 * search is seeded with frame t-1's match lists, the per-frame
 * analogue of Matches Reuse (paper Sec. 5.1) extended along the time
 * axis the way the V-BM3D predictive matcher (src/bm3d/video.cc)
 * tracks patches across frames. The MR check carries over unchanged:
 * a reference reuses the previous *frame's* matches at the same grid
 * cell when its descriptor moved less than K * Tmatch between frames —
 * static content then pays a small re-verification window instead of
 * the full Ns x Ns scan.
 *
 * The stores are plain persistent vectors sized to the reference grid;
 * a streaming run ping-pongs two of them (read t-1 / write t), so the
 * steady state allocates nothing.
 */

#include <atomic>
#include <cstdint>
#include <vector>

namespace ideal {
namespace bm3d {

/** One remembered match position (patch top-left, grid-clamped). */
struct SeedPos
{
    uint16_t x = 0;
    uint16_t y = 0;
};

/**
 * Per-reference-cell match memory of one frame: for every reference
 * grid cell (xi, yi), up to @p capacity match positions, plus the
 * reference patch's own matching-domain descriptor (the thresholded
 * DCT coefficients) against which the next frame runs the MR-style
 * closeness check — keeping the previous frame's whole DctPatchField
 * alive just for that check would pin an extra ~pos*coefs buffer.
 */
class SeedStore
{
  public:
    /** (Re)size for an nx x ny reference grid; clears all counts. */
    void
    reset(int nx, int ny, int coefs, int capacity)
    {
        nx_ = nx;
        ny_ = ny;
        coefs_ = coefs;
        capacity_ = capacity;
        const size_t cells = static_cast<size_t>(nx) * ny;
        pos.resize(cells * capacity);
        count.assign(cells, 0);
        refDesc.resize(cells * coefs);
    }

    bool
    matches(int nx, int ny, int coefs, int capacity) const
    {
        return nx_ == nx && ny_ == ny && coefs_ == coefs &&
               capacity_ == capacity;
    }

    int nx() const { return nx_; }
    int ny() const { return ny_; }
    int coefs() const { return coefs_; }
    int capacity() const { return capacity_; }

    const SeedPos *
    cell(size_t idx) const
    {
        return pos.data() + idx * capacity_;
    }

    std::vector<SeedPos> pos;   ///< cells x capacity match positions
    std::vector<uint8_t> count; ///< valid entries per cell
    std::vector<float> refDesc; ///< cells x coefs reference descriptors

  private:
    int nx_ = 0;
    int ny_ = 0;
    int coefs_ = 0;
    int capacity_ = 0;
};

/**
 * Seeding I/O of one streamed frame, passed into the stage-1 runner
 * via StageOptions: read the previous frame's store (null for the
 * first frame), write the current frame's. Reads and writes index the
 * same deterministic reference grid, and every cell is written by
 * exactly one tile, so parallel tiles never contend. The stage runner
 * adds the counters once per stage, after its last tile.
 */
struct TemporalSeed
{
    const SeedStore *previous = nullptr; ///< frame t-1 (read-only)
    SeedStore *current = nullptr;        ///< frame t (written per ref)

    /// Accept the temporal reuse when the descriptor distance between
    /// the frames is below this (seedK * tauMatch1, like MR's K).
    float reuseBound = 0.0f;

    /// Odd re-verification window (<= searchWindow1) scanned around
    /// the reference even on a seed hit, so small motion is re-found.
    int window = 9;

    std::atomic<uint64_t> refs{0}; ///< refs where seeding was tried
    std::atomic<uint64_t> hits{0}; ///< refs served by seeded search
};

} // namespace bm3d
} // namespace ideal

#endif // IDEAL_BM3D_SEEDING_H_
