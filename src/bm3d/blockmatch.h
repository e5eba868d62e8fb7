#ifndef IDEAL_BM3D_BLOCKMATCH_H_
#define IDEAL_BM3D_BLOCKMATCH_H_

/**
 * @file
 * Block matching (paper Fig. 1b) with optional Matches Reuse
 * (Sec. 5.1). The matcher is parameterized by a *matching domain*:
 * BM1 measures distances between hard-thresholded DCT patches while
 * BM2 measures them between color-domain patches of the intermediate
 * image (Paths A and B).
 *
 * Both domains expose their descriptors coefficient-major (SoA): the
 * distance of 8 adjacent candidates against a reference loads one
 * contiguous 8-float lane per coefficient (src/simd ssdSoaBatch)
 * instead of eight position-major descriptors. The matcher gathers
 * the reference descriptor once per search, scores every window row
 * into one per-search distance buffer and selects the best matches
 * from it with one kernel call (src/simd selectMatches).
 */

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "bm3d/config.h"
#include "bm3d/matchlist.h"
#include "bm3d/patchfield.h"
#include "bm3d/seeding.h"
#include "fixed/int16plan.h"
#include "image/image.h"
#include "simd/simd.h"
#include "transforms/distance.h"

namespace ideal {
namespace bm3d {

/**
 * Candidates per int16 batch-kernel call: the int16 domains convert
 * raw SSDs through a stack buffer of this many, one call per chunk of
 * a window row.
 */
inline constexpr int kMaxBatchCandidates = 128;

/**
 * Window candidates the matcher scores into its stack distance buffer
 * (every window up to 63 x 63); larger windows use a heap buffer.
 */
inline constexpr int kWindowBuffer = 64 * 64;

/** Matching domain over a DCT patch field (BM1, Path A). */
class DctMatchDomain
{
  public:
    /** Element type of a gathered reference descriptor. */
    using DescType = float;

    explicit DctMatchDomain(const DctPatchField &field)
        : field_(field), coefs_(field.coefs()),
          norm_(1.0f / static_cast<float>(field.coefs()))
    {
    }

    int positionsX() const { return field_.positionsX(); }
    int positionsY() const { return field_.positionsY(); }
    int patchCoefs() const { return coefs_; }

    /** Normalized squared distance between patches at two top-lefts. */
    float
    distance(int ax, int ay, int bx, int by) const
    {
        return transforms::squaredDistanceSoa(
                   field_.matchPlanes(), field_.matchOffset(ax, ay),
                   field_.matchPlanes(), field_.matchOffset(bx, by),
                   coefs_) *
               norm_;
    }

    /** Distance with early exit once it exceeds @p bound. */
    float
    distanceBounded(int ax, int ay, int bx, int by, float bound) const
    {
        return transforms::squaredDistanceSoaBounded(
                   field_.matchPlanes(), field_.matchOffset(ax, ay),
                   field_.matchPlanes(), field_.matchOffset(bx, by),
                   coefs_, bound / norm_) *
               norm_;
    }

    /** Gather the reference descriptor at (x, y) (patchCoefs floats). */
    void
    gatherRef(int x, int y, float *out) const
    {
        field_.gatherMatchPatch(x, y, out);
    }

    /**
     * Normalized distances of the contiguous x-run [x0, x0 + count)
     * at row @p y against the gathered reference descriptor @p ref.
     * Exact values — bitwise equal to distance(), and below the bound
     * also to distanceBounded() (partial early-exit sums only ever
     * compare greater), so batched and per-candidate selection pick
     * identical matches.
     */
    void
    distanceBatch(const float *ref, int x0, int y, int count,
                  float *out) const
    {
        transforms::squaredDistanceSoaBatch(ref, field_.matchPlanes(),
                                            field_.matchOffset(x0, y),
                                            coefs_, count, out);
        for (int i = 0; i < count; ++i)
            out[i] *= norm_;
    }

  private:
    const DctPatchField &field_;
    int coefs_;
    float norm_;
};

/**
 * Matching domain over color-domain pixels (BM2, Path B).
 *
 * Coefficient plane (r, c) of the color domain at position (x, y) is
 * just pixel (x + c, y + r), so the pp "planes" are pp shifted
 * zero-copy views of the image plane: plane k = r * PD + c starts at
 * base + r * W + c and uses the pixel row stride. No descriptor array
 * is materialized (the previous eager copy was a PD^2 x memory
 * blow-up); the domain is a view and @p plane must outlive it.
 */
class ColorMatchDomain
{
  public:
    /** Element type of a gathered reference descriptor. */
    using DescType = float;

    ColorMatchDomain(const image::ImageF &plane, int patch_size)
        : coefs_(patch_size * patch_size),
          positionsX_(plane.width() - patch_size + 1),
          positionsY_(plane.height() - patch_size + 1),
          rowStride_(plane.width()),
          norm_(1.0f / static_cast<float>(patch_size * patch_size))
    {
        const float *base = plane.plane(0);
        planes_.resize(coefs_);
        for (int r = 0; r < patch_size; ++r)
            for (int c = 0; c < patch_size; ++c)
                planes_[r * patch_size + c] =
                    base + static_cast<size_t>(r) * rowStride_ + c;
    }

    int positionsX() const { return positionsX_; }
    int positionsY() const { return positionsY_; }
    int patchCoefs() const { return coefs_; }

    float
    distance(int ax, int ay, int bx, int by) const
    {
        return transforms::squaredDistanceSoa(planes_.data(),
                                              offset(ax, ay),
                                              planes_.data(),
                                              offset(bx, by), coefs_) *
               norm_;
    }

    float
    distanceBounded(int ax, int ay, int bx, int by, float bound) const
    {
        return transforms::squaredDistanceSoaBounded(
                   planes_.data(), offset(ax, ay), planes_.data(),
                   offset(bx, by), coefs_, bound / norm_) *
               norm_;
    }

    /** Gather the reference descriptor at (x, y) (patchCoefs floats). */
    void
    gatherRef(int x, int y, float *out) const
    {
        const size_t off = offset(x, y);
        for (int k = 0; k < coefs_; ++k)
            out[k] = planes_[k][off];
    }

    /**
     * Normalized distances of the contiguous x-run [x0, x0 + count)
     * at row @p y against the gathered reference @p ref. Same
     * exactness contract as DctMatchDomain::distanceBatch.
     */
    void
    distanceBatch(const float *ref, int x0, int y, int count,
                  float *out) const
    {
        transforms::squaredDistanceSoaBatch(ref, planes_.data(),
                                            offset(x0, y), coefs_, count,
                                            out);
        for (int i = 0; i < count; ++i)
            out[i] *= norm_;
    }

  private:
    size_t
    offset(int x, int y) const
    {
        return static_cast<size_t>(y) * rowStride_ + x;
    }

    int coefs_;
    int positionsX_;
    int positionsY_;
    size_t rowStride_;
    float norm_;
    std::vector<const float *> planes_; ///< zero-copy shifted views
};

/**
 * Int16 matching domain over a DCT patch field's quantized planes
 * (Config::precision == Int16, BM1). Distances are computed as exact
 * int32 raw SSDs over the Q11.1 coefficient planes — identical bits
 * at every SIMD level and thread count (integer adds commute) — and
 * converted to the float matcher's normalized units only at the
 * boundary. The field must have been built with prepareI16() +
 * fillRowsI16().
 */
class DctMatchDomainI16
{
  public:
    using DescType = int16_t;

    explicit DctMatchDomainI16(const DctPatchField &field)
        : field_(field), coefs_(field.coefs()),
          factor_(static_cast<float>(fixed::ssdFactor(
              field.int16Plan().match, field.coefs())))
    {
        if (!field.hasInt16())
            throw std::logic_error(
                "DctMatchDomainI16: field has no int16 planes");
    }

    int positionsX() const { return field_.positionsX(); }
    int positionsY() const { return field_.positionsY(); }
    int patchCoefs() const { return coefs_; }

    float
    distance(int ax, int ay, int bx, int by) const
    {
        return static_cast<float>(simd::kernels().ssdSoaI16(
                   field_.matchPlanesI16(), field_.matchOffset(ax, ay),
                   field_.matchPlanesI16(), field_.matchOffset(bx, by),
                   coefs_, INT32_MAX)) *
               factor_;
    }

    float
    distanceBounded(int ax, int ay, int bx, int by, float bound) const
    {
        return static_cast<float>(simd::kernels().ssdSoaI16(
                   field_.matchPlanesI16(), field_.matchOffset(ax, ay),
                   field_.matchPlanesI16(), field_.matchOffset(bx, by),
                   coefs_, rawBound(bound, factor_))) *
               factor_;
    }

    void
    gatherRef(int x, int y, int16_t *out) const
    {
        field_.gatherMatchPatchI16(x, y, out);
    }

    /**
     * Normalized distances of the run [x0, x0 + count) at row @p y:
     * exact int32 raw SSDs from the pair-interleaved batch kernel,
     * each converted once to the float distance() returns.
     */
    void
    distanceBatch(const int16_t *ref, int x0, int y, int count,
                  float *out) const
    {
        int32_t raw[kMaxBatchCandidates];
        for (int i = 0; i < count; i += kMaxBatchCandidates) {
            const int n = std::min(kMaxBatchCandidates, count - i);
            simd::kernels().ssdPairBatchI16(
                ref, field_.matchPairPlanesI16(),
                field_.matchOffset(x0 + i, y), coefs_, n, raw);
            for (int j = 0; j < n; ++j)
                out[i + j] = static_cast<float>(raw[j]) * factor_;
        }
    }

    /**
     * Float bound -> raw int32 bound. Truncation is the safe
     * direction: raw > floor(bound/factor) implies raw * factor >
     * bound, so early-exited partials still compare above the bound.
     */
    static int32_t
    rawBound(float bound, float factor)
    {
        const double scaled = static_cast<double>(bound) / factor;
        return scaled >= 2147483647.0 ? INT32_MAX
                                      : static_cast<int32_t>(scaled);
    }

  private:
    const DctPatchField &field_;
    int coefs_;
    float factor_;
};

/**
 * Int16 color-domain matching (Config::precision == Int16, BM2): the
 * basic-estimate plane is quantized once to Q8.4 raws and the pp
 * coefficient planes are shifted views of that copy (same offset
 * scheme as ColorMatchDomain). One quantization pass per stage-2
 * plane buys int16 SSD lanes for the whole BM2 window scan.
 */
class ColorMatchDomainI16
{
  public:
    using DescType = int16_t;

    /**
     * @param deferred skip the eager whole-plane quantization; the
     *                 caller then feeds pixel rows via quantizeRows()
     *                 before any search reads them. The band pipeline
     *                 (DESIGN §15) uses this to quantize the basic
     *                 estimate as its rows are finalized — per-sample
     *                 quantization makes any row banding produce the
     *                 same raws as the eager constructor.
     */
    ColorMatchDomainI16(const image::ImageF &plane, int patch_size,
                        bool deferred = false)
        : coefs_(patch_size * patch_size),
          positionsX_(plane.width() - patch_size + 1),
          positionsY_(plane.height() - patch_size + 1),
          rowStride_(plane.width()), fmt_(fixed::colorMatchFormat()),
          factor_(static_cast<float>(fixed::ssdFactor(
              fixed::colorMatchFormat(), patch_size * patch_size)))
    {
        const size_t n =
            static_cast<size_t>(plane.width()) * plane.height();
        pixelsQ_.resize(n);
        if (!deferred)
            fixed::quantizeToI16(plane.plane(0), n, fmt_, pixelsQ_.data());
        planes_.resize(coefs_);
        for (int r = 0; r < patch_size; ++r)
            for (int c = 0; c < patch_size; ++c)
                planes_[r * patch_size + c] =
                    pixelsQ_.data() + static_cast<size_t>(r) * rowStride_ +
                    c;
    }

    /**
     * Quantize pixel rows [y0, y1) of @p plane (channel 0, same shape
     * as the construction plane) into the copy — the incremental twin
     * of the eager constructor's one-shot pass.
     */
    void
    quantizeRows(const image::ImageF &plane, int y0, int y1)
    {
        if (y1 <= y0)
            return;
        const size_t off = static_cast<size_t>(y0) * rowStride_;
        const size_t n = static_cast<size_t>(y1 - y0) * rowStride_;
        fixed::quantizeToI16(plane.plane(0) + off, n, fmt_,
                             pixelsQ_.data() + off);
    }

    int positionsX() const { return positionsX_; }
    int positionsY() const { return positionsY_; }
    int patchCoefs() const { return coefs_; }

    float
    distance(int ax, int ay, int bx, int by) const
    {
        return static_cast<float>(simd::kernels().ssdSoaI16(
                   planes_.data(), offset(ax, ay), planes_.data(),
                   offset(bx, by), coefs_, INT32_MAX)) *
               factor_;
    }

    float
    distanceBounded(int ax, int ay, int bx, int by, float bound) const
    {
        return static_cast<float>(simd::kernels().ssdSoaI16(
                   planes_.data(), offset(ax, ay), planes_.data(),
                   offset(bx, by), coefs_,
                   DctMatchDomainI16::rawBound(bound, factor_))) *
               factor_;
    }

    void
    gatherRef(int x, int y, int16_t *out) const
    {
        const size_t off = offset(x, y);
        for (int k = 0; k < coefs_; ++k)
            out[k] = planes_[k][off];
    }

    /**
     * Normalized distances of the run, as DctMatchDomainI16's. This
     * domain deliberately keeps the plain shifted-view layout rather
     * than materializing pair-interleaved planes: the views all alias
     * one half-megabyte quantized copy that stays L2-resident across
     * the whole stage-2 scan, and in the full pipeline (searches
     * interleaved with denoising work) that footprint win beats the
     * pair kernel's shuffle-free inner loop, which needs a 16x larger
     * array.
     */
    void
    distanceBatch(const int16_t *ref, int x0, int y, int count,
                  float *out) const
    {
        int32_t raw[kMaxBatchCandidates];
        for (int i = 0; i < count; i += kMaxBatchCandidates) {
            const int n = std::min(kMaxBatchCandidates, count - i);
            simd::kernels().ssdSoaBatchI16(ref, planes_.data(),
                                           offset(x0 + i, y), coefs_, n,
                                           raw);
            for (int j = 0; j < n; ++j)
                out[i + j] = static_cast<float>(raw[j]) * factor_;
        }
    }

  private:
    size_t
    offset(int x, int y) const
    {
        return static_cast<size_t>(y) * rowStride_ + x;
    }

    int coefs_;
    int positionsX_;
    int positionsY_;
    size_t rowStride_;
    fixed::Format fmt_;
    float factor_;
    std::vector<int16_t> pixelsQ_;        ///< quantized plane copy
    std::vector<const int16_t *> planes_; ///< shifted views of the copy
};

/**
 * Block-matching engine over a matching domain.
 *
 * search() performs the full Ns x Ns window scan; searchReuse()
 * performs the Matches-Reuse reduced scan: the previous reference
 * patch's best matches (clipped to the current window) plus the
 * rightmost Ns x Ps column of positions that are new to the current
 * window (paper Sec. 5.1).
 */
template <typename Domain>
class BlockMatcher
{
  public:
    /**
     * @param domain        matching domain (must outlive the matcher)
     * @param window        search window dimension Ns (odd)
     * @param search_stride search stride Ss
     * @param ref_stride    reference patch stride Ps
     * @param tau_match     match-distance threshold Tmatch
     * @param max_matches   best-match list capacity (16)
     * @param bounded       use early-exit distances (software opt.)
     */
    BlockMatcher(const Domain &domain, int window, int search_stride,
                 int ref_stride, float tau_match, int max_matches,
                 bool bounded = true)
        : domain_(domain), half_((window - 1) / 2),
          searchStride_(search_stride), refStride_(ref_stride),
          tauMatch_(tau_match), maxMatches_(max_matches), bounded_(bounded)
    {
    }

    /**
     * Full window search around reference (xr, yr). The reference
     * itself is always the first (distance 0) entry.
     * @return number of candidate distances evaluated
     */
    uint64_t
    search(int xr, int yr, MatchList &out) const
    {
        return search(xr, yr, out,
                      std::numeric_limits<float>::infinity(), nullptr);
    }

    /**
     * Full window search with an externally seeded acceptance cutoff
     * (the adaptive early-termination bound of Config::variant):
     * candidates are accepted only while their distance is below
     * min(Tmatch, @p initial_bound, worst kept distance), the last
     * term tightening as the list fills. @p initial_bound = +inf is
     * bitwise identical to the plain search — the worst-distance term
     * reproduces exactly the insertions the dense scan would accept.
     * Candidates below Tmatch that the cutoff rejected are counted
     * into @p pruned (may be null): the insertion attempts the
     * cutoff saved.
     * @return number of candidate distances evaluated
     */
    uint64_t
    search(int xr, int yr, MatchList &out, float initial_bound,
           uint64_t *pruned) const
    {
        out = MatchList(maxMatches_);
        out.insert(Match{xr, yr, 0.0f});
        uint64_t pruned_local = 0;
        float cut = std::min(tauMatch_, initial_bound);
        const uint64_t evaluated =
            scanWindow(xr, yr, half_, out, cut, pruned_local);
        if (pruned != nullptr)
            *pruned += pruned_local;
        return evaluated;
    }

    /**
     * Matches-Reuse search: test the previous reference patch's
     * matches that fall inside the current window, plus the rightmost
     * column of positions new to this window.
     * @return number of candidate distances evaluated
     */
    uint64_t
    searchReuse(int xr, int yr, const MatchList &previous,
                MatchList &out) const
    {
        out = MatchList(maxMatches_);
        out.insert(Match{xr, yr, 0.0f});
        uint64_t evaluated = 0;

        const int x_lo = std::max(0, xr - half_);
        const int x_hi = std::min(domain_.positionsX() - 1, xr + half_);
        const int y_lo = std::max(0, yr - half_);
        const int y_hi = std::min(domain_.positionsY() - 1, yr + half_);

        // Leftmost x of the column scan in step 2; previous matches in
        // that range are skipped so no position is considered twice
        // (the ranges only overlap when the window clips at the image
        // right edge).
        const int new_lo = std::max(x_lo, xr + half_ - refStride_ + 1);

        // 1) Previous best matches, clipped to the current window.
        for (const Match &m : previous) {
            if (m.x == xr && m.y == yr)
                continue;
            if (m.x < x_lo || m.x >= new_lo || m.y < y_lo || m.y > y_hi)
                continue;
            consider(xr, yr, m.x, m.y, out);
            ++evaluated;
        }

        // 2) The Ns x Ps column that the previous window did not cover.
        for (int x = new_lo; x <= x_hi; ++x) {
            for (int y = y_lo; y <= y_hi; y += searchStride_) {
                if (x == xr && y == yr)
                    continue;
                consider(xr, yr, x, y, out);
                ++evaluated;
            }
        }
        return evaluated;
    }

    /**
     * Matches-Reuse across rows (the Sec. 5.3 future-work extension):
     * reuse the matches of the reference patch directly *above*,
     * plus the bottom Ns x Ps band of positions new to this window.
     * @return number of candidate distances evaluated
     */
    uint64_t
    searchReuseDown(int xr, int yr, const MatchList &above,
                    MatchList &out) const
    {
        out = MatchList(maxMatches_);
        out.insert(Match{xr, yr, 0.0f});
        uint64_t evaluated = 0;

        const int x_lo = std::max(0, xr - half_);
        const int x_hi = std::min(domain_.positionsX() - 1, xr + half_);
        const int y_lo = std::max(0, yr - half_);
        const int y_hi = std::min(domain_.positionsY() - 1, yr + half_);
        const int new_lo = std::max(y_lo, yr + half_ - refStride_ + 1);

        for (const Match &m : above) {
            if (m.x == xr && m.y == yr)
                continue;
            if (m.x < x_lo || m.x > x_hi || m.y < y_lo || m.y >= new_lo)
                continue;
            consider(xr, yr, m.x, m.y, out);
            ++evaluated;
        }
        for (int y = new_lo; y <= y_hi; ++y) {
            for (int x = x_lo; x <= x_hi; x += searchStride_) {
                if (x == xr && y == yr)
                    continue;
                consider(xr, yr, x, y, out);
                ++evaluated;
            }
        }
        return evaluated;
    }

    /**
     * Temporally seeded search (streaming runtime): scan only the
     * small odd @p seed_window around the reference, then re-score the
     * previous frame's @p seeds at their old positions (clipped to the
     * full Ns window, skipping positions the verification window
     * already covered). Static content keeps its stack through the
     * seeds; small motion is caught by the window. Candidate order is
     * deterministic (window rows top-down, then seeds in stored
     * order), so output is reproducible across thread counts and —
     * the batch kernel returning exact distances — SIMD levels.
     * @return number of candidate distances evaluated
     */
    uint64_t
    searchSeeded(int xr, int yr, const SeedPos *seeds, int num_seeds,
                 int seed_window, MatchList &out) const
    {
        return searchSeeded(xr, yr, seeds, num_seeds, seed_window, out,
                            std::numeric_limits<float>::infinity(),
                            nullptr);
    }

    /**
     * Seeded search with an externally seeded acceptance cutoff; same
     * bound semantics (and bitwise-at-infinity contract) as the
     * bounded search() overload. This is how temporal seeding and the
     * adaptive bound compose in the streaming runtime.
     */
    uint64_t
    searchSeeded(int xr, int yr, const SeedPos *seeds, int num_seeds,
                 int seed_window, MatchList &out, float initial_bound,
                 uint64_t *pruned) const
    {
        out = MatchList(maxMatches_);
        out.insert(Match{xr, yr, 0.0f});
        uint64_t pruned_local = 0;
        float cut = std::min(tauMatch_, initial_bound);

        const int sh = std::min(half_, (seed_window - 1) / 2);
        uint64_t evaluated = scanWindow(xr, yr, sh, out, cut, pruned_local);
        const int wx_lo = std::max(0, xr - sh);
        const int wx_hi = std::min(domain_.positionsX() - 1, xr + sh);
        const int wy_lo = std::max(0, yr - sh);
        const int wy_hi = std::min(domain_.positionsY() - 1, yr + sh);

        const int x_lo = std::max(0, xr - half_);
        const int x_hi = std::min(domain_.positionsX() - 1, xr + half_);
        const int y_lo = std::max(0, yr - half_);
        const int y_hi = std::min(domain_.positionsY() - 1, yr + half_);
        for (int i = 0; i < num_seeds; ++i) {
            const int sx = seeds[i].x;
            const int sy = seeds[i].y;
            if (sx == xr && sy == yr)
                continue;
            if (sx >= wx_lo && sx <= wx_hi && sy >= wy_lo && sy <= wy_hi)
                continue; // already scored by the verification window
            if (sx < x_lo || sx > x_hi || sy < y_lo || sy > y_hi)
                continue; // drifted outside the full search window
            considerCut(xr, yr, sx, sy, out, cut, pruned_local);
            ++evaluated;
        }
        if (pruned != nullptr)
            *pruned += pruned_local;
        return evaluated;
    }

    /** Distance between two reference positions (for the MR check). */
    float
    referenceDistance(int xa, int ya, int xb, int yb) const
    {
        return domain_.distance(xa, ya, xb, yb);
    }

    float tauMatch() const { return tauMatch_; }

  private:
    /**
     * Scan the window of half-size @p half around reference (xr, yr)
     * (clipped to the field) into @p out, which holds just the
     * reference, under the running cut @p cut; candidates below
     * Tmatch that the cut rejected count into @p pruned. With search
     * stride 1 — every caller's — each window row is one distanceBatch
     * run into a per-search distance buffer (the reference row whole,
     * the reference's own slot then set to +inf so it neither inserts
     * nor counts), and one selectMatches call selects from it in
     * window order: exactly the per-candidate loop "below the cut,
     * insert and tighten the cut to the worst kept distance; else
     * below Tmatch, count", since the batch kernels return exact
     * distances. Other strides run considerCut per candidate.
     * @return number of candidate distances evaluated
     */
    uint64_t
    scanWindow(int xr, int yr, int half, MatchList &out, float &cut,
               uint64_t &pruned) const
    {
        const int x_lo = std::max(0, xr - half);
        const int x_hi = std::min(domain_.positionsX() - 1, xr + half);
        const int y_lo = std::max(0, yr - half);
        const int y_hi = std::min(domain_.positionsY() - 1, yr + half);
        if (searchStride_ != 1) {
            uint64_t evaluated = 0;
            for (int y = y_lo; y <= y_hi; y += searchStride_) {
                for (int x = x_lo; x <= x_hi; x += searchStride_) {
                    if (x == xr && y == yr)
                        continue;
                    considerCut(xr, yr, x, y, out, cut, pruned);
                    ++evaluated;
                }
            }
            return evaluated;
        }

        const int w = x_hi - x_lo + 1;
        const int n = w * (y_hi - y_lo + 1);
        float stack_buf[kWindowBuffer];
        std::vector<float> heap_buf;
        float *d = stack_buf;
        if (n > kWindowBuffer) {
            heap_buf.resize(static_cast<size_t>(n));
            d = heap_buf.data();
        }
        typename Domain::DescType ref[64];
        domain_.gatherRef(xr, yr, ref);
        for (int y = y_lo; y <= y_hi; ++y)
            domain_.distanceBatch(ref, x_lo, y, w,
                                  d + static_cast<size_t>(y - y_lo) * w);
        const int self = (yr - y_lo) * w + (xr - x_lo);
        d[self] = std::numeric_limits<float>::infinity();

        simd::BestList best{};
        best.capacity = out.capacity();
        best.size = 1;
        best.dist[0] = 0.0f;
        best.idx[0] = self;
        pruned += static_cast<uint64_t>(
            simd::kernels().selectMatches(d, n, tauMatch_, cut, &best));
        out = MatchList(maxMatches_);
        for (int i = 0; i < best.size; ++i)
            out.insert(Match{x_lo + best.idx[i] % w, y_lo + best.idx[i] / w,
                             best.dist[i]});
        cut = std::min(cut, out.worstDistance());
        return static_cast<uint64_t>(n - 1);
    }

    void
    consider(int xr, int yr, int x, int y, MatchList &out) const
    {
        float bound = std::min(tauMatch_, out.worstDistance());
        float d = bounded_
                      ? domain_.distanceBounded(xr, yr, x, y, bound)
                      : domain_.distance(xr, yr, x, y);
        if (d < tauMatch_)
            out.insert(Match{x, y, d});
    }

    /**
     * Per-candidate consideration under a running cutoff (search
     * strides other than 1, and temporal seeds). At infinite initial bound
     * this accepts exactly the candidates consider() would keep: the
     * early-exit bound min(cut, worst) equals consider()'s
     * min(Tmatch, worst), a partial early-exit sum only ever compares
     * greater than the bound, and an accepted d < bound is exact.
     * The pruned count on this path may include early-exited partial
     * sums below Tmatch whose exact distance is above it — still
     * deterministic, which is what the --ops-tolerance gate needs.
     */
    void
    considerCut(int xr, int yr, int x, int y, MatchList &out, float &cut,
                uint64_t &pruned) const
    {
        const float bound = std::min(cut, out.worstDistance());
        float d = bounded_
                      ? domain_.distanceBounded(xr, yr, x, y, bound)
                      : domain_.distance(xr, yr, x, y);
        if (d < bound) {
            out.insert(Match{x, y, d});
            cut = std::min(cut, out.worstDistance());
        } else if (d < tauMatch_) {
            ++pruned;
        }
    }

    const Domain &domain_;
    int half_;
    int searchStride_;
    int refStride_;
    float tauMatch_;
    int maxMatches_;
    bool bounded_;
};

} // namespace bm3d
} // namespace ideal

#endif // IDEAL_BM3D_BLOCKMATCH_H_
