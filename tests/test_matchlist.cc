/**
 * @file
 * Unit tests for the bounded sorted match list (the BM engine's
 * priority queue MQ) and for block matching with and without
 * Matches Reuse.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "bm3d/blockmatch.h"
#include "bm3d/matchlist.h"
#include "bm3d/patchfield.h"
#include "image/noise.h"
#include "image/synthetic.h"
#include "simd/simd.h"

using namespace ideal;
using bm3d::Match;
using bm3d::MatchList;

TEST(MatchList, InsertKeepsSorted)
{
    MatchList list(4);
    list.insert({0, 0, 5.0f});
    list.insert({1, 0, 1.0f});
    list.insert({2, 0, 3.0f});
    ASSERT_EQ(list.size(), 3);
    EXPECT_FLOAT_EQ(list[0].distance, 1.0f);
    EXPECT_FLOAT_EQ(list[1].distance, 3.0f);
    EXPECT_FLOAT_EQ(list[2].distance, 5.0f);
}

TEST(MatchList, EvictsWorstWhenFull)
{
    MatchList list(2);
    list.insert({0, 0, 5.0f});
    list.insert({1, 0, 1.0f});
    EXPECT_FALSE(list.insert({2, 0, 9.0f}));
    EXPECT_TRUE(list.insert({3, 0, 0.5f}));
    ASSERT_EQ(list.size(), 2);
    EXPECT_EQ(list[0].x, 3);
    EXPECT_EQ(list[1].x, 1);
}

TEST(MatchList, WorstDistanceInfiniteUntilFull)
{
    MatchList list(2);
    EXPECT_TRUE(std::isinf(list.worstDistance()));
    list.insert({0, 0, 1.0f});
    EXPECT_TRUE(std::isinf(list.worstDistance()));
    list.insert({0, 0, 2.0f});
    EXPECT_FLOAT_EQ(list.worstDistance(), 2.0f);
}

TEST(MatchList, StackSizeIsPowerOfTwo)
{
    MatchList list(16);
    EXPECT_EQ(list.stackSize(), 0);
    for (int i = 0; i < 3; ++i)
        list.insert({i, 0, static_cast<float>(i)});
    EXPECT_EQ(list.stackSize(), 2);
    for (int i = 3; i < 11; ++i)
        list.insert({i, 0, static_cast<float>(i)});
    EXPECT_EQ(list.stackSize(), 8);
    for (int i = 11; i < 16; ++i)
        list.insert({i, 0, static_cast<float>(i)});
    EXPECT_EQ(list.stackSize(), 16);
}

TEST(MatchList, ClearEmpties)
{
    MatchList list(4);
    list.insert({0, 0, 1.0f});
    list.clear();
    EXPECT_EQ(list.size(), 0);
    EXPECT_TRUE(list.empty());
}

namespace {

/** Fixture: a small image, its DCT field, and a color-domain plane. */
class BlockMatchTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        plane_ = image::makeScene(image::SceneKind::Nature, 40, 40, 1, 21);
        dct_ = std::make_unique<transforms::Dct2D>(4);
        field_ = std::make_unique<bm3d::DctPatchField>(
            plane_, *dct_, 0.0f, std::nullopt, nullptr);
    }

    image::ImageF plane_;
    std::unique_ptr<transforms::Dct2D> dct_;
    std::unique_ptr<bm3d::DctPatchField> field_;
};

} // namespace

TEST_F(BlockMatchTest, ReferenceIsAlwaysFirstMatch)
{
    bm3d::DctMatchDomain domain(*field_);
    bm3d::BlockMatcher<bm3d::DctMatchDomain> matcher(domain, 13, 1, 1,
                                                     1e9f, 16);
    MatchList out;
    matcher.search(10, 10, out);
    ASSERT_GE(out.size(), 1);
    EXPECT_EQ(out[0].x, 10);
    EXPECT_EQ(out[0].y, 10);
    EXPECT_FLOAT_EQ(out[0].distance, 0.0f);
}

TEST_F(BlockMatchTest, FullSearchEvaluatesWholeWindow)
{
    bm3d::DctMatchDomain domain(*field_);
    bm3d::BlockMatcher<bm3d::DctMatchDomain> matcher(domain, 13, 1, 1,
                                                     1e9f, 16);
    MatchList out;
    // Interior reference: full 13x13 window minus the reference itself.
    uint64_t evaluated = matcher.search(18, 18, out);
    EXPECT_EQ(evaluated, 13u * 13u - 1u);
    // Corner reference: window clipped to 7x7.
    evaluated = matcher.search(0, 0, out);
    EXPECT_EQ(evaluated, 7u * 7u - 1u);
}

TEST_F(BlockMatchTest, MatchesSortedAndWithinWindow)
{
    bm3d::DctMatchDomain domain(*field_);
    bm3d::BlockMatcher<bm3d::DctMatchDomain> matcher(domain, 13, 1, 1,
                                                     1e9f, 16);
    MatchList out;
    matcher.search(18, 18, out);
    ASSERT_EQ(out.size(), 16);
    for (int i = 1; i < out.size(); ++i)
        EXPECT_LE(out[i - 1].distance, out[i].distance);
    for (const Match &m : out) {
        EXPECT_GE(m.x, 12);
        EXPECT_LE(m.x, 24);
        EXPECT_GE(m.y, 12);
        EXPECT_LE(m.y, 24);
    }
}

TEST_F(BlockMatchTest, TauMatchFiltersCandidates)
{
    image::ImageF noisy = image::addGaussianNoise(plane_, 40.0f, 5);
    bm3d::DctPatchField field(noisy, *dct_, 0.0f, std::nullopt, nullptr);
    bm3d::DctMatchDomain domain(field);
    bm3d::BlockMatcher<bm3d::DctMatchDomain> strict(domain, 13, 1, 1,
                                                    1.0f, 16);
    MatchList out;
    strict.search(18, 18, out);
    // With a tiny threshold on a noisy image only the reference stays.
    EXPECT_LT(out.size(), 16);
    EXPECT_GE(out.size(), 1);
}

TEST_F(BlockMatchTest, ReuseSearchEvaluatesFarFewerCandidates)
{
    bm3d::DctMatchDomain domain(*field_);
    bm3d::BlockMatcher<bm3d::DctMatchDomain> matcher(domain, 13, 1, 1,
                                                     1e9f, 16);
    MatchList prev, cur;
    uint64_t full = matcher.search(17, 18, prev);
    uint64_t reused = matcher.searchReuse(18, 18, prev, cur);
    EXPECT_LT(reused, full / 2);
    // Upper bound from the paper: Ns x Ps new column + 16 reused.
    EXPECT_LE(reused, 13u + 16u);
    ASSERT_GE(cur.size(), 1);
    EXPECT_EQ(cur[0].x, 18);
}

TEST_F(BlockMatchTest, ReuseNeverDuplicatesPositions)
{
    bm3d::DctMatchDomain domain(*field_);
    // Reference near the right edge so the new column overlaps the
    // previous window (the duplicate-risk case).
    bm3d::BlockMatcher<bm3d::DctMatchDomain> matcher(domain, 13, 1, 1,
                                                     1e9f, 16);
    MatchList prev, cur;
    matcher.search(35, 18, prev);
    matcher.searchReuse(36, 18, prev, cur);
    for (int i = 0; i < cur.size(); ++i)
        for (int j = i + 1; j < cur.size(); ++j)
            EXPECT_FALSE(cur[i].x == cur[j].x && cur[i].y == cur[j].y)
                << "duplicate at " << cur[i].x << "," << cur[i].y;
}

TEST_F(BlockMatchTest, ColorDomainMatchesDirectComputation)
{
    bm3d::ColorMatchDomain domain(plane_, 4);
    float expect = 0.0f;
    for (int r = 0; r < 4; ++r)
        for (int c = 0; c < 4; ++c) {
            float d = plane_.at(5 + c, 6 + r) - plane_.at(9 + c, 11 + r);
            expect += d * d;
        }
    EXPECT_NEAR(domain.distance(5, 6, 9, 11), expect / 16.0f, 1e-3f);
}

TEST_F(BlockMatchTest, UniformImageAllDistancesZero)
{
    image::ImageF flat(32, 32, 1);
    flat.fill(99.0f);
    bm3d::ColorMatchDomain domain(flat, 4);
    bm3d::BlockMatcher<bm3d::ColorMatchDomain> matcher(domain, 9, 1, 1,
                                                       100.0f, 16);
    MatchList out;
    matcher.search(14, 14, out);
    EXPECT_EQ(out.size(), 16);
    for (const Match &m : out)
        EXPECT_FLOAT_EQ(m.distance, 0.0f);
}

TEST_F(BlockMatchTest, SoaFieldMatchesDirectDctAtEveryPosition)
{
    // The coefficient-major matching layout must hold exactly the same
    // values as a direct per-patch forward DCT (plus hard threshold),
    // at every position including the image edges where the halo of
    // valid top-lefts ends.
    const float threshold = 40.0f;
    bm3d::DctPatchField thresholded(plane_, *dct_, threshold, std::nullopt,
                                    nullptr);
    float pixels[16], direct[16], gathered[16];
    for (int y = 0; y < field_->positionsY(); ++y) {
        for (int x = 0; x < field_->positionsX(); ++x) {
            bm3d::extractPatch(plane_, x, y, 4, pixels);
            dct_->forward(pixels, direct);
            const float *raw = field_->patch(x, y);
            field_->gatherMatchPatch(x, y, gathered);
            for (int k = 0; k < 16; ++k) {
                ASSERT_EQ(raw[k], direct[k])
                    << "raw (" << x << "," << y << ") k=" << k;
                // threshold 0: the matching copy equals the raw DCT.
                ASSERT_EQ(gathered[k], direct[k])
                    << "match (" << x << "," << y << ") k=" << k;
            }
            thresholded.gatherMatchPatch(x, y, gathered);
            for (int k = 0; k < 16; ++k) {
                const float want =
                    std::abs(direct[k]) < threshold ? 0.0f : direct[k];
                ASSERT_EQ(gathered[k], want)
                    << "thresholded (" << x << "," << y << ") k=" << k;
            }
        }
    }
}

TEST_F(BlockMatchTest, SoaPlanesShareOneOffsetScheme)
{
    // matchPlanes()[k][matchOffset(x, y)] is the documented access
    // path the SSD kernels use; cross-check it against the gather.
    const float *const *planes = field_->matchPlanes();
    float gathered[16];
    const std::pair<int, int> positions[] = {
        {0, 0}, {36, 0}, {0, 36}, {36, 36}, {17, 23}};
    for (auto [x, y] : positions) {
        field_->gatherMatchPatch(x, y, gathered);
        const size_t off = field_->matchOffset(x, y);
        for (int k = 0; k < 16; ++k)
            ASSERT_EQ(planes[k][off], gathered[k])
                << "(" << x << "," << y << ") k=" << k;
    }
}

TEST_F(BlockMatchTest, DomainBatchDistancesMatchSingleBitwise)
{
    // The batched window-row path must pick the same matches as the
    // per-candidate path, which it does by producing bitwise-equal
    // distances.
    bm3d::DctMatchDomain dct_dom(*field_);
    bm3d::ColorMatchDomain color_dom(plane_, 4);
    auto check = [&](const auto &dom, const char *name) {
        float ref[64];
        float d[64];
        const int nx = dom.positionsX();
        const std::pair<int, int> refs[] = {
            {0, 0}, {nx - 1, dom.positionsY() - 1}, {11, 7}};
        for (auto [xr, yr] : refs) {
            dom.gatherRef(xr, yr, ref);
            for (int y : {0, yr, dom.positionsY() - 1}) {
                dom.distanceBatch(ref, 0, y, nx, d);
                for (int x = 0; x < nx; ++x)
                    ASSERT_EQ(d[x], dom.distance(xr, yr, x, y))
                        << name << " ref(" << xr << "," << yr << ") cand("
                        << x << "," << y << ")";
            }
        }
    };
    check(dct_dom, "dct");
    check(color_dom, "color");
}

TEST_F(BlockMatchTest, TileDctFieldMatchesDirectDctAndTracksCoverage)
{
    bm3d::TileDctField tile;
    // A range flush against the right image edge (positions run to 36
    // for a 40-wide plane and 4x4 patches).
    uint64_t dcts = tile.build(plane_, 0, *dct_, std::nullopt, 30, 0, 36, 5);
    EXPECT_EQ(dcts, 7u * 6u);
    EXPECT_TRUE(tile.covers(30, 0));
    EXPECT_TRUE(tile.covers(36, 5));
    EXPECT_FALSE(tile.covers(29, 0));
    EXPECT_FALSE(tile.covers(30, 6));
    EXPECT_FALSE(tile.covers(37, 5));

    float pixels[16], direct[16];
    for (int y = 0; y <= 5; ++y)
        for (int x = 30; x <= 36; ++x) {
            bm3d::extractPatch(plane_, x, y, 4, pixels);
            dct_->forward(pixels, direct);
            const float *cached = tile.patch(x, y);
            for (int k = 0; k < 16; ++k)
                ASSERT_EQ(cached[k], direct[k])
                    << "(" << x << "," << y << ") k=" << k;
        }

    // Arena reuse: rebuilding over a different (smaller) range must
    // forget the old coverage and serve the new one.
    dcts = tile.build(plane_, 0, *dct_, std::nullopt, 0, 10, 3, 12);
    EXPECT_EQ(dcts, 4u * 3u);
    EXPECT_FALSE(tile.covers(30, 2));
    EXPECT_TRUE(tile.covers(0, 10));
    for (int y = 10; y <= 12; ++y)
        for (int x = 0; x <= 3; ++x) {
            bm3d::extractPatch(plane_, x, y, 4, pixels);
            dct_->forward(pixels, direct);
            const float *cached = tile.patch(x, y);
            for (int k = 0; k < 16; ++k)
                ASSERT_EQ(cached[k], direct[k])
                    << "(" << x << "," << y << ") k=" << k;
        }
}

// ---------------------------------------------------------------------
// The window scan against the per-candidate loop it replaced.
// ---------------------------------------------------------------------

namespace {

/** What one search returns: the list, and the two counts. */
struct ScanResult
{
    MatchList list;
    uint64_t evaluated = 0;
    uint64_t pruned = 0;
};

/**
 * The matcher's search before the window buffer, written out per
 * candidate: window rows top-down, each x ascending, the reference
 * skipped; below the running cut insert and tighten the cut to the
 * worst kept distance, else below tau count as pruned. Seeds then go
 * through considerCut: the bounded distance against min(cut, worst),
 * the seed filters of searchSeeded.
 */
template <typename Domain>
ScanResult
referenceSearch(const Domain &dom, int xr, int yr, int half, int seed_half,
                float tau, float bound, int capacity,
                const std::vector<bm3d::SeedPos> &seeds)
{
    ScanResult r;
    r.list = MatchList(capacity);
    r.list.insert(Match{xr, yr, 0.0f});
    float cut = std::min(tau, bound);
    const int sh = std::min(half, seed_half);
    const int wx_lo = std::max(0, xr - sh);
    const int wx_hi = std::min(dom.positionsX() - 1, xr + sh);
    const int wy_lo = std::max(0, yr - sh);
    const int wy_hi = std::min(dom.positionsY() - 1, yr + sh);
    for (int y = wy_lo; y <= wy_hi; ++y) {
        for (int x = wx_lo; x <= wx_hi; ++x) {
            if (x == xr && y == yr)
                continue;
            const float d = dom.distance(xr, yr, x, y);
            if (d < cut) {
                r.list.insert(Match{x, y, d});
                cut = std::min(cut, r.list.worstDistance());
            } else if (d < tau) {
                ++r.pruned;
            }
            ++r.evaluated;
        }
    }
    const int x_lo = std::max(0, xr - half);
    const int x_hi = std::min(dom.positionsX() - 1, xr + half);
    const int y_lo = std::max(0, yr - half);
    const int y_hi = std::min(dom.positionsY() - 1, yr + half);
    for (const bm3d::SeedPos &s : seeds) {
        const int sx = s.x, sy = s.y;
        if ((sx == xr && sy == yr) ||
            (sx >= wx_lo && sx <= wx_hi && sy >= wy_lo && sy <= wy_hi) ||
            sx < x_lo || sx > x_hi || sy < y_lo || sy > y_hi)
            continue;
        const float b = std::min(cut, r.list.worstDistance());
        const float d = dom.distanceBounded(xr, yr, sx, sy, b);
        if (d < b) {
            r.list.insert(Match{sx, sy, d});
            cut = std::min(cut, r.list.worstDistance());
        } else if (d < tau) {
            ++r.pruned;
        }
        ++r.evaluated;
    }
    return r;
}

void
expectSameScan(const ScanResult &want, const MatchList &got,
               uint64_t evaluated, uint64_t pruned)
{
    EXPECT_EQ(evaluated, want.evaluated);
    EXPECT_EQ(pruned, want.pruned);
    ASSERT_EQ(got.size(), want.list.size());
    for (int i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].x, want.list[i].x) << "entry " << i;
        EXPECT_EQ(got[i].y, want.list[i].y) << "entry " << i;
        uint32_t a, b;
        std::memcpy(&a, &got[i].distance, 4);
        std::memcpy(&b, &want.list[i].distance, 4);
        EXPECT_EQ(a, b) << "entry " << i << ": " << got[i].distance
                        << " vs " << want.list[i].distance;
    }
}

/** Seeds: the reference, inside the verification window, drifted
 *  outside the full window, and in between. */
std::vector<bm3d::SeedPos>
seedsAround(int xr, int yr, int pos_x, int pos_y)
{
    std::vector<bm3d::SeedPos> seeds;
    const int offsets[][2] = {{0, 0},  {1, 0},   {-5, 3}, {6, -6}, {4, 4},
                              {-6, 0}, {20, 20}, {3, -5}, {-4, 6}, {5, 5}};
    for (const auto &o : offsets) {
        const int x = std::clamp(xr + o[0], 0, pos_x - 1);
        const int y = std::clamp(yr + o[1], 0, pos_y - 1);
        seeds.push_back(bm3d::SeedPos{static_cast<uint16_t>(x),
                                      static_cast<uint16_t>(y)});
    }
    return seeds;
}

/**
 * Run search() and searchSeeded() at every SIMD level over references
 * at each border, each corner and inside, windows from 5 (runs under 8)
 * to 49 (clipped to the field), capacities 1 to 16, and finite and
 * infinite bounds; each must equal the per-candidate loop.
 */
template <typename Domain>
void
checkScans(const Domain &dom, const std::vector<std::pair<int, int>> &refs,
           const std::vector<float> &taus, const char *name)
{
    const float inf = std::numeric_limits<float>::infinity();
    for (int l = 0; l <= static_cast<int>(simd::bestSupported()); ++l) {
        simd::setLevel(static_cast<simd::Level>(l));
        for (int window : {5, 13, 49}) {
            for (int capacity : {1, 2, 4, 8, 16}) {
                for (float tau : taus) {
                    const bm3d::BlockMatcher<Domain> matcher(
                        dom, window, 1, 1, tau, capacity);
                    for (auto [xr, yr] : refs) {
                        for (float bound : {inf, tau * 0.5f}) {
                            SCOPED_TRACE(testing::Message()
                                         << name << " level=" << l
                                         << " window=" << window
                                         << " capacity=" << capacity
                                         << " tau=" << tau
                                         << " bound=" << bound << " ref=("
                                         << xr << "," << yr << ")");
                            const int half = (window - 1) / 2;
                            MatchList got;
                            uint64_t pruned = 0;
                            uint64_t evaluated = matcher.search(
                                xr, yr, got, bound, &pruned);
                            expectSameScan(
                                referenceSearch(dom, xr, yr, half, half,
                                                tau, bound, capacity, {}),
                                got, evaluated, pruned);

                            const auto seeds = seedsAround(
                                xr, yr, dom.positionsX(), dom.positionsY());
                            pruned = 0;
                            evaluated = matcher.searchSeeded(
                                xr, yr, seeds.data(),
                                static_cast<int>(seeds.size()), 9, got,
                                bound, &pruned);
                            expectSameScan(
                                referenceSearch(dom, xr, yr, half, 4, tau,
                                                bound, capacity, seeds),
                                got, evaluated, pruned);
                        }
                    }
                }
            }
        }
    }
    simd::setLevel(simd::bestSupported());
}

/** References at the four corners, the four borders and inside. */
std::vector<std::pair<int, int>>
borderRefs(int pos_x, int pos_y)
{
    const int mx = pos_x / 2, my = pos_y / 2;
    return {{0, 0},          {pos_x - 1, 0}, {0, pos_y - 1},
            {pos_x - 1, pos_y - 1}, {mx, 0}, {0, my},
            {pos_x - 1, my}, {mx, pos_y - 1}, {mx, my},
            {3, 5}};
}

/**
 * Tmatch values for @p dom around reference @p (xr, yr): a generous
 * one, and one that is exactly a candidate's distance — that
 * candidate (and its ties) sits on the acceptance boundary, so for the
 * int16 domains its raw SSD is the smallest one the old raw-side
 * threshold rejected — plus the next float above it.
 */
template <typename Domain>
std::vector<float>
boundaryTaus(const Domain &dom, int xr, int yr)
{
    const float on = dom.distance(xr, yr, xr + 2, yr + 1);
    return {3000.0f, on,
            std::nextafter(on, std::numeric_limits<float>::infinity())};
}

} // namespace

TEST_F(BlockMatchTest, WindowScanEqualsPerCandidateLoopFloatDomains)
{
    image::ImageF noisy = image::addGaussianNoise(plane_, 25.0f, 31);
    bm3d::DctPatchField field(noisy, *dct_, 50.0f, std::nullopt, nullptr);
    bm3d::DctMatchDomain dct_dom(field);
    checkScans(dct_dom,
               borderRefs(dct_dom.positionsX(), dct_dom.positionsY()),
               boundaryTaus(dct_dom, 18, 18), "dct");
    bm3d::ColorMatchDomain color_dom(noisy, 4);
    checkScans(color_dom,
               borderRefs(color_dom.positionsX(), color_dom.positionsY()),
               boundaryTaus(color_dom, 18, 18), "color");
}

TEST_F(BlockMatchTest, WindowScanEqualsPerCandidateLoopInt16Domains)
{
    image::ImageF noisy = image::addGaussianNoise(plane_, 25.0f, 32);
    bm3d::DctPatchField field(noisy, *dct_, 50.0f, std::nullopt, nullptr);
    field.prepareI16();
    field.fillRowsI16(noisy, *dct_, 50.0f, 0, field.positionsY());
    bm3d::DctMatchDomainI16 dct_dom(field);
    checkScans(dct_dom,
               borderRefs(dct_dom.positionsX(), dct_dom.positionsY()),
               boundaryTaus(dct_dom, 18, 18), "dct_i16");
    bm3d::ColorMatchDomainI16 color_dom(noisy, 4);
    checkScans(color_dom,
               borderRefs(color_dom.positionsX(), color_dom.positionsY()),
               boundaryTaus(color_dom, 18, 18), "color_i16");
}

TEST_F(BlockMatchTest, WindowScanOnFieldNarrowerThanOneVectorGroup)
{
    // 10 pixels wide: 7 positions per row, so every row run is
    // shorter than one 8-candidate group.
    image::ImageF narrow = image::addGaussianNoise(
        image::makeScene(image::SceneKind::Street, 10, 30, 1, 33), 25.0f,
        34);
    bm3d::DctPatchField field(narrow, *dct_, 50.0f, std::nullopt, nullptr);
    field.prepareI16();
    field.fillRowsI16(narrow, *dct_, 50.0f, 0, field.positionsY());
    ASSERT_LT(field.positionsX(), 8);
    const std::vector<std::pair<int, int>> refs = {
        {0, 0}, {6, 0}, {3, 13}, {0, 26}, {6, 26}};
    bm3d::DctMatchDomain dct_dom(field);
    checkScans(dct_dom, refs, boundaryTaus(dct_dom, 3, 13), "dct");
    bm3d::DctMatchDomainI16 dct_i16(field);
    checkScans(dct_i16, refs, boundaryTaus(dct_i16, 3, 13), "dct_i16");
    bm3d::ColorMatchDomain color_dom(narrow, 4);
    checkScans(color_dom, refs, boundaryTaus(color_dom, 3, 13), "color");
}

TEST_F(BlockMatchTest, WindowScanOnRingField)
{
    // Ring storage (DESIGN §15): 24 resident position rows, row y in
    // slot y % 24. Searches read only rows inside the resident window.
    image::ImageF noisy = image::addGaussianNoise(plane_, 25.0f, 35);
    bm3d::DctPatchField ring;
    ring.prepare(noisy.width(), noisy.height(), *dct_, nullptr, 24);
    ASSERT_TRUE(ring.banded());
    ring.fillRows(noisy, *dct_, 50.0f, std::nullopt, 0, 24);
    bm3d::DctMatchDomain dom(ring);
    // Window 13 around rows 6..17 stays in resident rows [0, 24).
    const auto check = [&](int yr) {
        const bm3d::BlockMatcher<bm3d::DctMatchDomain> matcher(dom, 13, 1,
                                                              1, 3000.0f,
                                                              16);
        for (int l = 0; l <= static_cast<int>(simd::bestSupported());
             ++l) {
            simd::setLevel(static_cast<simd::Level>(l));
            for (int xr : {0, 5, 18, 36}) {
                SCOPED_TRACE(testing::Message() << "level=" << l << " ref=("
                                                << xr << "," << yr << ")");
                MatchList got;
                uint64_t pruned = 0;
                const uint64_t evaluated = matcher.search(
                    xr, yr, got, std::numeric_limits<float>::infinity(),
                    &pruned);
                expectSameScan(
                    referenceSearch(dom, xr, yr, 6, 6, 3000.0f,
                                    std::numeric_limits<float>::infinity(),
                                    16, {}),
                    got, evaluated, pruned);
            }
        }
        simd::setLevel(simd::bestSupported());
    };
    check(6);
    check(11);
    // Advance the ring: rows 24..36 overwrite the slots of rows 0..12.
    ring.fillRows(noisy, *dct_, 50.0f, std::nullopt, 24,
                  ring.positionsY());
    check(30);
}
