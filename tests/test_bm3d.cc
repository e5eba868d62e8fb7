/**
 * @file
 * Unit and integration tests for the BM3D denoiser: configuration
 * validation, denoising quality, Matches Reuse behaviour, fixed-point
 * mode, multithreading determinism, the sharpening extension, step
 * accounting, and the tiled stage loop against the per-reference loop
 * written out.
 *
 * Test images are small (the full-parameter algorithm is O(Ns^2) per
 * pixel by design); search windows are reduced where the full 49x49
 * window would dominate runtime without adding coverage.
 */

#include <chrono>
#include <climits>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <type_traits>

#include <gtest/gtest.h>

#include "bm3d/blockmatch.h"
#include "bm3d/bm3d.h"
#include "bm3d/denoise.h"
#include "bm3d/patchfield.h"
#include "bm3d/seeding.h"
#include "image/metrics.h"
#include "image/noise.h"
#include "image/synthetic.h"
#include "obs/metrics.h"
#include "simd/simd.h"
#include "transforms/dct.h"
#include "transforms/haar.h"

using namespace ideal;
using bm3d::Bm3d;
using bm3d::Bm3dConfig;
using bm3d::Stage;
using bm3d::Step;

namespace {

Bm3dConfig
smallConfig(float sigma = 25.0f)
{
    Bm3dConfig cfg;
    cfg.sigma = sigma;
    cfg.searchWindow1 = 13;
    cfg.searchWindow2 = 11;
    return cfg;
}

struct TestScene
{
    image::ImageF clean;
    image::ImageF noisy;
};

TestScene
makeTestScene(image::SceneKind kind, int size, float sigma, uint64_t seed,
              int channels = 1)
{
    TestScene s;
    s.clean = image::makeScene(kind, size, size, channels, seed);
    s.noisy = image::addGaussianNoise(s.clean, sigma, seed + 1);
    return s;
}

} // namespace

TEST(Bm3dConfig, DefaultsAreValid)
{
    EXPECT_NO_THROW(Bm3dConfig{}.validate());
}

TEST(Bm3dConfig, RejectsBadParameters)
{
    auto check = [](auto mutate) {
        Bm3dConfig cfg;
        mutate(cfg);
        EXPECT_THROW(cfg.validate(), std::invalid_argument);
    };
    check([](Bm3dConfig &c) { c.patchSize = 1; });
    check([](Bm3dConfig &c) { c.patchSize = 9; });
    check([](Bm3dConfig &c) { c.refStride = 0; });
    check([](Bm3dConfig &c) { c.searchWindow1 = 48; }); // even
    check([](Bm3dConfig &c) { c.searchWindow2 = 2; });  // < patch
    check([](Bm3dConfig &c) { c.maxMatches = 12; });    // not pow2
    check([](Bm3dConfig &c) { c.sigma = 0.0f; });
    check([](Bm3dConfig &c) { c.mr.enabled = true; c.mr.k = 0.0; });
    check([](Bm3dConfig &c) { c.mr.enabled = true; c.mr.k = 1.5; });
    check([](Bm3dConfig &c) { c.sharpenAlpha = 0.5f; });
    check([](Bm3dConfig &c) { c.tileGrain = 0; });
}

TEST(Bm3dConfig, RejectsNanValues)
{
    // NaN fails every comparison, so a range check written as "reject
    // when below" lets it through: a NaN sigma turns the whole output
    // NaN, and a NaN sharpenAlpha sent Int16's DE1 down the discrete
    // path in float.
    auto check = [](auto mutate) {
        Bm3dConfig cfg;
        mutate(cfg);
        EXPECT_THROW(cfg.validate(), std::invalid_argument);
    };
    const float nan = std::numeric_limits<float>::quiet_NaN();
    check([&](Bm3dConfig &c) { c.sigma = nan; });
    check([&](Bm3dConfig &c) { c.sharpenAlpha = nan; });
    check([&](Bm3dConfig &c) {
        c.precision = bm3d::Precision::Int16;
        c.sharpenAlpha = nan;
    });
    check([](Bm3dConfig &c) {
        c.mr.enabled = true;
        c.mr.k = std::numeric_limits<double>::quiet_NaN();
    });
}

TEST(Bm3dConfig, RejectsInt16WhereTheFusedPathFallsBack)
{
    // fixedPoint formats and sharpening send DE1 down the discrete
    // path, which has no int16 DE1: under Int16 they would silently
    // run DE1 in float. Float32 keeps both.
    Bm3dConfig fixed_cfg;
    fixed_cfg.precision = bm3d::Precision::Int16;
    fixed_cfg.fixedPoint = fixed::PipelineFormats::forFraction(12);
    EXPECT_THROW(fixed_cfg.validate(), std::invalid_argument);
    fixed_cfg.precision = bm3d::Precision::Float32;
    EXPECT_NO_THROW(fixed_cfg.validate());

    Bm3dConfig sharp_cfg;
    sharp_cfg.precision = bm3d::Precision::Int16;
    sharp_cfg.sharpenAlpha = 1.5f;
    EXPECT_THROW(sharp_cfg.validate(), std::invalid_argument);
    sharp_cfg.precision = bm3d::Precision::Float32;
    EXPECT_NO_THROW(sharp_cfg.validate());
}

TEST(Bm3dConfig, NonPositiveThreadsMeansAuto)
{
    // 0 and negative thread counts select the hardware thread count
    // via the shared clamped helper instead of being rejected.
    Bm3dConfig cfg;
    cfg.numThreads = 0;
    EXPECT_NO_THROW(cfg.validate());
    cfg.numThreads = -3;
    EXPECT_NO_THROW(cfg.validate());
}

TEST(Bm3d, RejectsTooSmallImage)
{
    Bm3d denoiser(smallConfig());
    image::ImageF tiny(3, 3, 1);
    bm3d::Profile p;
    EXPECT_THROW(denoiser.runStage(Stage::HardThreshold, tiny, nullptr, p),
                 std::invalid_argument);
}

TEST(Bm3d, WienerStageRequiresBasic)
{
    Bm3d denoiser(smallConfig());
    image::ImageF im(16, 16, 1);
    bm3d::Profile p;
    EXPECT_THROW(denoiser.runStage(Stage::Wiener, im, nullptr, p),
                 std::invalid_argument);
}

TEST(Bm3d, ImprovesPsnrOnNoisyNature)
{
    auto scene = makeTestScene(image::SceneKind::Nature, 48, 25.0f, 10);
    Bm3d denoiser(smallConfig());
    auto result = denoiser.denoise(scene.noisy);
    double noisy_psnr = image::psnrDb(scene.clean, scene.noisy);
    double basic_psnr = image::psnrDb(scene.clean, result.basic);
    double final_psnr = image::psnrDb(scene.clean, result.output);
    EXPECT_GT(basic_psnr, noisy_psnr + 3.0);
    EXPECT_GT(final_psnr, noisy_psnr + 3.0);
}

TEST(Bm3d, WienerStageRefinesBasicEstimate)
{
    auto scene = makeTestScene(image::SceneKind::Street, 48, 25.0f, 11);
    Bm3d denoiser(smallConfig());
    auto result = denoiser.denoise(scene.noisy);
    // The Wiener stage should stay within a small margin of the basic
    // estimate (on large images it typically improves it).
    EXPECT_GT(image::psnrDb(scene.clean, result.output),
              image::psnrDb(scene.clean, result.basic) - 0.5);
}

TEST(Bm3d, UniformImageDenoisesAlmostPerfectly)
{
    auto scene = makeTestScene(image::SceneKind::Uniform, 40, 25.0f, 12);
    Bm3d denoiser(smallConfig());
    auto result = denoiser.denoise(scene.noisy);
    // All patches match; the stack averaging should crush the noise.
    EXPECT_GT(image::psnrDb(scene.clean, result.output), 33.0);
}

TEST(Bm3d, ThreeChannelDenoising)
{
    auto scene = makeTestScene(image::SceneKind::Nature, 40, 25.0f, 13, 3);
    Bm3d denoiser(smallConfig());
    auto result = denoiser.denoise(scene.noisy);
    EXPECT_EQ(result.output.channels(), 3);
    EXPECT_GT(image::psnrDb(scene.clean, result.output),
              image::psnrDb(scene.clean, scene.noisy) + 2.0);
}

TEST(Bm3d, ProfileCoversAllSteps)
{
    auto scene = makeTestScene(image::SceneKind::Texture, 32, 25.0f, 14);
    Bm3d denoiser(smallConfig());
    auto result = denoiser.denoise(scene.noisy);
    EXPECT_GT(result.profile.seconds(Step::Dct1), 0.0);
    EXPECT_GT(result.profile.seconds(Step::Bm1), 0.0);
    EXPECT_GT(result.profile.seconds(Step::De1), 0.0);
    EXPECT_GT(result.profile.seconds(Step::Bm2), 0.0);
    EXPECT_GT(result.profile.seconds(Step::De2), 0.0);
    EXPECT_GT(result.profile.totalOps().multiplies, 0u);
    EXPECT_EQ(result.profile.mr().bm1Hits, 0u); // MR disabled
    EXPECT_GT(result.profile.mr().bm1Refs, 0u);
}

TEST(Bm3d, BlockMatchingDominatesOps)
{
    auto scene = makeTestScene(image::SceneKind::Nature, 40, 25.0f, 15);
    Bm3dConfig cfg; // full 49x49 windows: the paper's configuration
    Bm3d denoiser(cfg);
    auto result = denoiser.denoise(scene.noisy);
    uint64_t bm_ops = result.profile.ops(Step::Bm1).total() +
                      result.profile.ops(Step::Bm2).total();
    EXPECT_GT(bm_ops, result.profile.totalOps().total() / 2)
        << "block matching should dominate computation (paper Fig. 4)";
}

TEST(Bm3dMr, HitRateHighOnSmoothContent)
{
    auto scene = makeTestScene(image::SceneKind::Nature, 40, 10.0f, 16);
    Bm3dConfig cfg = smallConfig(10.0f);
    cfg.mr.enabled = true;
    cfg.mr.k = 0.5;
    Bm3d denoiser(cfg);
    auto result = denoiser.denoise(scene.noisy);
    EXPECT_GT(result.profile.mr().hitRate1(), 0.5);
}

TEST(Bm3dMr, ReducesSearchEffort)
{
    auto scene = makeTestScene(image::SceneKind::Nature, 40, 10.0f, 17);
    Bm3dConfig base = smallConfig(10.0f);
    Bm3d plain(base);
    auto r_plain = plain.denoise(scene.noisy);

    Bm3dConfig mr_cfg = base;
    mr_cfg.mr.enabled = true;
    mr_cfg.mr.k = 0.5;
    Bm3d with_mr(mr_cfg);
    auto r_mr = with_mr.denoise(scene.noisy);

    EXPECT_LT(r_mr.profile.mr().bm1Candidates,
              r_plain.profile.mr().bm1Candidates / 2);
}

TEST(Bm3dMr, QualityCloseToFullSearch)
{
    auto scene = makeTestScene(image::SceneKind::Nature, 48, 25.0f, 18);
    Bm3dConfig base = smallConfig();
    Bm3d plain(base);
    double psnr_plain =
        image::psnrDb(scene.clean, plain.denoise(scene.noisy).output);

    Bm3dConfig mr_cfg = base;
    mr_cfg.mr.enabled = true;
    mr_cfg.mr.k = 0.25;
    Bm3d with_mr(mr_cfg);
    double psnr_mr =
        image::psnrDb(scene.clean, with_mr.denoise(scene.noisy).output);

    // Paper Sec. 5.2: MR quality is within a few percent of BM3D and
    // sometimes better.
    EXPECT_GT(psnr_mr, psnr_plain - 1.0);
}

TEST(Bm3dMr, UniformImageAlwaysHits)
{
    auto scene = makeTestScene(image::SceneKind::Uniform, 32, 5.0f, 19);
    Bm3dConfig cfg = smallConfig(5.0f);
    cfg.mr.enabled = true;
    cfg.mr.k = 0.5;
    Bm3d denoiser(cfg);
    auto result = denoiser.denoise(scene.noisy);
    EXPECT_GT(result.profile.mr().hitRate1(), 0.9);
}

TEST(Bm3d, MultithreadedMatchesSingleThread)
{
    auto scene = makeTestScene(image::SceneKind::Street, 40, 25.0f, 20);
    Bm3dConfig cfg = smallConfig();
    Bm3d single(cfg);
    auto r1 = single.denoise(scene.noisy);

    cfg.numThreads = 4;
    Bm3d multi(cfg);
    auto r4 = multi.denoise(scene.noisy);

    // The tiled runner merges per-tile partial sums in tile order, so
    // the floating-point addition tree does not depend on the thread
    // count: outputs are bitwise identical, not merely close.
    EXPECT_EQ(image::maxAbsDiff(r1.basic, r4.basic), 0.0);
    EXPECT_EQ(image::maxAbsDiff(r1.output, r4.output), 0.0);
}

TEST(Bm3d, IntMaxTileGrainMatchesCoveringGrain)
{
    // Neither tileGrain nor band.rows has an upper bound: INT_MAX must
    // cut the same single tile (and band) as the smallest grain that
    // covers the 37 x 37 reference grid.
    auto scene = makeTestScene(image::SceneKind::Street, 40, 25.0f, 21);
    for (bool banded : {false, true}) {
        Bm3dConfig cfg = smallConfig();
        cfg.numThreads = 2;
        cfg.band.enabled = banded;
        cfg.band.rows = INT_MAX;
        cfg.tileGrain = 37;
        const auto covering = Bm3d(cfg).denoise(scene.noisy);
        cfg.tileGrain = INT_MAX;
        const auto huge = Bm3d(cfg).denoise(scene.noisy);
        EXPECT_TRUE(covering.basic.raw() == huge.basic.raw()) << banded;
        EXPECT_TRUE(covering.output.raw() == huge.output.raw()) << banded;
    }
}

TEST(Bm3d, FixedPointCloseToFloat)
{
    auto scene = makeTestScene(image::SceneKind::Nature, 40, 25.0f, 21);
    Bm3dConfig cfg = smallConfig();
    Bm3d fp(cfg);
    auto r_float = fp.denoise(scene.noisy);

    cfg.fixedPoint = fixed::PipelineFormats::forFraction(12);
    Bm3d fx(cfg);
    auto r_fixed = fx.denoise(scene.noisy);

    double snr_float = image::snrDb(scene.clean, r_float.output);
    double snr_fixed = image::snrDb(scene.clean, r_fixed.output);
    // Paper Fig. 9: relative SNR >= 98.9% even at 10 fractional bits.
    EXPECT_GT(snr_fixed / snr_float, 0.97);
}

TEST(Bm3d, FixedPointPrecisionMonotonicTrend)
{
    auto scene = makeTestScene(image::SceneKind::Texture, 32, 25.0f, 22);
    Bm3dConfig cfg = smallConfig();
    auto run = [&](int frac) {
        Bm3dConfig c = cfg;
        c.fixedPoint = fixed::PipelineFormats::forFraction(frac);
        return image::snrDb(scene.clean, Bm3d(c).denoise(scene.noisy).output);
    };
    // 12-bit should be no worse than a severely truncated 4-bit path.
    EXPECT_GT(run(12), run(4) - 0.1);
}

TEST(Bm3d, SharpeningIncreasesHighFrequencyEnergy)
{
    auto scene = makeTestScene(image::SceneKind::Street, 40, 10.0f, 23);
    Bm3dConfig cfg = smallConfig(10.0f);
    Bm3d plain(cfg);
    auto r_plain = plain.denoise(scene.noisy);

    cfg.sharpenAlpha = 1.5f;
    Bm3d sharp(cfg);
    auto r_sharp = sharp.denoise(scene.noisy);

    // Laplacian energy as a sharpness proxy.
    auto sharpness = [](const image::ImageF &im) {
        double acc = 0;
        for (int y = 1; y < im.height() - 1; ++y)
            for (int x = 1; x < im.width() - 1; ++x) {
                float lap = 4.0f * im.at(x, y) - im.at(x - 1, y) -
                            im.at(x + 1, y) - im.at(x, y - 1) -
                            im.at(x, y + 1);
                acc += static_cast<double>(lap) * lap;
            }
        return acc;
    };
    EXPECT_GT(sharpness(r_sharp.output), sharpness(r_plain.output) * 1.02);
}

TEST(Bm3d, DisableWienerSkipsStageTwo)
{
    auto scene = makeTestScene(image::SceneKind::Nature, 32, 25.0f, 24);
    Bm3dConfig cfg = smallConfig();
    cfg.enableWiener = false;
    Bm3d denoiser(cfg);
    auto result = denoiser.denoise(scene.noisy);
    EXPECT_EQ(result.profile.seconds(Step::Bm2), 0.0);
    EXPECT_LT(image::maxAbsDiff(result.output, result.basic), 1e-6);
}

TEST(Bm3d, RefPositionsCoverEdges)
{
    auto xs = bm3d::makeRefPositions(10, 3);
    EXPECT_EQ(xs.front(), 0);
    EXPECT_EQ(xs.back(), 10);
    auto xs2 = bm3d::makeRefPositions(9, 3);
    EXPECT_EQ(xs2.back(), 9);
    auto xs1 = bm3d::makeRefPositions(5, 1);
    EXPECT_EQ(xs1.size(), 6u);
}

TEST(Bm3d, StrideTwoStillCoversImage)
{
    auto scene = makeTestScene(image::SceneKind::Nature, 40, 25.0f, 25);
    Bm3dConfig cfg = smallConfig();
    cfg.refStride = 2;
    Bm3d denoiser(cfg);
    auto result = denoiser.denoise(scene.noisy);
    EXPECT_GT(image::psnrDb(scene.clean, result.output),
              image::psnrDb(scene.clean, scene.noisy) + 2.0);
}

TEST(Bm3dMr, AcrossRowsIncreasesHits)
{
    // The Sec. 5.3 future-work extension: when the left-neighbor check
    // misses, the reference above may still be similar (e.g. vertical
    // structure).
    auto scene = makeTestScene(image::SceneKind::Street, 48, 15.0f, 26);
    Bm3dConfig cfg = smallConfig(15.0f);
    cfg.mr.enabled = true;
    cfg.mr.k = 0.3;

    Bm3d horiz(cfg);
    auto r_h = horiz.denoise(scene.noisy);

    cfg.mr.acrossRows = true;
    Bm3d both(cfg);
    auto r_b = both.denoise(scene.noisy);

    EXPECT_GE(r_b.profile.mr().bm1Hits, r_h.profile.mr().bm1Hits);
    EXPECT_GT(r_b.profile.mr().bm1VertHits, 0u);
    EXPECT_LE(r_b.profile.mr().bm1Candidates,
              r_h.profile.mr().bm1Candidates);
}

TEST(Bm3dMr, AcrossRowsQualityComparable)
{
    auto scene = makeTestScene(image::SceneKind::Nature, 48, 25.0f, 27);
    Bm3dConfig cfg = smallConfig();
    cfg.mr.enabled = true;
    cfg.mr.k = 0.5;
    double base = image::psnrDb(scene.clean,
                                Bm3d(cfg).denoise(scene.noisy).output);
    cfg.mr.acrossRows = true;
    double ext = image::psnrDb(scene.clean,
                               Bm3d(cfg).denoise(scene.noisy).output);
    EXPECT_GT(ext, base - 1.0);
}

TEST(Bm3dMr, AcrossRowsDisabledHasNoVertHits)
{
    auto scene = makeTestScene(image::SceneKind::Street, 32, 25.0f, 28);
    Bm3dConfig cfg = smallConfig();
    cfg.mr.enabled = true;
    Bm3d denoiser(cfg);
    auto r = denoiser.denoise(scene.noisy);
    EXPECT_EQ(r.profile.mr().bm1VertHits, 0u);
    EXPECT_EQ(r.profile.mr().bm2VertHits, 0u);
}

// ---------------------------------------------------------------------
// Config::variant — the adaptive matching layer (DESIGN §11).
// ---------------------------------------------------------------------

TEST(Bm3dConfig, RejectsBadVariantKnobs)
{
    auto check = [](auto mutate) {
        Bm3dConfig cfg;
        mutate(cfg);
        EXPECT_THROW(cfg.validate(), std::invalid_argument);
    };
    check([](Bm3dConfig &c) {
        c.variant.adaptiveBound = true;
        c.variant.boundMargin = 0.5f; // must be >= 1
    });
    check([](Bm3dConfig &c) {
        c.variant.adaptiveBound = true;
        c.variant.boundMargin = std::numeric_limits<float>::quiet_NaN();
    });
    check([](Bm3dConfig &c) {
        c.variant.coarseToFine = true;
        c.variant.coarseStride = 1; // stride 1 = dense, use the flag off
    });
    check([](Bm3dConfig &c) {
        c.variant.coarseToFine = true;
        c.variant.coarseStride = 5;
    });
    // MR chains reuse state across consecutive references, which a
    // subsampled reference grid breaks; the combination is rejected
    // rather than silently degraded.
    check([](Bm3dConfig &c) {
        c.variant.coarseToFine = true;
        c.mr.enabled = true;
    });
}

TEST(Bm3dVariant, InfiniteMarginIsBitwiseDense)
{
    // The adaptive bound only ever *tightens* the running cutoff; with
    // an infinite margin the propagated bound is +inf and every scan
    // path must accept exactly the candidates the dense scan keeps —
    // bitwise, in both matching precisions.
    auto scene = makeTestScene(image::SceneKind::Street, 48, 25.0f, 40);
    for (bm3d::Precision precision :
         {bm3d::Precision::Float32, bm3d::Precision::Int16}) {
        Bm3dConfig cfg = smallConfig();
        cfg.precision = precision;
        auto dense = Bm3d(cfg).denoise(scene.noisy);

        cfg.variant.adaptiveBound = true;
        cfg.variant.boundMargin = std::numeric_limits<float>::infinity();
        auto adaptive = Bm3d(cfg).denoise(scene.noisy);

        EXPECT_EQ(image::maxAbsDiff(dense.basic, adaptive.basic), 0.0)
            << "precision=" << static_cast<int>(precision);
        EXPECT_EQ(image::maxAbsDiff(dense.output, adaptive.output), 0.0)
            << "precision=" << static_cast<int>(precision);
    }
}

TEST(Bm3dVariant, AdaptiveBoundPrunesWithBoundedQualityLoss)
{
    auto scene = makeTestScene(image::SceneKind::Nature, 48, 25.0f, 41);
    Bm3dConfig cfg = smallConfig();
    double psnr_dense =
        image::psnrDb(scene.clean, Bm3d(cfg).denoise(scene.noisy).output);

    cfg.variant.adaptiveBound = true;
    cfg.variant.boundMargin = 2.0f;
    auto r = Bm3d(cfg).denoise(scene.noisy);

    EXPECT_GT(r.profile.adaptive().prunedInserts, 0u);
    EXPECT_GT(image::psnrDb(scene.clean, r.output), psnr_dense - 0.3);
}

TEST(Bm3dVariant, CoarseDensifyAlwaysIsBitwiseDense)
{
    // densifyThreshold <= 0 forces every tile through the fine pass;
    // the two-pass replay aggregates in the same row-major order the
    // dense scan uses, so the output must be bit-identical, and no
    // reference may be skipped.
    auto scene = makeTestScene(image::SceneKind::Street, 48, 25.0f, 42);
    Bm3dConfig cfg = smallConfig();
    auto dense = Bm3d(cfg).denoise(scene.noisy);

    cfg.variant.coarseToFine = true;
    cfg.variant.coarseStride = 2;
    cfg.variant.densifyThreshold = 0.0f;
    auto coarse = Bm3d(cfg).denoise(scene.noisy);

    EXPECT_EQ(image::maxAbsDiff(dense.basic, coarse.basic), 0.0);
    EXPECT_EQ(image::maxAbsDiff(dense.output, coarse.output), 0.0);
    // Every tile densified, none stayed coarse, no reference skipped.
    EXPECT_GT(coarse.profile.adaptive().tilesDensified, 0u);
    EXPECT_EQ(coarse.profile.adaptive().tilesCoarse, 0u);
    EXPECT_EQ(coarse.profile.adaptive().refsSkipped, 0u);
}

TEST(Bm3dVariant, CoarseSkipsRefsAndHoldsQuality)
{
    auto scene = makeTestScene(image::SceneKind::Nature, 48, 25.0f, 43);
    Bm3dConfig cfg = smallConfig();
    double psnr_dense =
        image::psnrDb(scene.clean, Bm3d(cfg).denoise(scene.noisy).output);
    const uint64_t dense_cand = Bm3d(cfg)
                                    .denoise(scene.noisy)
                                    .profile.mr()
                                    .bm1Candidates;

    cfg.variant.coarseToFine = true;
    cfg.variant.coarseStride = 2;
    cfg.variant.densifyThreshold = 0.9f; // low-residual tiles stay coarse
    auto r = Bm3d(cfg).denoise(scene.noisy);

    EXPECT_GT(r.profile.adaptive().tilesCoarse, 0u);
    EXPECT_GT(r.profile.adaptive().refsSkipped, 0u);
    EXPECT_LT(r.profile.mr().bm1Candidates, dense_cand);
    EXPECT_GT(image::psnrDb(scene.clean, r.output), psnr_dense - 0.5);
}

TEST(Bm3dVariant, CountersAreThreadCountInvariant)
{
    // The tiled runner makes the outputs bitwise thread-invariant; the
    // pruning decisions depend only on tile-local scan order, so the
    // variant counters must agree exactly too — this is what lets CI
    // gate them with --ops-tolerance 0.
    auto scene = makeTestScene(image::SceneKind::Street, 48, 25.0f, 44);
    Bm3dConfig cfg = smallConfig();
    cfg.variant.adaptiveBound = true;
    cfg.variant.boundMargin = 2.0f;
    cfg.variant.coarseToFine = true;
    cfg.variant.coarseStride = 2;
    cfg.variant.densifyThreshold = 0.5f;

    auto r1 = Bm3d(cfg).denoise(scene.noisy);
    cfg.numThreads = 4;
    auto r4 = Bm3d(cfg).denoise(scene.noisy);

    EXPECT_EQ(image::maxAbsDiff(r1.output, r4.output), 0.0);
    EXPECT_EQ(r1.profile.adaptive().prunedInserts,
              r4.profile.adaptive().prunedInserts);
    EXPECT_EQ(r1.profile.adaptive().tilesCoarse,
              r4.profile.adaptive().tilesCoarse);
    EXPECT_EQ(r1.profile.adaptive().tilesDensified,
              r4.profile.adaptive().tilesDensified);
    EXPECT_EQ(r1.profile.adaptive().refsSkipped,
              r4.profile.adaptive().refsSkipped);
}

// Regression for the fig02 bench record showing bm3d.mr.bm1Hits == 0:
// the bench probe simply never enabled MR (hits are *defined* as 0 with
// the feature off — see Bm3d.ProfileCoversAllSteps above). This pins
// the positive half: with MR on, both the profile and the process-wide
// metrics registry must report nonzero hits.
TEST(Bm3dMr, RegistryReportsNonzeroHitsWhenEnabled)
{
    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    reg.reset();

    auto scene = makeTestScene(image::SceneKind::Nature, 40, 10.0f, 45);
    Bm3dConfig cfg = smallConfig(10.0f);
    cfg.mr.enabled = true;
    cfg.mr.k = 0.5;
    auto result = Bm3d(cfg).denoise(scene.noisy);

    EXPECT_GT(result.profile.mr().bm1Hits, 0u);
    const obs::MetricsSnapshot snap = reg.snapshot();
    EXPECT_GT(snap.value("bm3d.mr.bm1Hits"), 0.0);
    EXPECT_GT(snap.value("bm3d.mr.bm2Hits"), 0.0);
    reg.reset();
}

// ---------------------------------------------------------------------
// Fused group-major denoise datapath (DESIGN §12).
// ---------------------------------------------------------------------

TEST(Bm3dFused, BitwiseMatrixAcrossLevelsThreadsPrecisions)
{
    // The PR's acceptance matrix: for each matching precision, the
    // fused pipeline's output is one bit pattern across every SIMD
    // dispatch level and thread count. (Float32 vs Int16 differ — the
    // int16 DE1 spectrum is tolerance-gated, not bit-matched.)
    auto scene = makeTestScene(image::SceneKind::Street, 40, 25.0f, 51);
    for (bm3d::Precision precision :
         {bm3d::Precision::Float32, bm3d::Precision::Int16}) {
        simd::setLevel(simd::Level::Scalar);
        Bm3dConfig cfg = smallConfig();
        cfg.precision = precision;
        auto ref = Bm3d(cfg).denoise(scene.noisy);

        for (int l = 0; l <= static_cast<int>(simd::bestSupported());
             ++l) {
            simd::setLevel(static_cast<simd::Level>(l));
            for (int threads : {1, 8}) {
                cfg.numThreads = threads;
                auto r = Bm3d(cfg).denoise(scene.noisy);
                SCOPED_TRACE(testing::Message()
                             << "precision="
                             << static_cast<int>(precision) << " level="
                             << simd::toString(
                                    static_cast<simd::Level>(l))
                             << " threads=" << threads);
                EXPECT_EQ(image::maxAbsDiff(ref.basic, r.basic), 0.0);
                EXPECT_EQ(image::maxAbsDiff(ref.output, r.output), 0.0);
            }
        }
        simd::setLevel(simd::bestSupported());
    }
}

TEST(Bm3dFused, GroupCountersReportFusedTraffic)
{
    // On the fused path (the defaults) every stack goes group-major
    // and the registry says so; with sharpening, which only the
    // discrete path runs, the same number of stacks is charged to the
    // legacy counter. Totals are thread-count invariant by the same
    // argument as the variant counters above.
    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    auto scene = makeTestScene(image::SceneKind::Street, 40, 25.0f, 52);
    Bm3dConfig cfg = smallConfig();

    reg.reset();
    Bm3d(cfg).denoise(scene.noisy);
    const obs::MetricsSnapshot fused = reg.snapshot();
    EXPECT_GT(fused.value("bm3d.group.fusedStacks"), 0.0);
    EXPECT_GT(fused.value("bm3d.group.fusedPatches"), 0.0);
    EXPECT_EQ(fused.value("bm3d.group.legacyStacks"), 0.0);

    reg.reset();
    cfg.numThreads = 4;
    Bm3d(cfg).denoise(scene.noisy);
    const obs::MetricsSnapshot fused_mt = reg.snapshot();
    EXPECT_EQ(fused.value("bm3d.group.fusedStacks"),
              fused_mt.value("bm3d.group.fusedStacks"));
    EXPECT_EQ(fused.value("bm3d.group.fusedPatches"),
              fused_mt.value("bm3d.group.fusedPatches"));

    reg.reset();
    cfg.numThreads = 0;
    cfg.sharpenAlpha = 1.5f;
    Bm3d(cfg).denoise(scene.noisy);
    const obs::MetricsSnapshot legacy = reg.snapshot();
    EXPECT_EQ(legacy.value("bm3d.group.fusedStacks"), 0.0);
    EXPECT_GT(legacy.value("bm3d.group.legacyStacks"), 0.0);
    EXPECT_EQ(legacy.value("bm3d.group.legacyStacks"),
              fused.value("bm3d.group.fusedStacks"));
    reg.reset();
}

// ---------------------------------------------------------------------
// Row-band streaming schedule (DESIGN §15).
// ---------------------------------------------------------------------

namespace {

/** smallConfig with a multi-band grid: small tiles + small bands so a
    48x48 scene splits into several row bands with real halo overlap. */
Bm3dConfig
bandConfig(float sigma = 25.0f)
{
    Bm3dConfig cfg = smallConfig(sigma);
    cfg.tileGrain = 8;
    cfg.band.enabled = true;
    cfg.band.rows = 8;
    return cfg;
}

} // namespace

TEST(Bm3dConfig, RejectsBadBandRows)
{
    Bm3dConfig cfg;
    cfg.band.enabled = true;
    cfg.band.rows = 0;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg.band.enabled = false; // rejected whether or not the schedule is on
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Bm3dBand, BitwiseMatrixAcrossLevelsThreadsPrecisions)
{
    // The PR's acceptance matrix: band scheduling reorders work, never
    // arithmetic — for each matching precision the banded pipeline's
    // output equals the stage-major reference bit for bit, at every
    // SIMD dispatch level and thread count.
    auto scene = makeTestScene(image::SceneKind::Street, 48, 25.0f, 60);
    for (bm3d::Precision precision :
         {bm3d::Precision::Float32, bm3d::Precision::Int16}) {
        simd::setLevel(simd::Level::Scalar);
        Bm3dConfig cfg = smallConfig();
        cfg.tileGrain = 8;
        cfg.precision = precision;
        auto ref = Bm3d(cfg).denoise(scene.noisy);

        Bm3dConfig banded = bandConfig();
        banded.precision = precision;
        for (int l = 0; l <= static_cast<int>(simd::bestSupported());
             ++l) {
            simd::setLevel(static_cast<simd::Level>(l));
            for (int threads : {1, 8}) {
                banded.numThreads = threads;
                auto r = Bm3d(banded).denoise(scene.noisy);
                SCOPED_TRACE(testing::Message()
                             << "precision=" << static_cast<int>(precision)
                             << " level="
                             << simd::toString(static_cast<simd::Level>(l))
                             << " threads=" << threads);
                EXPECT_EQ(image::maxAbsDiff(ref.basic, r.basic), 0.0);
                EXPECT_EQ(image::maxAbsDiff(ref.output, r.output), 0.0);
            }
        }
        simd::setLevel(simd::bestSupported());
    }
}

TEST(Bm3dBand, BitwiseUnderFeatureMix)
{
    // Banding must compose with the rest of the matching/denoise
    // feature set without changing a bit: color channels, Matches
    // Reuse with the across-rows extension, both denoise paths (fused,
    // and discrete under sharpening), and a multithreaded run.
    auto scene =
        makeTestScene(image::SceneKind::Nature, 48, 25.0f, 61, 3);
    for (float alpha : {1.0f, 1.5f}) {
        Bm3dConfig cfg = smallConfig();
        cfg.tileGrain = 8;
        cfg.numThreads = 4;
        cfg.mr.enabled = true;
        cfg.mr.acrossRows = true;
        cfg.sharpenAlpha = alpha;
        auto ref = Bm3d(cfg).denoise(scene.noisy);

        cfg.band.enabled = true;
        cfg.band.rows = 8;
        auto r = Bm3d(cfg).denoise(scene.noisy);
        SCOPED_TRACE(testing::Message() << "sharpenAlpha=" << alpha);
        EXPECT_EQ(image::maxAbsDiff(ref.basic, r.basic), 0.0);
        EXPECT_EQ(image::maxAbsDiff(ref.output, r.output), 0.0);
    }
}

TEST(Bm3dBand, BitwiseUnderAdaptiveVariants)
{
    // The adaptive early-termination bound and the coarse-to-fine grid
    // keep their per-tile scan state, which banding leaves intact
    // (bands are whole tile rows).
    auto scene = makeTestScene(image::SceneKind::Street, 48, 25.0f, 62);
    Bm3dConfig cfg = smallConfig();
    cfg.tileGrain = 8;
    cfg.variant.adaptiveBound = true;
    cfg.variant.boundMargin = 2.0f;
    cfg.variant.coarseToFine = true;
    cfg.variant.coarseStride = 2;
    cfg.variant.densifyThreshold = 0.5f;
    auto ref = Bm3d(cfg).denoise(scene.noisy);

    cfg.band.enabled = true;
    cfg.band.rows = 8;
    auto r = Bm3d(cfg).denoise(scene.noisy);
    EXPECT_EQ(image::maxAbsDiff(ref.basic, r.basic), 0.0);
    EXPECT_EQ(image::maxAbsDiff(ref.output, r.output), 0.0);
    EXPECT_EQ(ref.profile.adaptive().prunedInserts,
              r.profile.adaptive().prunedInserts);
    EXPECT_EQ(ref.profile.adaptive().refsSkipped,
              r.profile.adaptive().refsSkipped);
}

TEST(Bm3dBand, EdgeGeometries)
{
    // Degenerate band geometries must still be bitwise clean:
    //  - an image shorter than one band plus its halo (single band,
    //    ring degenerates to whole-image mode),
    //  - bands smaller than the BM2 window (several stage-1 bands must
    //    complete before the first stage-2 band releases),
    //  - an odd-sized trailing band.
    struct Case
    {
        int w, h, rows;
    };
    const Case cases[] = {
        {16, 16, 8}, // shorter than band + halo
        {48, 44, 4}, // band rows < searchWindow2 = 11
        {40, 23, 8}, // odd trailing band (23 - 4 + 1 = 20 ref rows)
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(testing::Message() << c.w << "x" << c.h
                                        << " rows=" << c.rows);
        image::ImageF clean = image::makeScene(image::SceneKind::Street,
                                               c.w, c.h, 1, 63);
        image::ImageF noisy = image::addGaussianNoise(clean, 25.0f, 64);
        Bm3dConfig cfg = smallConfig();
        cfg.tileGrain = 4;
        auto ref = Bm3d(cfg).denoise(noisy);
        cfg.band.enabled = true;
        cfg.band.rows = c.rows;
        auto r = Bm3d(cfg).denoise(noisy);
        EXPECT_EQ(image::maxAbsDiff(ref.basic, r.basic), 0.0);
        EXPECT_EQ(image::maxAbsDiff(ref.output, r.output), 0.0);
    }
}

TEST(Bm3dBand, WienerDisabledStillBands)
{
    auto scene = makeTestScene(image::SceneKind::Nature, 40, 25.0f, 65);
    Bm3dConfig cfg = smallConfig();
    cfg.tileGrain = 8;
    cfg.enableWiener = false;
    auto ref = Bm3d(cfg).denoise(scene.noisy);
    cfg.band.enabled = true;
    cfg.band.rows = 8;
    auto r = Bm3d(cfg).denoise(scene.noisy);
    EXPECT_EQ(image::maxAbsDiff(ref.output, r.output), 0.0);
}

TEST(Bm3dBand, CountersAndFootprintGauges)
{
    // The deterministic band counters CI gates with --ops-tolerance 0,
    // and the working-set gauge: a banded run must report its bands,
    // fill every field position row exactly once, and record a ring
    // footprint strictly below the whole-image field footprint.
    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    reg.reset();

    auto scene = makeTestScene(image::SceneKind::Street, 96, 25.0f, 67);
    Bm3dConfig cfg = bandConfig();
    auto r1 = Bm3d(cfg).denoise(scene.noisy);
    const obs::MetricsSnapshot snap1 = reg.snapshot();

    const int pos = 96 - cfg.patchSize + 1; // 93 position rows
    // Two stages' bands: ceil(93/8 tile rows) per stage.
    EXPECT_GT(snap1.value("bm3d.band.bands"), 0.0);
    EXPECT_EQ(snap1.value("bm3d.band.rowsFilled"),
              static_cast<double>(pos));
    const double band_bytes = snap1.value("mem.peakBandBytes");
    EXPECT_GT(band_bytes, 0.0);
    // Whole-image field: raw + match SoA planes, coefs floats each.
    const double whole_bytes = static_cast<double>(pos) * pos * 16 * 2 *
                               sizeof(float);
    EXPECT_LT(band_bytes, whole_bytes);

    // Band counters are schedule-deterministic: an identical second
    // run adds exactly the same counts (thread count does not matter).
    reg.reset();
    cfg.numThreads = 4;
    auto r4 = Bm3d(cfg).denoise(scene.noisy);
    const obs::MetricsSnapshot snap4 = reg.snapshot();
    EXPECT_EQ(snap1.value("bm3d.band.bands"),
              snap4.value("bm3d.band.bands"));
    EXPECT_EQ(snap1.value("bm3d.band.rowsFilled"),
              snap4.value("bm3d.band.rowsFilled"));
    EXPECT_EQ(image::maxAbsDiff(r1.output, r4.output), 0.0);
    reg.reset();
}

TEST(Bm3dBand, RingFootprintAt1080pBelowWholeField)
{
    // The acceptance bound at HD geometry, on the storage layer alone
    // (no denoise run): a ring-prepared field at 1920x1080 with the
    // default band height must stay far below the whole-image field.
    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    reg.reset();

    const int w = 1920, h = 1080;
    transforms::Dct2D dct(4);
    Bm3dConfig cfg; // defaults: searchWindow1 = 49, band.rows = 64
    const int half1 = (cfg.searchWindow1 - 1) / 2;
    const int ring = cfg.band.rows - 1 + 2 * half1 + 1; // 112 rows

    bm3d::DctPatchField field;
    field.prepare(w, h, dct, nullptr, ring);
    EXPECT_TRUE(field.banded());
    EXPECT_EQ(field.ringRows(), ring);

    const size_t posx = static_cast<size_t>(w - 3);
    const size_t posy = static_cast<size_t>(h - 3);
    const size_t whole_bytes = posx * posy * 16 * 2 * sizeof(float);
    EXPECT_LT(field.footprintBytes(), whole_bytes / 5);

    const obs::MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.value("mem.peakBandBytes"),
              static_cast<double>(field.footprintBytes()));
    EXPECT_EQ(snap.value("mem.peakFieldBytes"), 0.0);
    reg.reset();
}

TEST(Bm3dFused, Int16SpectrumStaysWithinSnrEnvelope)
{
    // DE1's int16 Haar+shrink is the one tolerance-gated divergence:
    // the fused int16 pipeline must stay within 0.1 dB of the float
    // fused pipeline end to end.
    auto scene = makeTestScene(image::SceneKind::Nature, 48, 25.0f, 54);
    Bm3dConfig cfg = smallConfig();
    auto r_float = Bm3d(cfg).denoise(scene.noisy);
    cfg.precision = bm3d::Precision::Int16;
    auto r_i16 = Bm3d(cfg).denoise(scene.noisy);

    const double psnr_float =
        image::psnrDb(scene.clean, r_float.output);
    const double psnr_i16 = image::psnrDb(scene.clean, r_i16.output);
    EXPECT_GT(psnr_i16, psnr_float - 0.1);
}

// Stage accounting closes to the wall clock: the tile loops time each
// tile row once under BM and once under DE, and no step timer runs
// inside another, so the step seconds of a one-thread run cannot
// exceed the call's wall time. A nested timer (say, the Wiener gathers
// under DCT2 inside DE2) would count its time twice and overshoot.
TEST(Bm3d, StepSecondsSumToAtMostWallTime)
{
    auto scene = makeTestScene(image::SceneKind::Nature, 128, 25.0f, 60,
                               /*channels=*/3);
    Bm3dConfig cfg;
    cfg.sigma = 25.0f;
    ASSERT_EQ(cfg.numThreads, 1);
    ASSERT_TRUE(cfg.enableWiener);
    const Bm3d denoiser(cfg);
    const auto start = std::chrono::steady_clock::now();
    const bm3d::Bm3dResult r = denoiser.denoise(scene.noisy);
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    EXPECT_GT(r.profile.seconds(Step::De2), 0.0);
    EXPECT_LE(r.profile.totalSeconds(), wall);
}

namespace {

/**
 * Indices [0, n) of the coarse-to-fine walk: every @p stride-th one
 * from 0, and always n - 1.
 */
std::vector<size_t>
coarseWalk(size_t n, int stride)
{
    std::vector<size_t> walk;
    for (size_t i = 0; i < n; i += static_cast<size_t>(stride))
        walk.push_back(i);
    if (walk.back() != n - 1)
        walk.push_back(n - 1);
    return walk;
}

/**
 * The denoising step DE for one stack, written out per coefficient
 * position as the discrete reference both engine paths must
 * reproduce (float, no fixedPoint). Per channel: each member's DCT
 * coefficients (stage 1 copies channel 0 from the Path-C field, else
 * Dct2D::forward of the patch); Haar along the stack; the hard
 * threshold (|v| < lambda3d * sigma becomes +0.0f, else it counts
 * towards M) or the Wiener weight w = b^2 / (b^2 + sigma^2) of the
 * basic stack's spectrum (w > 0.5 counts); alpha-rooting when
 * sharpenAlpha > 1; the inverse Haar; Dct2D::inverse; addPatch at
 * weight 1/M.
 */
void
referenceDenoiseStack(const Bm3dConfig &cfg, Stage stage,
                      const image::ImageF &noisy, const image::ImageF *basic,
                      const bm3d::DctPatchField *field,
                      const bm3d::MatchList &list, bm3d::Aggregator &agg)
{
    const int n = list.stackSize();
    const int p = cfg.patchSize;
    const int pp = p * p;
    const bool wiener = stage == Stage::Wiener;
    const transforms::Dct2D dct(p);
    const float thr = cfg.lambda3d * cfg.sigma;
    const float s2 = cfg.sigma * cfg.sigma;

    // Haar1D along the stack; a one-deep stack is its own transform.
    std::optional<transforms::Haar1D> haar;
    if (n > 1)
        haar.emplace(n);
    auto haarStack = [&](const float *in, float *out, bool inverse) {
        if (!haar)
            out[0] = in[0];
        else if (inverse)
            haar->inverse(in, out);
        else
            haar->forward(in, out);
    };

    // Member i's coefficients of channel c at [i * pp, (i + 1) * pp).
    auto gather = [&](const image::ImageF &img, int c, bool from_field) {
        std::vector<float> coefs(static_cast<size_t>(n) * pp);
        std::vector<float> pixels(pp);
        for (int i = 0; i < n; ++i) {
            float *dst = &coefs[static_cast<size_t>(i) * pp];
            if (from_field) {
                std::copy_n(field->patch(list[i].x, list[i].y), pp, dst);
                continue;
            }
            for (int r = 0; r < p; ++r)
                for (int col = 0; col < p; ++col)
                    pixels[r * p + col] =
                        img.at(list[i].x + col, list[i].y + r, c);
            dct.forward(pixels.data(), dst);
        }
        return coefs;
    };

    for (int c = 0; c < noisy.channels(); ++c) {
        std::vector<float> coefs =
            gather(noisy, c, !wiener && c == 0 && field != nullptr);
        std::vector<float> bcoefs;
        if (wiener)
            bcoefs = gather(*basic, c, false);

        // spec[pos * n + i]: the 3-D spectrum, one z-vector per position.
        std::vector<float> spec(static_cast<size_t>(pp) * n);
        std::vector<float> z(n), b(n);
        int m = 0;
        for (int pos = 0; pos < pp; ++pos) {
            float *t = &spec[static_cast<size_t>(pos) * n];
            for (int i = 0; i < n; ++i)
                z[i] = coefs[static_cast<size_t>(i) * pp + pos];
            haarStack(z.data(), t, false);
            if (wiener) {
                for (int i = 0; i < n; ++i)
                    z[i] = bcoefs[static_cast<size_t>(i) * pp + pos];
                haarStack(z.data(), b.data(), false);
            }
            for (int i = 0; i < n; ++i) {
                if (wiener) {
                    const float w = (b[i] * b[i]) / (b[i] * b[i] + s2);
                    t[i] *= w;
                    if (w > 0.5f)
                        ++m;
                } else if (std::abs(t[i]) < thr) {
                    t[i] = 0.0f;
                } else {
                    ++m;
                }
            }
        }
        if (cfg.sharpenAlpha > 1.0f) {
            float ref = 0.0f;
            for (float v : spec)
                ref = std::max(ref, std::abs(v));
            for (float &v : spec) {
                if (ref == 0.0f || std::abs(v) < thr)
                    continue;
                const float mag = ref * std::pow(std::abs(v) / ref,
                                                 1.0f / cfg.sharpenAlpha);
                v = std::copysign(
                    std::min(mag, std::abs(v) * cfg.sharpenMaxBoost), v);
            }
        }

        const float weight = 1.0f / static_cast<float>(std::max(m, 1));
        for (int pos = 0; pos < pp; ++pos) {
            haarStack(&spec[static_cast<size_t>(pos) * n], z.data(), true);
            for (int i = 0; i < n; ++i)
                coefs[static_cast<size_t>(i) * pp + pos] = z[i];
        }
        std::vector<float> pixels(pp);
        for (int i = 0; i < n; ++i) {
            dct.inverse(&coefs[static_cast<size_t>(i) * pp], pixels.data());
            agg.addPatch(list[i].x, list[i].y, c, p, pixels.data(), weight);
        }
    }
}

/**
 * One stage written out as the per-reference loop, independent of the
 * tiled runner: for each reference in row-major order, search (MR
 * reuse of the left neighbour, then of the reference above under
 * acrossRows, then the temporal seed, else the window scan under the
 * adaptive bound carried along the row), then denoise its stack into
 * one full-image Aggregator, with referenceDenoiseStack under Float32
 * and DenoiseEngine::processRow under Int16 (whose DE1 only the
 * engine has). With one tile (1 thread, tileGrain >= the grid) the
 * runner must produce the same floats. Only the float DCT domain
 * seeds.
 *
 * Under variant.coarseToFine the whole grid is that one tile. A first
 * pass searches every coarseStride-th row and column, the last of each
 * always included, with its own bound carry along each of its rows.
 * The tile densifies when the mean stack residual of those searches
 * reaches densifyThreshold. The row-major pass then keeps the first
 * pass's lists and searches the other references if the tile densified;
 * otherwise it skips them: they denoise nothing, and their seed slots
 * get count 0 and a NaN descriptor.
 */
template <typename Domain>
image::ImageF
referenceStageLoop(const Bm3dConfig &cfg, Stage stage, const Domain &domain,
                   const image::ImageF &noisy, const image::ImageF *basic,
                   const bm3d::DctPatchField *field,
                   bm3d::TemporalSeed *seed)
{
    const bm3d::BlockMatcher<Domain> matcher(
        domain, cfg.searchWindow(stage), cfg.searchStride, cfg.refStride,
        cfg.tauMatch(stage), cfg.maxMatches, cfg.boundedDistance);
    const std::vector<int> xs =
        bm3d::makeRefPositions(domain.positionsX() - 1, cfg.refStride);
    const std::vector<int> ys =
        bm3d::makeRefPositions(domain.positionsY() - 1, cfg.refStride);
    EXPECT_FALSE(cfg.fixedPoint.has_value());
    std::optional<bm3d::DenoiseEngine> engine;
    if (cfg.precision == bm3d::Precision::Int16) {
        engine.emplace(cfg, stage, noisy, basic, field, nullptr);
        engine->prepareTile(0, 0, domain.positionsX() - 1,
                            domain.positionsY() - 1);
    }
    bm3d::Aggregator agg(noisy.width(), noisy.height(), noisy.channels());

    const float tau = matcher.tauMatch();
    const float reuse = static_cast<float>(cfg.mr.k) * tau;
    const int coefs = domain.patchCoefs();
    constexpr bool kSeedable =
        std::is_same_v<Domain, bm3d::DctMatchDomain>;
    EXPECT_TRUE(kSeedable || seed == nullptr);
    const size_t nx = xs.size();
    const size_t ny = ys.size();
    std::vector<bm3d::MatchList> lists(nx * ny);

    // Search reference (xi, yi) into its list, with @p worst the kept
    // distance carried from the previous search, and record the result
    // in the seed store.
    auto search = [&](size_t xi, size_t yi, float worst) {
        const int x = xs[xi];
        const int y = ys[yi];
        const size_t cell = yi * nx + xi;
        float bound = std::numeric_limits<float>::infinity();
        if (cfg.variant.adaptiveBound &&
            std::isfinite(cfg.variant.boundMargin) && std::isfinite(worst))
            bound = std::max(worst * cfg.variant.boundMargin, 0.125f * tau);
        float desc[64];
        if constexpr (kSeedable) {
            if (seed != nullptr)
                domain.gatherRef(x, y, desc);
        }

        bm3d::MatchList &list = lists[cell];
        bool found = false;
        if (cfg.mr.enabled && xi > 0 &&
            matcher.referenceDistance(x, y, xs[xi - 1], y) < reuse) {
            matcher.searchReuse(x, y, lists[cell - 1], list);
            found = true;
        }
        if (!found && cfg.mr.enabled && cfg.mr.acrossRows && yi > 0 &&
            matcher.referenceDistance(x, y, x, ys[yi - 1]) < reuse) {
            matcher.searchReuseDown(x, y, lists[cell - nx], list);
            found = true;
        }
        if (kSeedable && !found && seed != nullptr &&
            seed->previous != nullptr) {
            const float *prev = seed->previous->refDesc.data() + cell * coefs;
            float ssd = 0.0f;
            for (int k = 0; k < coefs; ++k)
                ssd += (desc[k] - prev[k]) * (desc[k] - prev[k]);
            if (ssd / static_cast<float>(coefs) < seed->reuseBound) {
                matcher.searchSeeded(x, y, seed->previous->cell(cell),
                                     seed->previous->count[cell],
                                     seed->window, list, bound, nullptr);
                found = true;
            }
        }
        if (!found)
            matcher.search(x, y, list, bound, nullptr);
        if (kSeedable && seed != nullptr && seed->current != nullptr) {
            bm3d::SeedStore &store = *seed->current;
            std::copy(desc, desc + coefs,
                      store.refDesc.data() + cell * coefs);
            const int n = std::min(list.size(), store.capacity());
            for (int k = 0; k < n; ++k)
                store.pos[cell * store.capacity() + k] =
                    bm3d::SeedPos{static_cast<uint16_t>(list[k].x),
                                  static_cast<uint16_t>(list[k].y)};
            store.count[cell] = static_cast<uint8_t>(n);
        }
    };

    std::vector<char> searched(nx * ny, 0);
    bool densify = true;
    if (cfg.variant.coarseToFine) {
        const std::vector<size_t> rows =
            coarseWalk(ny, cfg.variant.coarseStride);
        const std::vector<size_t> cols =
            coarseWalk(nx, cfg.variant.coarseStride);
        double residual = 0.0;
        for (size_t yi : rows) {
            float worst = std::numeric_limits<float>::infinity();
            for (size_t xi : cols) {
                const size_t cell = yi * nx + xi;
                search(xi, yi, worst);
                searched[cell] = 1;
                const bm3d::MatchList &list = lists[cell];
                worst = list.worstDistance();
                // Mean kept distance, each unfilled slot charged at tau.
                float sum = 0.0f;
                for (const bm3d::Match &m : list)
                    sum += std::min(m.distance, tau);
                sum += static_cast<float>(cfg.maxMatches - list.size()) * tau;
                residual += sum / (static_cast<float>(cfg.maxMatches) * tau);
            }
        }
        densify = static_cast<float>(residual / static_cast<double>(
                                                    rows.size() *
                                                    cols.size())) >=
                  cfg.variant.densifyThreshold;
    }

    for (size_t yi = 0; yi < ny; ++yi) {
        float worst = std::numeric_limits<float>::infinity();
        for (size_t xi = 0; xi < nx; ++xi) {
            const size_t cell = yi * nx + xi;
            if (!searched[cell] && !densify) {
                if (kSeedable && seed != nullptr &&
                    seed->current != nullptr) {
                    bm3d::SeedStore &store = *seed->current;
                    store.count[cell] = 0;
                    std::fill_n(store.refDesc.data() + cell * coefs, coefs,
                                std::numeric_limits<float>::quiet_NaN());
                }
                continue;
            }
            if (!searched[cell])
                search(xi, yi, worst);
            if (engine)
                engine->processRow(&lists[cell], 1, agg);
            else
                referenceDenoiseStack(cfg, stage, noisy, basic, field,
                                      lists[cell], agg);
            worst = lists[cell].worstDistance();
        }
    }
    return agg.finalize(stage == Stage::Wiener ? *basic : noisy);
}

/** Build the stage-1 DCT field of @p noisy as runStage does. */
void
buildStageOneField(const Bm3dConfig &cfg, const image::ImageF &noisy,
                   bm3d::DctPatchField &field)
{
    const transforms::Dct2D dct(cfg.patchSize);
    const image::ImageF plane0 = noisy.extractPlane(0);
    const float threshold = cfg.lambda2d * cfg.sigma;
    bm3d::OpCounters ops;
    field.build(plane0, dct, threshold, cfg.fixedPoint, &ops);
    if (cfg.precision == bm3d::Precision::Int16) {
        field.prepareI16();
        field.fillRowsI16(plane0, dct, threshold, 0, field.positionsY());
    }
}

/** Stage 1 through the reference loop, over the matching domain of
    @p cfg's precision. */
image::ImageF
referenceStageOne(const Bm3dConfig &cfg, const image::ImageF &noisy,
                  bm3d::TemporalSeed *seed = nullptr)
{
    bm3d::DctPatchField field;
    buildStageOneField(cfg, noisy, field);
    if (cfg.precision == bm3d::Precision::Int16)
        return referenceStageLoop(cfg, Stage::HardThreshold,
                                  bm3d::DctMatchDomainI16(field), noisy,
                                  nullptr, &field, seed);
    return referenceStageLoop(cfg, Stage::HardThreshold,
                              bm3d::DctMatchDomain(field), noisy, nullptr,
                              &field, seed);
}

/** One-tile config: one thread, tileGrain covering the whole grid. */
Bm3dConfig
oneTileConfig(int size)
{
    Bm3dConfig cfg = smallConfig();
    cfg.numThreads = 1;
    cfg.tileGrain = size;
    return cfg;
}

} // namespace

TEST(Bm3dStageLoop, MatchesReferenceLoopWithMrAcrossRows)
{
    const auto scene = makeTestScene(image::SceneKind::Nature, 40, 25.0f,
                                     61, /*channels=*/3);
    Bm3dConfig cfg = oneTileConfig(40);
    cfg.mr.enabled = true;
    cfg.mr.acrossRows = true;
    bm3d::Profile profile;
    const image::ImageF out = Bm3d(cfg).runStage(
        Stage::HardThreshold, scene.noisy, nullptr, profile);
    ASSERT_GT(profile.mr().bm1Hits, profile.mr().bm1VertHits);
    ASSERT_GT(profile.mr().bm1VertHits, 0u);
    EXPECT_TRUE(out.raw() == referenceStageOne(cfg, scene.noisy).raw());
}

TEST(Bm3dStageLoop, MatchesReferenceLoopWithAdaptiveBound)
{
    const auto scene =
        makeTestScene(image::SceneKind::Street, 40, 25.0f, 62);
    Bm3dConfig cfg = oneTileConfig(40);
    cfg.variant.adaptiveBound = true;
    cfg.variant.boundMargin = 1.5f;
    bm3d::Profile profile;
    const image::ImageF out = Bm3d(cfg).runStage(
        Stage::HardThreshold, scene.noisy, nullptr, profile);
    ASSERT_GT(profile.adaptive().prunedInserts, 0u);
    EXPECT_TRUE(out.raw() == referenceStageOne(cfg, scene.noisy).raw());
}

namespace {

/** True when two seed stores hold the same counts, positions and
    descriptor bits (NaN descriptors included). */
bool
sameSeedStore(const bm3d::SeedStore &a, const bm3d::SeedStore &b)
{
    if (a.count != b.count || a.refDesc.size() != b.refDesc.size())
        return false;
    for (size_t cell = 0; cell < a.count.size(); ++cell) {
        for (int k = 0; k < a.count[cell]; ++k) {
            const bm3d::SeedPos &pa = a.cell(cell)[k];
            const bm3d::SeedPos &pb = b.cell(cell)[k];
            if (pa.x != pb.x || pa.y != pb.y)
                return false;
        }
    }
    return std::memcmp(a.refDesc.data(), b.refDesc.data(),
                       a.refDesc.size() * sizeof(float)) == 0;
}

/**
 * Denoise two noisy frames of one clean scene through the runner and
 * through the reference loop, each carrying its own seed stores from
 * frame 0 into frame 1, and expect equal outputs and equal stores.
 * @return frame 1's runner profile
 */
bm3d::Profile
expectSeededFramesMatchReferenceLoop(const Bm3dConfig &cfg, uint64_t seed)
{
    const int size = 40;
    const image::ImageF clean =
        image::makeScene(image::SceneKind::Nature, size, size, 1, seed);
    const image::ImageF frames[2] = {
        image::addGaussianNoise(clean, 25.0f, seed + 1),
        image::addGaussianNoise(clean, 25.0f, seed + 2)};
    const Bm3d denoiser(cfg);
    bm3d::DctPatchField geometry;
    buildStageOneField(cfg, frames[0], geometry);
    const int nx = static_cast<int>(
        bm3d::makeRefPositions(geometry.positionsX() - 1, cfg.refStride)
            .size());
    const int ny = static_cast<int>(
        bm3d::makeRefPositions(geometry.positionsY() - 1, cfg.refStride)
            .size());

    bm3d::SeedStore run_stores[2];
    bm3d::SeedStore ref_stores[2];
    bm3d::Profile profile;
    for (int f = 0; f < 2; ++f) {
        bm3d::TemporalSeed run_seed;
        bm3d::TemporalSeed ref_seed;
        for (bm3d::TemporalSeed *s : {&run_seed, &ref_seed}) {
            s->reuseBound = 0.6f * cfg.tauMatch1;
            s->window = 9;
        }
        run_stores[f].reset(nx, ny, geometry.coefs(), cfg.maxMatches);
        ref_stores[f].reset(nx, ny, geometry.coefs(), cfg.maxMatches);
        run_seed.current = &run_stores[f];
        ref_seed.current = &ref_stores[f];
        if (f > 0) {
            run_seed.previous = &run_stores[f - 1];
            ref_seed.previous = &ref_stores[f - 1];
        }
        bm3d::StageOptions opts;
        opts.seed = &run_seed;
        profile = bm3d::Profile();
        const image::ImageF out = denoiser.runStage(
            Stage::HardThreshold, frames[f], nullptr, profile, opts);
        if (f > 0) {
            EXPECT_GT(run_seed.hits.load(), 0u);
        }
        EXPECT_TRUE(out.raw() ==
                    referenceStageOne(cfg, frames[f], &ref_seed).raw())
            << "frame " << f;
        EXPECT_TRUE(sameSeedStore(run_stores[f], ref_stores[f]))
            << "frame " << f;
    }
    return profile;
}

/** oneTileConfig on the coarse-to-fine grid at @p threshold. */
Bm3dConfig
coarseTileConfig(int size, float threshold)
{
    Bm3dConfig cfg = oneTileConfig(size);
    cfg.variant.coarseToFine = true;
    cfg.variant.coarseStride = 3;
    cfg.variant.densifyThreshold = threshold;
    return cfg;
}

} // namespace

TEST(Bm3dStageLoop, MatchesReferenceLoopOnSeededSecondFrame)
{
    expectSeededFramesMatchReferenceLoop(oneTileConfig(40), 63);
}

TEST(Bm3dStageLoop, MatchesReferenceLoopOnCoarseTile)
{
    // A tile that stays coarse: the skipped references denoise nothing.
    const auto scene = makeTestScene(image::SceneKind::Nature, 40, 25.0f,
                                     68, /*channels=*/3);
    const Bm3dConfig cfg = coarseTileConfig(40, 0.9f);
    bm3d::Profile profile;
    const image::ImageF out = Bm3d(cfg).runStage(
        Stage::HardThreshold, scene.noisy, nullptr, profile);
    ASSERT_EQ(profile.adaptive().tilesCoarse, 1u);
    ASSERT_GT(profile.adaptive().refsSkipped, 0u);
    EXPECT_TRUE(out.raw() == referenceStageOne(cfg, scene.noisy).raw());
}

TEST(Bm3dStageLoop, MatchesReferenceLoopOnDensifiedCoarseTile)
{
    // A tile that densifies under the adaptive bound. The first pass
    // carries its bound between cells coarseStride apart, so its lists
    // need not be the dense scan's, and neither need the output be.
    const auto scene =
        makeTestScene(image::SceneKind::Street, 40, 25.0f, 69);
    Bm3dConfig cfg = coarseTileConfig(40, 0.05f);
    cfg.variant.adaptiveBound = true;
    cfg.variant.boundMargin = 1.5f;
    bm3d::Profile profile;
    const image::ImageF out = Bm3d(cfg).runStage(
        Stage::HardThreshold, scene.noisy, nullptr, profile);
    ASSERT_EQ(profile.adaptive().tilesDensified, 1u);
    ASSERT_GT(profile.adaptive().prunedInserts, 0u);
    Bm3dConfig dense = cfg;
    dense.variant.coarseToFine = false;
    bm3d::Profile dense_profile;
    ASSERT_FALSE(out.raw() == Bm3d(dense)
                                  .runStage(Stage::HardThreshold,
                                            scene.noisy, nullptr,
                                            dense_profile)
                                  .raw());
    EXPECT_TRUE(out.raw() == referenceStageOne(cfg, scene.noisy).raw());
}

TEST(Bm3dStageLoop, MatchesReferenceLoopOnSeededCoarseSecondFrame)
{
    // Both frames stay coarse: frame 1 checks its searched references
    // against frame 0's stored descriptors, and both frames store count
    // 0 and NaN descriptors for the skipped ones.
    const bm3d::Profile profile =
        expectSeededFramesMatchReferenceLoop(coarseTileConfig(40, 0.9f), 70);
    EXPECT_EQ(profile.adaptive().tilesCoarse, 1u);
    EXPECT_GT(profile.adaptive().refsSkipped, 0u);
}

TEST(Bm3dStageLoop, MatchesReferenceLoopUnderInt16)
{
    const auto scene = makeTestScene(image::SceneKind::Street, 40, 25.0f,
                                     66, /*channels=*/3);
    Bm3dConfig cfg = oneTileConfig(40);
    cfg.precision = bm3d::Precision::Int16;
    bm3d::Profile profile;
    const image::ImageF out = Bm3d(cfg).runStage(
        Stage::HardThreshold, scene.noisy, nullptr, profile);
    EXPECT_TRUE(out.raw() == referenceStageOne(cfg, scene.noisy).raw());
}

namespace {

/**
 * Run both stages of @p cfg on @p noisy through the runner and through
 * the reference loop (stage 2 on the runner's basic estimate), and
 * expect each stage's output bit for bit.
 */
void
expectBothStagesMatchReferenceLoop(const Bm3dConfig &cfg,
                                   const image::ImageF &noisy)
{
    const Bm3d denoiser(cfg);
    bm3d::Profile profile;
    const image::ImageF basic =
        denoiser.runStage(Stage::HardThreshold, noisy, nullptr, profile);
    EXPECT_TRUE(basic.raw() == referenceStageOne(cfg, noisy).raw());
    const image::ImageF out =
        denoiser.runStage(Stage::Wiener, noisy, &basic, profile);
    const image::ImageF basic_plane0 = basic.extractPlane(0);
    const image::ImageF ref = referenceStageLoop(
        cfg, Stage::Wiener,
        bm3d::ColorMatchDomain(basic_plane0, cfg.patchSize), noisy, &basic,
        nullptr, nullptr);
    EXPECT_TRUE(out.raw() == ref.raw());
}

} // namespace

TEST(Bm3dFused, BitwiseIdenticalToDiscretePath)
{
    // The fused kernels replay the discrete DE's exact float
    // expressions, so both stages of a colour run with Matches Reuse
    // and transform-once tiles equal the DE written out in the test.
    const auto scene = makeTestScene(image::SceneKind::Nature, 40, 25.0f,
                                     50, /*channels=*/3);
    Bm3dConfig cfg = oneTileConfig(40);
    cfg.mr.enabled = true;
    ASSERT_TRUE(cfg.fusedDenoisePath());
    expectBothStagesMatchReferenceLoop(cfg, scene.noisy);
}

TEST(Bm3dStageLoop, DiscreteDePathMatchesReferenceDe)
{
    // The engine's discrete path serves every config the fused one
    // cannot take; sharpening and patch sizes other than 4 must equal
    // the same written-out DE.
    const auto scene = makeTestScene(image::SceneKind::Street, 40, 25.0f,
                                     71, /*channels=*/3);
    Bm3dConfig sharpen = oneTileConfig(40);
    sharpen.sharpenAlpha = 1.5f;
    Bm3dConfig patch2 = oneTileConfig(40);
    patch2.patchSize = 2;
    Bm3dConfig patch8 = oneTileConfig(40);
    patch8.patchSize = 8;
    for (const Bm3dConfig &cfg : {sharpen, patch2, patch8}) {
        ASSERT_FALSE(cfg.fusedDenoisePath());
        SCOPED_TRACE(testing::Message()
                     << "sharpenAlpha=" << cfg.sharpenAlpha
                     << " patchSize=" << cfg.patchSize);
        expectBothStagesMatchReferenceLoop(cfg, scene.noisy);
    }
}

TEST(Bm3dStageLoop, MatchesReferenceLoopInWienerStage)
{
    const auto scene = makeTestScene(image::SceneKind::Texture, 40, 25.0f,
                                     67, /*channels=*/3);
    expectBothStagesMatchReferenceLoop(oneTileConfig(40), scene.noisy);
}


