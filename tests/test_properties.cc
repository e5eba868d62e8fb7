/**
 * @file
 * Property-style parameterized sweeps across the library's
 * configuration space: invariants that must hold for *every*
 * combination, not just the paper's defaults.
 */

#include <cstring>
#include <limits>
#include <tuple>

#include <gtest/gtest.h>

#include "bm3d/bm3d.h"
#include "core/accelerator.h"
#include "core/oracle.h"
#include "dram/dram.h"
#include "fixed/format.h"
#include "image/metrics.h"
#include "image/noise.h"
#include "image/synthetic.h"
#include "simd/simd.h"
#include "transforms/dct.h"
#include "transforms/haar.h"

using namespace ideal;

// ---------------------------------------------------------------------
// BM3D parameter grid: (patch size, ref stride, search window) - the
// denoiser must improve PSNR and cover every pixel for all of them.
// ---------------------------------------------------------------------

class Bm3dParamSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(Bm3dParamSweep, ImprovesPsnrAndCoversImage)
{
    const auto [patch, stride, window] = GetParam();
    bm3d::Bm3dConfig cfg;
    cfg.patchSize = patch;
    cfg.refStride = stride;
    cfg.searchWindow1 = window;
    cfg.searchWindow2 = window;
    cfg.sigma = 25.0f;
    cfg.validate();

    auto clean = image::makeScene(image::SceneKind::Nature, 40, 40, 1,
                                  300 + patch * 10 + stride);
    auto noisy = image::addGaussianNoise(clean, 25.0f, 301);
    bm3d::Bm3d denoiser(cfg);
    auto result = denoiser.denoise(noisy);

    EXPECT_GT(image::psnrDb(clean, result.output),
              image::psnrDb(clean, noisy))
        << "patch=" << patch << " stride=" << stride << " Ns=" << window;
    // Output must stay in a sane dynamic range everywhere (every pixel
    // was covered by at least one reference patch or fell back).
    for (float v : result.output.raw()) {
        EXPECT_GE(v, -64.0f);
        EXPECT_LE(v, 320.0f);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, Bm3dParamSweep,
    ::testing::Values(std::make_tuple(2, 1, 9), std::make_tuple(4, 1, 13),
                      std::make_tuple(4, 2, 13), std::make_tuple(4, 3, 21),
                      std::make_tuple(8, 1, 13), std::make_tuple(8, 4, 17)));

// ---------------------------------------------------------------------
// Precision matrix: {float32, int16} x {scalar, avx2} x {1, 8}
// threads. Every combination must still denoise (PSNR improves); the
// int16 combinations must additionally produce ONE bit pattern across
// the whole matrix — integer matching has no reassociation
// sensitivity, so neither the dispatch level nor the thread count may
// leak into the output.
// ---------------------------------------------------------------------

class PrecisionMatrix : public ::testing::Test
{
  protected:
    void TearDown() override { simd::setLevel(simd::bestSupported()); }
};

TEST_F(PrecisionMatrix, DenoisesAndInt16IsBitwiseInvariant)
{
    auto clean = image::makeScene(image::SceneKind::Street, 48, 40, 1, 320);
    auto noisy = image::addGaussianNoise(clean, 25.0f, 321);
    const double noisy_psnr = image::psnrDb(clean, noisy);

    const simd::Level levels[] = {simd::Level::Scalar, simd::Level::Avx2};
    for (bm3d::Precision precision :
         {bm3d::Precision::Float32, bm3d::Precision::Int16}) {
        std::vector<float> int16_ref;
        for (simd::Level level : levels) {
            simd::setLevel(level); // clamped to bestSupported()
            for (int threads : {1, 8}) {
                bm3d::Bm3dConfig cfg;
                cfg.sigma = 25.0f;
                cfg.searchWindow1 = 13;
                cfg.searchWindow2 = 11;
                cfg.precision = precision;
                cfg.numThreads = threads;
                auto result = bm3d::Bm3d(cfg).denoise(noisy);
                EXPECT_GT(image::psnrDb(clean, result.output), noisy_psnr)
                    << "precision=" << static_cast<int>(precision)
                    << " level=" << static_cast<int>(level)
                    << " threads=" << threads;
                if (precision != bm3d::Precision::Int16)
                    continue;
                if (int16_ref.empty()) {
                    int16_ref = result.output.raw();
                    continue;
                }
                EXPECT_TRUE(int16_ref == result.output.raw())
                    << "int16 output differs at level="
                    << static_cast<int>(level) << " threads=" << threads;
            }
        }
    }
}

// ---------------------------------------------------------------------
// MR factor sweep: candidate count must be monotonically non-increasing
// in K, and quality must stay within the paper's envelope.
// ---------------------------------------------------------------------

class MrFactorSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(MrFactorSweep, HitsGrowAndQualityHolds)
{
    const double k = GetParam();
    auto clean = image::makeScene(image::SceneKind::Nature, 40, 40, 1, 310);
    auto noisy = image::addGaussianNoise(clean, 15.0f, 311);

    bm3d::Bm3dConfig cfg;
    cfg.sigma = 15.0f;
    cfg.searchWindow1 = 13;
    cfg.searchWindow2 = 11;
    bm3d::Bm3d plain(cfg);
    auto r_plain = plain.denoise(noisy);

    cfg.mr.enabled = true;
    cfg.mr.k = k;
    bm3d::Bm3d mr(cfg);
    auto r_mr = mr.denoise(noisy);

    EXPECT_LE(r_mr.profile.mr().bm1Candidates,
              r_plain.profile.mr().bm1Candidates);
    EXPECT_GT(image::psnrDb(clean, r_mr.output),
              image::psnrDb(clean, r_plain.output) - 1.5)
        << "K=" << k;
}

INSTANTIATE_TEST_SUITE_P(Ks, MrFactorSweep,
                         ::testing::Values(0.1, 0.25, 0.5, 0.75, 1.0));

// ---------------------------------------------------------------------
// Degenerate tiling inputs: the tiled runner must handle reference
// grids that collapse to a single row, a single column, or a single
// tile, and stay bitwise thread-count-invariant on all of them.
// ---------------------------------------------------------------------

namespace {

/** Denoise with the given extents, grain, and thread count. */
image::ImageF
denoiseTiled(int width, int height, int grain, int threads)
{
    bm3d::Bm3dConfig cfg;
    cfg.sigma = 25.0f;
    cfg.searchWindow1 = 13;
    cfg.searchWindow2 = 11;
    cfg.tileGrain = grain;
    cfg.numThreads = threads;
    auto clean =
        image::makeScene(image::SceneKind::Texture, width, height, 1, 330);
    auto noisy = image::addGaussianNoise(clean, 25.0f, 331);
    return bm3d::Bm3d(cfg).denoise(noisy).output;
}

/** The degenerate shape must work and be thread-count-invariant. */
void
expectShapeThreadInvariant(int width, int height, int grain)
{
    image::ImageF single = denoiseTiled(width, height, grain, 1);
    EXPECT_EQ(single.width(), width);
    EXPECT_EQ(single.height(), height);
    image::ImageF multi = denoiseTiled(width, height, grain, 5);
    ASSERT_TRUE(single.sameShape(multi));
    EXPECT_EQ(std::memcmp(single.raw().data(), multi.raw().data(),
                          single.raw().size() * sizeof(float)),
              0)
        << width << "x" << height << " grain=" << grain;
}

} // namespace

TEST(TilingEdgeCases, ImageSmallerThanPatchRejected)
{
    bm3d::Bm3dConfig cfg;
    cfg.sigma = 25.0f;
    bm3d::Bm3d denoiser(cfg);
    image::ImageF tiny(cfg.patchSize - 1, cfg.patchSize - 1, 1);
    EXPECT_THROW(denoiser.denoise(tiny), std::invalid_argument);
}

TEST(TilingEdgeCases, SingleRowReferenceGrid)
{
    // height == patchSize: the reference grid is 1 x N.
    expectShapeThreadInvariant(40, 8, 4);
}

TEST(TilingEdgeCases, SingleColumnReferenceGrid)
{
    // width == patchSize: the reference grid is N x 1.
    expectShapeThreadInvariant(8, 40, 4);
}

TEST(TilingEdgeCases, ExactPatchSizedImageIsSingleReference)
{
    // Exactly one reference position: one tile, any thread count.
    expectShapeThreadInvariant(8, 8, 4);
}

TEST(TilingEdgeCases, GrainLargerThanImage)
{
    // Grain far beyond the grid extent collapses to a single tile.
    expectShapeThreadInvariant(32, 32, 10000);
}

TEST(TilingEdgeCases, UnitGrain)
{
    // One reference patch per tile: maximal tile count.
    expectShapeThreadInvariant(24, 24, 1);
}

// ---------------------------------------------------------------------
// Fixed-point format sweep: round-trips through every (int, frac)
// format must bound the error by half an ulp and saturate cleanly.
// ---------------------------------------------------------------------

class FormatSweep
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(FormatSweep, RoundTripAndSaturationInvariants)
{
    const auto [int_bits, frac_bits] = GetParam();
    fixed::Format q(int_bits, frac_bits);
    image::SplitMix64 rng(17);
    const double limit = std::ldexp(1.0, int_bits);
    for (int i = 0; i < 200; ++i) {
        double v = (rng.uniform() * 2.0 - 1.0) * limit * 1.5;
        double rt = q.roundTrip(v);
        if (std::abs(v) < limit - 1.0 / q.scale()) {
            EXPECT_LE(std::abs(rt - v), 0.5 / q.scale() + 1e-12)
                << q.str() << " v=" << v;
        } else {
            // Out of range: must saturate within the format bounds.
            EXPECT_LE(rt, q.toDouble(q.maxRaw()) + 1e-12);
            EXPECT_GE(rt, q.toDouble(q.minRaw()) - 1e-12);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Formats, FormatSweep,
    ::testing::Combine(::testing::Values(4, 8, 11, 13, 15),
                       ::testing::Values(4, 7, 10, 12)));

// ---------------------------------------------------------------------
// Transform sweep: for every supported size, orthonormality implies
// energy preservation and perfect reconstruction.
// ---------------------------------------------------------------------

class HaarSizeSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(HaarSizeSweep, ParsevalHolds)
{
    const int n = GetParam();
    transforms::Haar1D haar(n);
    image::SplitMix64 rng(600 + n);
    std::vector<float> in(n), out(n);
    for (float &v : in)
        v = rng.uniform(-100.0f, 100.0f);
    haar.forward(in.data(), out.data());
    double e_in = 0, e_out = 0;
    for (int i = 0; i < n; ++i) {
        e_in += static_cast<double>(in[i]) * in[i];
        e_out += static_cast<double>(out[i]) * out[i];
    }
    EXPECT_NEAR(e_out / e_in, 1.0, 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Sizes, HaarSizeSweep,
                         ::testing::Values(2, 4, 8, 16, 32, 64));

// ---------------------------------------------------------------------
// DRAM configuration sweep: the timing model must stay causal (finish
// after enqueue), conserve requests, and respect the bandwidth peak
// under every topology.
// ---------------------------------------------------------------------

class DramConfigSweep
    : public ::testing::TestWithParam<std::tuple<int, int, bool>>
{
};

TEST_P(DramConfigSweep, ConservationAndCausality)
{
    const auto [channels, banks, frfcfs] = GetParam();
    dram::DramConfig cfg;
    cfg.channels = channels;
    cfg.banksPerChannel = banks;
    cfg.frfcfs = frfcfs;
    cfg.validate();
    dram::DramSystem mem(cfg);

    image::SplitMix64 rng(42);
    const int total = 300;
    int issued = 0, completed = 0;
    sim::Cycle cycle = 0;
    while ((issued < total || !mem.idle()) && cycle < 1'000'000) {
        ++cycle;
        while (issued < total) {
            sim::Addr addr = (rng.next() % (1 << 22)) & ~63ULL;
            if (!mem.enqueue(dram::Request{
                    addr, (issued % 5) == 0,
                    static_cast<uint64_t>(issued)}, cycle))
                break;
            ++issued;
        }
        mem.tick(cycle);
        for (const auto &done : mem.collectCompletions(cycle)) {
            EXPECT_LE(done.finishedAt, cycle);
            ++completed;
        }
    }
    EXPECT_EQ(issued, total);
    EXPECT_EQ(completed, total);
    EXPECT_EQ(mem.bytesTransferred(), static_cast<uint64_t>(total) * 64);
    double gbps = static_cast<double>(mem.bytesTransferred()) /
                  static_cast<double>(cycle);
    EXPECT_LE(gbps, cfg.peakGBs() * 1.01);
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, DramConfigSweep,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(4, 8),
                       ::testing::Bool()));

// ---------------------------------------------------------------------
// Accelerator sweep: for every (variant, lanes) combination the
// simulator must terminate, be deterministic, and never exceed the
// memory peak.
// ---------------------------------------------------------------------

class AcceleratorSweep
    : public ::testing::TestWithParam<std::tuple<bool, int>>
{
};

TEST_P(AcceleratorSweep, TerminatesDeterministically)
{
    const auto [is_mr, lanes] = GetParam();
    core::AcceleratorConfig cfg =
        is_mr ? core::AcceleratorConfig::idealMr(0.5)
              : core::AcceleratorConfig::idealB();
    cfg.lanes = lanes;

    auto clean = image::makeScene(image::SceneKind::Street, 96, 96, 3, 71);
    auto noisy = image::addGaussianNoise(clean, 25.0f, 72);
    auto a = core::simulateImage(cfg, noisy);
    auto b = core::simulateImage(cfg, noisy);
    EXPECT_EQ(a.totalCycles(), b.totalCycles());
    EXPECT_GT(a.totalCycles(), 0u);
    EXPECT_LE(a.averageBandwidthGBs(), cfg.dram.peakGBs() * 1.01);
}

INSTANTIATE_TEST_SUITE_P(Grid, AcceleratorSweep,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Values(4, 16, 32)));

// ---------------------------------------------------------------------
// Oracle sweep: the synthetic workload's realized hit rate must track
// the requested rate for any stride.
// ---------------------------------------------------------------------

class OracleRateSweep
    : public ::testing::TestWithParam<std::tuple<double, int>>
{
};

TEST_P(OracleRateSweep, RealizedRateTracksRequested)
{
    const auto [rate, stride] = GetParam();
    bm3d::Bm3dConfig cfg;
    cfg.mr.enabled = true;
    cfg.refStride = stride;
    auto w = core::makeSyntheticWorkload(256, 256, 1, cfg, rate, rate, 5);
    // The first reference of each row can never hit; tolerance covers
    // that structural loss plus sampling noise.
    EXPECT_NEAR(w.stage1.hitRate(), rate, 0.05 + 1.0 / (256.0 / stride));
}

INSTANTIATE_TEST_SUITE_P(
    Rates, OracleRateSweep,
    ::testing::Combine(::testing::Values(0.5, 0.9, 0.99),
                       ::testing::Values(1, 3)));

// ---------------------------------------------------------------------
// Variant matrix: the "all knobs off = dense" contract must hold not
// just at the default dispatch level but across {scalar, avx2} x
// {1, 8} threads x {float32, int16}. An infinite bound margin is the
// adaptive mechanism's identity element, so each cell must reproduce
// its dense twin bit-for-bit; likewise densifyThreshold = 0 for the
// coarse-to-fine grid.
// ---------------------------------------------------------------------

class VariantMatrix : public ::testing::Test
{
  protected:
    void TearDown() override { simd::setLevel(simd::bestSupported()); }
};

TEST_F(VariantMatrix, InfiniteMarginMatchesDenseBitwise)
{
    auto clean = image::makeScene(image::SceneKind::Street, 48, 40, 1, 330);
    auto noisy = image::addGaussianNoise(clean, 25.0f, 331);

    const simd::Level levels[] = {simd::Level::Scalar, simd::Level::Avx2};
    for (bm3d::Precision precision :
         {bm3d::Precision::Float32, bm3d::Precision::Int16}) {
        for (simd::Level level : levels) {
            simd::setLevel(level); // clamped to bestSupported()
            for (int threads : {1, 8}) {
                bm3d::Bm3dConfig cfg;
                cfg.sigma = 25.0f;
                cfg.searchWindow1 = 13;
                cfg.searchWindow2 = 11;
                cfg.precision = precision;
                cfg.numThreads = threads;
                auto dense = bm3d::Bm3d(cfg).denoise(noisy);

                cfg.variant.adaptiveBound = true;
                cfg.variant.boundMargin =
                    std::numeric_limits<float>::infinity();
                auto adaptive = bm3d::Bm3d(cfg).denoise(noisy);

                EXPECT_TRUE(dense.output.raw() == adaptive.output.raw())
                    << "precision=" << static_cast<int>(precision)
                    << " level=" << static_cast<int>(level)
                    << " threads=" << threads;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Band matrix: the row-band streaming schedule (DESIGN §15) reorders
// work but never arithmetic, so enabling it must reproduce the
// stage-major output bit for bit across {scalar, avx2} x {1, 8}
// threads x {float32, int16} x several band heights — including band
// heights that exceed the reference grid (single-band degenerate).
// ---------------------------------------------------------------------

class BandMatrix : public ::testing::Test
{
  protected:
    void TearDown() override { simd::setLevel(simd::bestSupported()); }
};

TEST_F(BandMatrix, BandScheduleMatchesStageMajorBitwise)
{
    auto clean = image::makeScene(image::SceneKind::Street, 48, 44, 1, 350);
    auto noisy = image::addGaussianNoise(clean, 25.0f, 351);

    const simd::Level levels[] = {simd::Level::Scalar, simd::Level::Avx2};
    for (bm3d::Precision precision :
         {bm3d::Precision::Float32, bm3d::Precision::Int16}) {
        for (simd::Level level : levels) {
            simd::setLevel(level); // clamped to bestSupported()
            for (int threads : {1, 8}) {
                bm3d::Bm3dConfig cfg;
                cfg.sigma = 25.0f;
                cfg.searchWindow1 = 13;
                cfg.searchWindow2 = 11;
                cfg.tileGrain = 8;
                cfg.precision = precision;
                cfg.numThreads = threads;
                auto stage_major = bm3d::Bm3d(cfg).denoise(noisy);

                for (int rows : {4, 16, 1000}) {
                    cfg.band.enabled = true;
                    cfg.band.rows = rows;
                    auto banded = bm3d::Bm3d(cfg).denoise(noisy);
                    EXPECT_TRUE(stage_major.basic.raw() == banded.basic.raw())
                        << "precision=" << static_cast<int>(precision)
                        << " level=" << static_cast<int>(level)
                        << " threads=" << threads << " rows=" << rows;
                    EXPECT_TRUE(stage_major.output.raw() ==
                                banded.output.raw())
                        << "precision=" << static_cast<int>(precision)
                        << " level=" << static_cast<int>(level)
                        << " threads=" << threads << " rows=" << rows;
                    cfg.band.enabled = false;
                }
            }
        }
    }
}

TEST_F(VariantMatrix, DensifyAlwaysMatchesDenseBitwise)
{
    auto clean = image::makeScene(image::SceneKind::Nature, 48, 40, 1, 340);
    auto noisy = image::addGaussianNoise(clean, 25.0f, 341);

    const simd::Level levels[] = {simd::Level::Scalar, simd::Level::Avx2};
    for (bm3d::Precision precision :
         {bm3d::Precision::Float32, bm3d::Precision::Int16}) {
        for (simd::Level level : levels) {
            simd::setLevel(level);
            for (int threads : {1, 8}) {
                bm3d::Bm3dConfig cfg;
                cfg.sigma = 25.0f;
                cfg.searchWindow1 = 13;
                cfg.searchWindow2 = 11;
                cfg.precision = precision;
                cfg.numThreads = threads;
                auto dense = bm3d::Bm3d(cfg).denoise(noisy);

                cfg.variant.coarseToFine = true;
                cfg.variant.coarseStride = 3;
                cfg.variant.densifyThreshold = 0.0f;
                auto coarse = bm3d::Bm3d(cfg).denoise(noisy);

                EXPECT_TRUE(dense.output.raw() == coarse.output.raw())
                    << "precision=" << static_cast<int>(precision)
                    << " level=" << static_cast<int>(level)
                    << " threads=" << threads;
            }
        }
    }
}
