/**
 * @file
 * Tests for the scene-adaptive presets (src/bm3d/presets.*): the
 * block-mean statistic, the classifier's calibration against the
 * synthetic scene generators, preset application rules, and the
 * end-to-end pickPreset -> applyPreset -> denoise path.
 */

#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "bm3d/bm3d.h"
#include "bm3d/presets.h"
#include "image/metrics.h"
#include "image/noise.h"
#include "image/synthetic.h"

using namespace ideal;
using bm3d::Bm3dConfig;
using bm3d::ScenePreset;

namespace {

image::ImageF
noisyScene(image::SceneKind kind, uint64_t seed, int size = 256)
{
    auto clean = image::makeScene(kind, size, size, 1, seed);
    return image::addGaussianNoise(clean, 25.0f, seed + 1);
}

} // namespace

TEST(Presets, NameRoundTrip)
{
    for (ScenePreset p :
         {ScenePreset::Nature, ScenePreset::Street, ScenePreset::Texture})
        EXPECT_EQ(bm3d::presetFromString(bm3d::toString(p)), p);
    EXPECT_THROW(bm3d::presetFromString("swamp"), std::invalid_argument);
}

TEST(Presets, StatsSeparateContentFromNoise)
{
    // Block averaging must push the sigma=25 noise floor below the
    // edge-level threshold: a noisy uniform field reads as edge-free.
    auto uniform = noisyScene(image::SceneKind::Uniform, 100);
    auto stats = bm3d::measureSceneStats(uniform);
    EXPECT_LT(stats.edgeFraction, 0.1f);
    EXPECT_LT(stats.blockVariance, 200.0f);

    auto texture = noisyScene(image::SceneKind::Texture, 101);
    EXPECT_GT(bm3d::measureSceneStats(texture).edgeFraction,
              stats.edgeFraction);
}

TEST(Presets, ClassifierMatchesSceneGenerators)
{
    // The classifier is calibrated on the generators at 256^2 /
    // sigma=25: each content class must land in its own preset across
    // seeds. Uniform deliberately lands in Nature (the aggressive
    // preset is exactly right for flat content).
    const struct
    {
        image::SceneKind kind;
        ScenePreset expected;
    } cases[] = {
        {image::SceneKind::Nature, ScenePreset::Nature},
        {image::SceneKind::Street, ScenePreset::Street},
        {image::SceneKind::Texture, ScenePreset::Texture},
        {image::SceneKind::Uniform, ScenePreset::Nature},
    };
    for (const auto &c : cases) {
        for (uint64_t seed : {1u, 2u, 3u}) {
            auto noisy = noisyScene(c.kind, 110 + seed * 7);
            EXPECT_EQ(bm3d::pickPreset(noisy), c.expected)
                << image::toString(c.kind) << " seed=" << seed;
        }
    }

    // Detail's block variance straddles the Nature/Street boundary
    // across seeds; either bucket is a sound operating point for it,
    // but it must never read as Texture (its edge field is broadband,
    // not structured).
    for (uint64_t seed : {1u, 2u, 3u}) {
        auto noisy = noisyScene(image::SceneKind::Detail, 110 + seed * 7);
        EXPECT_NE(bm3d::pickPreset(noisy), ScenePreset::Texture)
            << "detail seed=" << seed;
    }
}

TEST(Presets, ClassifierIsNoiseRobust)
{
    // Same decision on clean and noisy versions of the same scene.
    for (image::SceneKind kind :
         {image::SceneKind::Nature, image::SceneKind::Street,
          image::SceneKind::Texture}) {
        auto clean = image::makeScene(kind, 256, 256, 1, 130);
        auto noisy = image::addGaussianNoise(clean, 25.0f, 131);
        EXPECT_EQ(bm3d::pickPreset(clean), bm3d::pickPreset(noisy))
            << image::toString(kind);
    }
}

TEST(Presets, AppliedConfigsValidate)
{
    Bm3dConfig base;
    base.sigma = 25.0f;
    for (ScenePreset p :
         {ScenePreset::Nature, ScenePreset::Street, ScenePreset::Texture}) {
        Bm3dConfig cfg = bm3d::applyPreset(base, p);
        EXPECT_NO_THROW(cfg.validate()) << bm3d::toString(p);
    }
}

TEST(Presets, ApplyKeepsBaseParameters)
{
    Bm3dConfig base;
    base.sigma = 17.0f;
    base.numThreads = 3;
    base.refStride = 2;
    Bm3dConfig cfg = bm3d::applyPreset(base, ScenePreset::Street);
    EXPECT_EQ(cfg.sigma, 17.0f);
    EXPECT_EQ(cfg.numThreads, 3);
    EXPECT_EQ(cfg.refStride, 2);
    // ...while the preset's operating point is installed.
    EXPECT_EQ(cfg.searchWindow1, 41);
    EXPECT_TRUE(cfg.variant.coarseToFine);
    EXPECT_FALSE(cfg.mr.enabled);
}

TEST(Presets, Int16OnlyOnSupportedPatchSize)
{
    Bm3dConfig base;
    base.sigma = 25.0f;
    EXPECT_EQ(bm3d::applyPreset(base, ScenePreset::Nature).precision,
              bm3d::Precision::Int16);
    base.patchSize = 8;
    EXPECT_EQ(bm3d::applyPreset(base, ScenePreset::Nature).precision,
              bm3d::Precision::Float32);
    // Texture is quality-first: float even on the 4x4 datapath.
    base.patchSize = 4;
    EXPECT_EQ(bm3d::applyPreset(base, ScenePreset::Texture).precision,
              bm3d::Precision::Float32);
}

TEST(Presets, Int16OnlyWhereTheFusedDe1Runs)
{
    // Bases whose DE1 takes the discrete path keep float matching, so
    // every preset still validates.
    std::vector<Bm3dConfig> bases(2);
    bases[0].fixedPoint = fixed::PipelineFormats::forFraction(12);
    bases[1].sharpenAlpha = 1.5f;
    for (const Bm3dConfig &base : bases) {
        for (ScenePreset p : {ScenePreset::Nature, ScenePreset::Street,
                              ScenePreset::Texture}) {
            const Bm3dConfig cfg = bm3d::applyPreset(base, p);
            EXPECT_EQ(cfg.precision, bm3d::Precision::Float32)
                << bm3d::toString(p);
            EXPECT_NO_THROW(cfg.validate()) << bm3d::toString(p);
        }
    }
}

TEST(Presets, EndToEndDenoisesWithPickedPreset)
{
    auto clean = image::makeScene(image::SceneKind::Nature, 64, 64, 1, 140);
    auto noisy = image::addGaussianNoise(clean, 25.0f, 141);

    Bm3dConfig base;
    base.sigma = 25.0f;
    const ScenePreset preset = bm3d::pickPreset(noisy);
    EXPECT_EQ(preset, ScenePreset::Nature);
    Bm3dConfig cfg = bm3d::applyPreset(base, preset);
    cfg.validate();

    auto result = bm3d::Bm3d(cfg).denoise(noisy);
    EXPECT_GT(image::psnrDb(clean, result.output),
              image::psnrDb(clean, noisy) + 3.0);
    // The nature preset's coarse grid must actually skip work.
    EXPECT_GT(result.profile.adaptive().refsSkipped, 0u);
}
