#include "bm3d/presets.h"

#include <cmath>
#include <stdexcept>
#include <vector>

namespace ideal {
namespace bm3d {

namespace {

/// Block edge of the statistic's mean pyramid, in pixels.
constexpr int kStatBlock = 4;

/// An adjacent-block mean difference above this many gray levels
/// counts as a genuine edge for edgeFraction (the sigma=25 noise
/// floor on 4x4 block-mean differences is ~9 at the 1-sigma level).
constexpr float kEdgeLevel = 20.0f;

} // namespace

const char *
toString(ScenePreset preset)
{
    switch (preset) {
      case ScenePreset::Nature: return "nature";
      case ScenePreset::Street: return "street";
      case ScenePreset::Texture: return "texture";
    }
    return "?";
}

ScenePreset
presetFromString(const std::string &name)
{
    if (name == "nature")
        return ScenePreset::Nature;
    if (name == "street")
        return ScenePreset::Street;
    if (name == "texture")
        return ScenePreset::Texture;
    throw std::invalid_argument("unknown preset: " + name);
}

SceneStats
measureSceneStats(const image::ImageF &img)
{
    SceneStats stats;
    const int bw = img.width() / kStatBlock;
    const int bh = img.height() / kStatBlock;
    if (bw < 2 || bh < 2)
        return stats;

    // 4x4 block means of plane 0.
    std::vector<float> means(static_cast<size_t>(bw) * bh);
    const float *p = img.plane(0);
    const int w = img.width();
    for (int by = 0; by < bh; ++by) {
        for (int bx = 0; bx < bw; ++bx) {
            float sum = 0.0f;
            for (int dy = 0; dy < kStatBlock; ++dy) {
                const float *row =
                    p + static_cast<size_t>(by * kStatBlock + dy) * w +
                    static_cast<size_t>(bx) * kStatBlock;
                for (int dx = 0; dx < kStatBlock; ++dx)
                    sum += row[dx];
            }
            means[static_cast<size_t>(by) * bw + bx] =
                sum / static_cast<float>(kStatBlock * kStatBlock);
        }
    }

    double total = 0.0;
    for (float m : means)
        total += m;
    const double mean = total / static_cast<double>(means.size());
    double var = 0.0;
    for (float m : means)
        var += (m - mean) * (m - mean);
    stats.blockVariance =
        static_cast<float>(var / static_cast<double>(means.size()));

    double edge_sum = 0.0;
    uint64_t edge_count = 0;
    uint64_t diffs = 0;
    for (int by = 0; by < bh; ++by) {
        for (int bx = 0; bx < bw; ++bx) {
            const float m = means[static_cast<size_t>(by) * bw + bx];
            if (bx + 1 < bw) {
                const float d = std::fabs(
                    means[static_cast<size_t>(by) * bw + bx + 1] - m);
                edge_sum += d;
                edge_count += d > kEdgeLevel ? 1 : 0;
                ++diffs;
            }
            if (by + 1 < bh) {
                const float d = std::fabs(
                    means[static_cast<size_t>(by + 1) * bw + bx] - m);
                edge_sum += d;
                edge_count += d > kEdgeLevel ? 1 : 0;
                ++diffs;
            }
        }
    }
    if (diffs > 0) {
        stats.edgeStrength =
            static_cast<float>(edge_sum / static_cast<double>(diffs));
        stats.edgeFraction = static_cast<float>(
            static_cast<double>(edge_count) / static_cast<double>(diffs));
    }
    return stats;
}

ScenePreset
classifyScene(const SceneStats &stats)
{
    // Thresholds sit between the clusters the synthetic generators
    // produce at 256^2 / sigma=25 (measured on noisy and clean input):
    // texture scenes show a dense edge field (edgeFraction ~0.65-0.78,
    // edgeStrength ~31-35) where nature/street stay below 0.3 / 20;
    // street's piecewise-flat facades then separate from nature's soft
    // gradients by block variance (~1350-1750 vs ~310-380). Uniform
    // content (variance ~40 under noise) lands in Nature — the
    // aggressive preset is exactly right for it — and broadband Detail
    // straddles the variance split (~500-900 across seeds), landing in
    // Nature or Street but never in quality-first Texture.
    if (stats.edgeFraction >= 0.45f || stats.edgeStrength >= 25.0f)
        return ScenePreset::Texture;
    if (stats.blockVariance >= 600.0f)
        return ScenePreset::Street;
    return ScenePreset::Nature;
}

ScenePreset
pickPreset(const image::ImageF &img)
{
    return classifyScene(measureSceneStats(img));
}

Bm3dConfig
applyPreset(Bm3dConfig base, ScenePreset preset)
{
    // Int16 matching needs the fused 4x4 denoise datapath; leave
    // precision alone for configs validate() would reject under Int16.
    const bool can_i16 = base.fusedDenoisePath();
    switch (preset) {
      case ScenePreset::Nature:
        // Smooth self-similar content: good matches everywhere, so
        // shrink the windows, subsample the reference grid hard, and
        // let the adaptive bound prune the rest.
        base.searchWindow1 = 35;
        base.searchWindow2 = 27;
        base.maxMatches = 16;
        if (can_i16)
            base.precision = Precision::Int16;
        base.variant.adaptiveBound = true;
        base.variant.boundMargin = 2.0f;
        base.variant.coarseToFine = true;
        base.variant.coarseStride = 3;
        base.variant.densifyThreshold = 0.35f;
        base.mr.enabled = false; // coarseToFine excludes MR
        break;
      case ScenePreset::Street:
        // Piecewise-flat with sharp transitions: moderate window
        // shrink, stride-2 grid with the default densify threshold so
        // edge tiles fall back to the dense scan.
        base.searchWindow1 = 41;
        base.searchWindow2 = 31;
        base.maxMatches = 16;
        if (can_i16)
            base.precision = Precision::Int16;
        base.variant.adaptiveBound = true;
        base.variant.boundMargin = 2.0f;
        base.variant.coarseToFine = true;
        base.variant.coarseStride = 2;
        base.variant.densifyThreshold = 0.25f;
        base.mr.enabled = false; // coarseToFine excludes MR
        break;
      case ScenePreset::Texture:
        // Busy content: keep the full windows, dense grid, and float
        // matching; the only reduction is a conservative adaptive
        // bound. Stacks rarely collect 16 below-threshold matches on
        // quasi-periodic detail, so capping at 8 trims 3-D transform
        // work on stacks that would be padded with marginal matches.
        base.searchWindow1 = 49;
        base.searchWindow2 = 39;
        base.maxMatches = 8;
        base.precision = Precision::Float32;
        base.variant.adaptiveBound = true;
        base.variant.boundMargin = 3.0f;
        base.variant.coarseToFine = false;
        break;
    }
    return base;
}

} // namespace bm3d
} // namespace ideal
