/**
 * @file
 * Per-kernel microbenchmark of the src/simd dispatch layer: times
 * every hot kernel at every dispatch level the CPU supports and
 * writes BENCH_micro_kernels.json, the regression baseline that
 * scripts/bench_diff.py compares across commits. `--quick` shrinks
 * the iteration counts for use as a ctest smoke test (`-L bench`).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <type_traits>
#include <vector>

#include "bench/common.h"
#include "bm3d/blockmatch.h"
#include "fixed/int16plan.h"
#include "image/noise.h"
#include "image/synthetic.h"
#include "simd/simd.h"

using namespace ideal;

namespace {

/** Deterministic input generator (xorshift64*; no time seeds). */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : state_(seed ? seed : 0x9e3779b97f4a7c15ull)
    {
    }

    float
    uniform(float lo, float hi)
    {
        state_ ^= state_ >> 12;
        state_ ^= state_ << 25;
        state_ ^= state_ >> 27;
        const uint64_t r = state_ * 0x2545f4914f6cdd1dull;
        const double u =
            static_cast<double>(r >> 11) / 9007199254740992.0;
        return lo + static_cast<float>(u * (hi - lo));
    }

  private:
    uint64_t state_;
};

double
msSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Keeps results observable so the timed loops cannot be elided. */
float g_sink = 0.0f;

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    for (int i = 1; i < argc; ++i)
        quick = quick || std::strcmp(argv[i], "--quick") == 0;

    bench::printHeader("micro-kernels",
                       "SIMD kernel timings per dispatch level");

    // One pool of 16-float patch descriptors reused by every kernel;
    // large enough to defeat L1 residency games between levels.
    // Quick keeps the pool small but the iteration count high enough
    // that every timed section spans >= a few ms: sub-millisecond
    // sections jitter past bench_diff.py's 10% threshold on a busy
    // host from timer noise alone.
    const int patches = quick ? 1024 : 8192;
    const int iters = quick ? 600 : 400;
    Rng rng(12345);
    std::vector<float> pool(static_cast<size_t>(patches) * 16);
    for (float &v : pool)
        v = rng.uniform(-64.0f, 64.0f);
    std::vector<float> scratch(pool.size());
    std::vector<float> restored(pool.size());
    std::vector<float> den(pool.size());
    float dctm[4] = {0.5f, 0.5f, 0.653281482f, 0.270598054f};

    bench::BenchRecord rec;
    rec.name = "micro_kernels";
    rec.requestedThreads = 1;
    rec.metrics["patches"] = patches;
    rec.metrics["iterations"] = iters;
    rec.metrics["quick"] = quick ? 1.0 : 0.0;

    const auto t_total = std::chrono::steady_clock::now();
    std::vector<int> widths = {24, 12, 12};
    std::vector<std::string> header = {"kernel"};
    for (int l = 0; l <= static_cast<int>(simd::bestSupported()); ++l)
        header.push_back(simd::toString(static_cast<simd::Level>(l)));
    bench::printRow(header, widths);

    struct Timing
    {
        std::string kernel;
        std::vector<double> ms;
    };
    std::vector<Timing> rows = {
        {"ssd_soa_batch", {}},
        {"dct4_fwd", {}},   {"dct4_inv", {}},   {"aggregate", {}},
        {"merge_add", {}},  {"ssd_soa_batch_int16", {}},
        {"ssd_pair_batch_int16", {}},           {"dct4_fwd_int16", {}},
        {"haar_shrink_fused", {}},              {"wiener_shrink_fused", {}},
        {"aggregate_group", {}},    {"haar_shrink_fused_int16", {}},
        {"ssd_scan", {}},           {"bm_search_w13", {}},
        {"bm_search_w49", {}},      {"bm_search_w13_int16", {}},
        {"bm_search_w49_int16", {}},
    };

    // Coefficient-major view of the pool for the SoA kernels: plane k
    // holds coefficient k of every "candidate position".
    std::vector<const float *> soa_planes(16);
    for (int k = 0; k < 16; ++k)
        soa_planes[k] = pool.data() + static_cast<size_t>(k) * patches;

    // Int16 twins: the same pool quantized to the plan's pixel format
    // (the [-64, 64] values fit Q8.6 comfortably), plus the quantized
    // DCT basis and int32 distance outputs.
    const fixed::Int16DctPlan plan;
    std::vector<int16_t> pool_i16(pool.size());
    fixed::quantizeToI16(pool.data(), pool.size(), plan.pixel,
                         pool_i16.data());
    std::vector<int16_t> scratch_i16(pool.size());
    std::vector<const int16_t *> soa_planes_i16(16);
    for (int k = 0; k < 16; ++k)
        soa_planes_i16[k] =
            pool_i16.data() + static_cast<size_t>(k) * patches;
    int16_t dctmQ[4];
    fixed::quantizeBasisQ(dctm, 4, plan.coefFracBits, dctmQ);

    // Pair-interleaved twin of the SoA planes (BM1's layout): pair
    // plane p holds coefficients 2p and 2p+1 of position x at indices
    // 2x and 2x+1, so one vector load spans several candidates' pairs.
    std::vector<int16_t> pairs_i16(static_cast<size_t>(16) * patches);
    std::vector<const int16_t *> pair_planes_i16(8);
    for (int p = 0; p < 8; ++p) {
        int16_t *dst =
            pairs_i16.data() + static_cast<size_t>(p) * 2 * patches;
        for (int x = 0; x < patches; ++x) {
            dst[2 * x] = soa_planes_i16[2 * p][x];
            dst[2 * x + 1] = soa_planes_i16[2 * p + 1][x];
        }
        pair_planes_i16[p] = dst;
    }

    // Group tiles for the fused denoise kernels (DESIGN §12): the
    // pool viewed as 16-deep x 16-wide stacks, one fused call per
    // group, plus a 64x64 aggregation plane with overlapping corners.
    const int groups = patches / 16;
    std::vector<float> basic_tiles(pool.size());
    std::vector<float> wtile(256);
    std::vector<float> plane_num(64 * 64, 0.0f);
    std::vector<float> plane_den(64 * 64, 0.0f);
    int glx[16], gly[16];
    for (int i = 0; i < 16; ++i) {
        glx[i] = (i * 7) % 60;
        gly[i] = (i * 11) % 60;
    }

    // The search layer (BlockMatcher over a DCT field, as BM1 runs it):
    // one fixed 256x256 noisy street field at the library's BM1
    // threshold and Tmatch, both matching precisions. References sit
    // on a regular grid; every match list is consumed, or the
    // compiler may drop the selection along with the list.
    const image::ImageF bm_plane = image::addGaussianNoise(
        image::makeScene(image::SceneKind::Street, 256, 256, 1, 77), 25.0f,
        78);
    const transforms::Dct2D bm_dct(4);
    bm3d::DctPatchField bm_field(bm_plane, bm_dct, 50.0f, std::nullopt,
                                 nullptr);
    bm_field.prepareI16();
    bm_field.fillRowsI16(bm_plane, bm_dct, 50.0f, 0, bm_field.positionsY());
    const bm3d::DctMatchDomain bm_f32(bm_field);
    const bm3d::DctMatchDomainI16 bm_i16(bm_field);
    const auto bm_searches = [&](const auto &domain, int window,
                                 int ref_step) {
        using Domain = std::decay_t<decltype(domain)>;
        const bm3d::BlockMatcher<Domain> matcher(domain, window, 1, 1,
                                                 3000.0f, 16);
        bm3d::MatchList out;
        for (int y = 0; y < domain.positionsY(); y += ref_step)
            for (int x = 0; x < domain.positionsX(); x += ref_step) {
                matcher.search(x, y, out);
                for (const bm3d::Match &m : out)
                    g_sink += m.distance + static_cast<float>(m.x + m.y);
            }
    };
    const int step13 = quick ? 4 : 2;
    const int step49 = quick ? 8 : 4;
    rec.metrics["bm_search_field_px"] = 256;
    rec.metrics["bm_search_w13_ref_step"] = step13;
    rec.metrics["bm_search_w49_ref_step"] = step49;

    for (int l = 0; l <= static_cast<int>(simd::bestSupported()); ++l) {
        const auto level = static_cast<simd::Level>(l);
        const simd::KernelTable &k = simd::kernelsFor(level);
        const std::string suffix = std::string("_") + simd::toString(level);
        int row = 0;
        // Best-of-5: the minimum over repetitions is far more stable
        // than a single pass on a shared/noisy host, which matters
        // because bench_diff.py flags >10% deltas.
        auto record = [&](auto &&body) {
            double best = 1e300;
            for (int rep = 0; rep < 5; ++rep) {
                const auto t = std::chrono::steady_clock::now();
                body();
                best = std::min(best, msSince(t));
            }
            rows[row].ms.push_back(best);
            rec.kernelTimesMs[rows[row].kernel + suffix] = best;
            ++row;
        };

        // Batched SoA SSD over window-row-sized runs of candidates
        // (the coefficient-major block-matching hot path: one dispatch
        // per run).
        record([&] {
            float out[64];
            for (int it = 0; it < iters; ++it)
                for (int i = 0; i + 64 <= patches; i += 64) {
                    k.ssdSoaBatch(pool.data(), soa_planes.data(),
                                  static_cast<size_t>(i), 16, 64, out);
                    g_sink += out[0] + out[63];
                }
        });

        // Forward / inverse 4x4 DCT per patch.
        record([&] {
            for (int it = 0; it < iters; ++it)
                for (int i = 0; i < patches; ++i)
                    k.dct4Forward(pool.data() + 16 * i,
                                  scratch.data() + 16 * i, dctm, dctm);
        });
        g_sink += scratch[0];

        // Out of place: repeated in-place inverses drive the values subnormal.
        record([&] {
            for (int it = 0; it < iters; ++it)
                for (int i = 0; i < patches; ++i)
                    k.dct4Inverse(scratch.data() + 16 * i,
                                  restored.data() + 16 * i, dctm, dctm);
        });
        g_sink += restored[1];

        // Aggregation over the pool.
        std::copy(pool.begin(), pool.end(), scratch.begin());
        std::fill(den.begin(), den.end(), 0.0f);
        record([&] {
            for (int it = 0; it < iters; ++it)
                for (int i = 0; i < patches; ++i)
                    k.aggregateAdd(scratch.data() + 16 * i,
                                   den.data() + 16 * i,
                                   pool.data() + 16 * i, 0.25f, 16);
        });
        g_sink += den[0];

        // Fused accumulator merge over full pool-sized rows (the
        // tile-into-image aggregation merge).
        record([&] {
            for (int it = 0; it < iters; ++it)
                k.mergeAdd(scratch.data(), den.data(), pool.data(),
                           pool.data(), patches * 16);
        });
        g_sink += den[1];

        // Batched int16 SoA SSD, window-row-sized runs.
        record([&] {
            int32_t out[64];
            for (int it = 0; it < iters; ++it)
                for (int i = 0; i + 64 <= patches; i += 64) {
                    k.ssdSoaBatchI16(pool_i16.data(),
                                     soa_planes_i16.data(),
                                     static_cast<size_t>(i), 16, 64, out);
                    g_sink += static_cast<float>(out[0] + out[63]);
                }
        });

        // Pair-interleaved int16 batch SSD: the BM1 inner loop, where
        // madd against a broadcast reference pair yields per-candidate
        // sums with no unpack/permute.
        record([&] {
            int32_t out[64];
            for (int it = 0; it < iters; ++it)
                for (int i = 0; i + 64 <= patches; i += 64) {
                    k.ssdPairBatchI16(pool_i16.data(),
                                      pair_planes_i16.data(),
                                      static_cast<size_t>(i), 16, 64,
                                      out);
                    g_sink += static_cast<float>(out[0] + out[63]);
                }
        });

        // Int16 folded forward DCT per patch.
        record([&] {
            for (int it = 0; it < iters; ++it)
                for (int i = 0; i < patches; ++i)
                    k.dct4ForwardI16(pool_i16.data() + 16 * i,
                                     scratch_i16.data() + 16 * i, dctmQ,
                                     dctmQ, plan.shift1, plan.shift2);
        });
        g_sink += static_cast<float>(scratch_i16[0]);

        // Fused group-major denoise kernels (DESIGN §12), one call per
        // 16-deep group tile. The inputs are refreshed per iteration:
        // the shrinkage mutates its tile in place, and feeding the
        // Wiener kernel its own output (w < 1) would drive the values
        // subnormal within a few dozen iterations, so the microcoded
        // subnormal handling, not the kernel, would dominate.
        record([&] {
            for (int it = 0; it < iters; ++it) {
                std::copy(pool.begin(), pool.end(), scratch.begin());
                for (int g = 0; g < groups; ++g)
                    g_sink += static_cast<float>(k.haarShrinkFused(
                        scratch.data() + 256 * g, 16, 16, 8.0f));
            }
        });

        record([&] {
            for (int it = 0; it < iters; ++it) {
                std::copy(pool.begin(), pool.end(), scratch.begin());
                std::copy(pool.begin(), pool.end(),
                          basic_tiles.begin());
                for (int g = 0; g < groups; ++g)
                    g_sink += static_cast<float>(k.wienerShrinkFused(
                        scratch.data() + 256 * g,
                        basic_tiles.data() + 256 * g, wtile.data(), 16,
                        16, 625.0f));
            }
        });

        record([&] {
            for (int it = 0; it < iters; ++it)
                for (int g = 0; g < groups; ++g)
                    k.aggregateGroup(plane_num.data(), plane_den.data(),
                                     64, pool.data() + 256 * g, glx, gly,
                                     16, 0.25f, dctm, dctm);
        });
        g_sink += plane_num[0] + plane_den[0];

        record([&] {
            for (int it = 0; it < iters; ++it) {
                std::copy(pool_i16.begin(), pool_i16.end(),
                          scratch_i16.begin());
                for (int g = 0; g < groups; ++g)
                    g_sink += static_cast<float>(k.haarShrinkFusedI16(
                        scratch_i16.data() + 256 * g, 16, 16, 135,
                        23170));
            }
        });

        // The SoA SSD window scan: consecutive 64-candidate runs, the
        // loop shape BlockMatcher runs over one window row.
        record([&] {
            float out[64];
            for (int it = 0; it < iters; ++it)
                for (int i = 0; i + 64 <= patches; i += 64) {
                    k.ssdSoaBatch(pool.data(), soa_planes.data(),
                                  static_cast<size_t>(i), 16, 64, out);
                    g_sink += out[0] + out[63];
                }
        });

        // The search rows dispatch through the active level.
        const simd::Level active = simd::activeLevel();
        simd::setLevel(level);
        record([&] { bm_searches(bm_f32, 13, step13); });
        record([&] { bm_searches(bm_f32, 49, step49); });
        record([&] { bm_searches(bm_i16, 13, step13); });
        record([&] { bm_searches(bm_i16, 49, step49); });
        simd::setLevel(active);
    }

    for (const Timing &r : rows) {
        std::vector<std::string> cells = {r.kernel};
        for (double ms : r.ms)
            cells.push_back(bench::fmt(ms, 2));
        bench::printRow(cells, widths);
    }
    std::printf("(total ms per kernel for %d x %d calls; sink=%g)\n",
                iters, patches, static_cast<double>(g_sink));

    rec.wallTimeS = msSince(t_total) / 1e3;
    rec.write();
    return 0;
}
