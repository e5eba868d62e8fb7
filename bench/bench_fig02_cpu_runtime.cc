/**
 * @file
 * Fig. 2: CPU runtime for images up to 16 MP, for the reference
 * ("Orig"), non-optimized ("Basic"), optimized ("Vect") and ARM
 * implementations. Host rates are measured on a probe image and
 * extrapolated linearly in megapixels (BM3D work per pixel is
 * constant); the ARM series uses the paper's measured 5.2x ratio.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench/common.h"
#include "bm3d/bm3d.h"
#include "bm3d/presets.h"
#include "simd/simd.h"

using namespace ideal;
using bench::baselines;
using bench::fmt;

namespace {

/** FNV-1a over the float bit patterns: bitwise output equality. */
uint64_t
hashImage(const image::ImageF &img)
{
    uint64_t h = 1469598103934665603ull;
    for (float v : img.raw()) {
        uint32_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        for (int b = 0; b < 4; ++b) {
            h ^= (bits >> (8 * b)) & 0xffu;
            h *= 1099511628211ull;
        }
    }
    return h;
}

/**
 * One directly-timed denoise of the standard street probe (512 px
 * under IDEAL_BENCH_SCALE=full, else 256 px), recorded to
 * BENCH_fig02_cpu_runtime.json. This is the datapoint the PR-to-PR
 * regression check tracks: absolute seconds on one scene, per-step
 * kernel times, and quality, tagged with the SIMD level actually
 * dispatched.
 */
void
recordProbe()
{
    const int size = bench::fullScale() ? 512 : 256;
    image::ImageF clean = image::makeScene(image::SceneKind::Street,
                                           size, size, 1, 5000);
    image::ImageF noisy = image::addGaussianNoise(clean, 25.0f, 5001);

    bm3d::Bm3dConfig cfg;
    cfg.sigma = 25.0f;
    bm3d::Bm3d denoiser(cfg);
    const auto start = std::chrono::steady_clock::now();
    bm3d::Bm3dResult result = denoiser.denoise(noisy);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();

    bench::BenchRecord rec;
    rec.name = "fig02_cpu_runtime";
    rec.wallTimeS = wall;
    rec.requestedThreads = cfg.numThreads;
    rec.metrics["probe_px"] = size;
    rec.metrics["psnr_db"] = image::psnrDb(clean, result.output);
    rec.metrics["ssim"] = image::ssim(clean, result.output);
    rec.tagThreads("psnr_db", cfg.numThreads);
    rec.tagThreads("ssim", cfg.numThreads);
    rec.addProfile(result.profile);
    std::printf("probe: %dx%d street sigma 25 in %.2f s (simd=%s)\n",
                size, size, wall,
                simd::toString(simd::activeLevel()));

    // Int16 matching datapath head-to-head on the same probe at 8
    // threads: matching dominates the wall (BM1 + BM2 ~ 76%), so the
    // quantized SSD path must show up as an end-to-end speedup, and
    // the quality cost must stay within the fig09-style SNR envelope.
    // Min-of-3 alternating reps, for the same reason bench_micro_
    // kernels runs best-of-5: a single pass on a shared host jitters
    // well past the margins the regression gates track, and the
    // minimum is the stable estimator of the ratio.
    cfg.numThreads = 8;
    bm3d::Bm3d float_t8(cfg);
    cfg.precision = bm3d::Precision::Int16;
    bm3d::Bm3d int16_t8(cfg);
    double float_wall = 1e300;
    double int16_wall = 1e300;
    bm3d::Bm3dResult rf;
    bm3d::Bm3dResult rq;
    for (int rep = 0; rep < 3; ++rep) {
        auto t0 = std::chrono::steady_clock::now();
        rf = float_t8.denoise(noisy);
        float_wall = std::min(
            float_wall, std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count());
        t0 = std::chrono::steady_clock::now();
        rq = int16_t8.denoise(noisy);
        int16_wall = std::min(
            int16_wall, std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count());
    }

    const double snr_delta = image::snrDb(clean, rq.output) -
                             image::snrDb(clean, rf.output);
    rec.metrics["float_t8_wall_s"] = float_wall;
    rec.metrics["int16_t8_wall_s"] = int16_wall;
    rec.metrics["int16_speedup"] = float_wall / int16_wall;
    rec.metrics["snr_delta_db"] = snr_delta;
    // The headline record above ran at the probe config's width; these
    // head-to-head rows ran at 8 workers — tag them so bench_diff.py
    // never compares them against a different-width run.
    for (const char *row : {"float_t8_wall_s", "int16_t8_wall_s",
                            "int16_speedup", "snr_delta_db"})
        rec.tagThreads(row, 8);
    std::printf("int16 t8: float %.2f s, int16 %.2f s (%.2fx), "
                "dSNR %+.3f dB\n",
                float_wall, int16_wall, float_wall / int16_wall,
                snr_delta);

    // Ablation rows over the adaptive matching variants (DESIGN §11),
    // all at 8 threads on the same probe; render with
    // `scripts/bench_diff.py --ablation-table`. The dense/int16 rows
    // reuse the head-to-head measurements above. The "mr" row exists
    // because earlier records showed bm3d.mr.bm1Hits == 0, which
    // confused a reader into suspecting a broken counter: this bench
    // simply never enabled Matches Reuse, and hits are *defined* as 0
    // with the feature off (Bm3dMr.RegistryReportsNonzeroHitsWhenEnabled
    // pins the positive half). The row keeps MR's operating point
    // measured — and its hit counters nonzero — without making it the
    // probe's default config.
    const double dense_snr = image::snrDb(clean, rf.output);
    auto ablate = [&](const char *name, double row_wall,
                      const bm3d::Bm3dResult &r) {
        const std::string prefix = std::string("ablate_") + name + "_";
        const double bm1 = r.profile.seconds(bm3d::Step::Bm1) * 1e3;
        const double bm2 = r.profile.seconds(bm3d::Step::Bm2) * 1e3;
        rec.metrics[prefix + "wall_s"] = row_wall;
        rec.metrics[prefix + "bm1_ms"] = bm1;
        rec.metrics[prefix + "bm2_ms"] = bm2;
        rec.metrics[prefix + "de1_ms"] =
            r.profile.seconds(bm3d::Step::De1) * 1e3;
        rec.metrics[prefix + "de2_ms"] =
            r.profile.seconds(bm3d::Step::De2) * 1e3;
        rec.metrics[prefix + "snr_delta_db"] =
            image::snrDb(clean, r.output) - dense_snr;
        for (const char *col :
             {"wall_s", "bm1_ms", "bm2_ms", "de1_ms", "de2_ms",
              "snr_delta_db"})
            rec.tagThreads(prefix + col, 8);
        return bm1 + bm2;
    };
    auto timeVariant = [&](const bm3d::Bm3dConfig &vcfg,
                           double &best_wall) {
        bm3d::Bm3d engine(vcfg);
        bm3d::Bm3dResult best;
        best_wall = 1e300;
        for (int rep = 0; rep < 3; ++rep) {
            const auto t0 = std::chrono::steady_clock::now();
            bm3d::Bm3dResult r = engine.denoise(noisy);
            const double w = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();
            if (w < best_wall) {
                best_wall = w;
                best = std::move(r);
            }
        }
        return best;
    };

    bm3d::Bm3dConfig base8;
    base8.sigma = 25.0f;
    base8.numThreads = 8;

    bm3d::Bm3dConfig mr_cfg = base8;
    mr_cfg.mr.enabled = true;
    mr_cfg.mr.k = 0.5;

    bm3d::Bm3dConfig ad_cfg = base8;
    ad_cfg.precision = bm3d::Precision::Int16;
    ad_cfg.variant.adaptiveBound = true;
    ad_cfg.variant.boundMargin = 2.0f;

    bm3d::Bm3dConfig co_cfg = base8;
    co_cfg.precision = bm3d::Precision::Int16;
    co_cfg.variant.coarseToFine = true;
    co_cfg.variant.coarseStride = 2;
    co_cfg.variant.densifyThreshold = 0.05f;

    const bm3d::ScenePreset preset = bm3d::pickPreset(noisy);
    bm3d::Bm3dConfig pr_cfg = bm3d::applyPreset(base8, preset);

    ablate("dense", float_wall, rf);
    const double int16_bm = ablate("int16", int16_wall, rq);
    double wall_v = 0.0;
    ablate("mr", wall_v, timeVariant(mr_cfg, wall_v));
    ablate("adaptive", wall_v, timeVariant(ad_cfg, wall_v));
    const double coarse_bm =
        ablate("coarse", wall_v, timeVariant(co_cfg, wall_v));
    const double preset_bm =
        ablate("preset", wall_v, timeVariant(pr_cfg, wall_v));

    // Row-band streaming schedule on (DESIGN §15): the contract is
    // bitwise-identical output to the stage-major dense row — recorded
    // as band_hash_match so the CI band-smoke step can assert it — at
    // a fraction of the coefficient-field footprint (mem.peakBandBytes
    // in the gauges snapshot, gated by --mem-tolerance).
    bm3d::Bm3dConfig band_cfg = base8;
    band_cfg.band.enabled = true;

    const bm3d::Bm3dResult r_band = timeVariant(band_cfg, wall_v);
    ablate("band", wall_v, r_band);
    rec.metrics["band_hash_match"] =
        hashImage(r_band.output) == hashImage(rf.output) ? 1.0 : 0.0;
    rec.tagThreads("band_hash_match", 8);

    rec.write();
    std::printf("band: hash match=%d (banded vs stage-major, must be 1)\n",
                rec.metrics["band_hash_match"] == 1.0 ? 1 : 0);
    std::printf("ablation: preset=%s; BM1+BM2 vs int16: coarse %.2fx, "
                "preset %.2fx\n\n",
                bm3d::toString(preset), int16_bm / coarse_bm,
                int16_bm / preset_bm);
}

} // namespace

int
main()
{
    bench::printHeader("Fig. 2", "CPU runtime vs resolution (<= 16 MP)");

    recordProbe();

    const double basic = baselines().rate(baseline::Platform::CpuBasic)
                             .secondsPerMp;
    const double vect =
        baselines().rate(baseline::Platform::CpuVect).secondsPerMp;
    const double arm =
        baselines().rate(baseline::Platform::ArmVect).secondsPerMp;
    // Paper Sec. 3.1: "Orig" (Intel's reference binary) performs like
    // the vectorized implementation.
    const double orig = vect;

    std::printf("host rates (s/MP): basic=%.1f vect=%.1f arm=%.1f\n\n",
                basic, vect, arm);

    std::vector<int> widths = {8, 12, 12, 12, 12};
    bench::printRow({"MP", "Orig(s)", "Basic(s)", "Vect(s)", "ARM(s)"},
                    widths);
    for (double mp : {1.0, 2.0, 4.0, 8.0, 12.0, 16.0}) {
        bench::printRow({fmt(mp, 0), fmt(orig * mp, 0),
                         fmt(basic * mp, 0), fmt(vect * mp, 0),
                         fmt(arm * mp, 0)},
                        widths);
    }

    std::printf(
        "\npaper: 16 MP takes ~1400 s on the Xeon ('Vect'), with 'Basic'\n"
        "slower and 'ARM Vect' 5.2x slower; all series are linear in MP.\n"
        "Basic/Vect ratio here = %.2fx. The paper's contrast is hand-\n"
        "vectorized AVX vs scalar; our single code base is auto-\n"
        "vectorized either way, so 'Basic' (no early termination) can\n"
        "land within measurement noise of 'Vect' on some hosts. The\n"
        "figure's load-bearing content - hundreds to thousands of\n"
        "seconds per image, linear in MP - reproduces regardless.\n",
        basic / vect);
    return 0;
}
