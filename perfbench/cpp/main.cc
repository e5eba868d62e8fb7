/**
 * @file
 * Closed-loop benchmark program: runs one workload (photo, video or
 * service) through the public APIs of bm3d, runtime and service, and
 * writes a raw run record (per-request samples,
 * deterministic counts, per-layer raw values, output checks) as JSON
 * for run.py to reduce. See perfbench/README.md for the workloads,
 * metrics and thread budget.
 *
 *   perfbench --workload NAME --seed N --seconds S --out RECORD.json
 *             [--trace TRACE.json] [--setup-only]
 *
 * Every input is generated from --seed. The timed phase calls only
 * public library functions; tracing (--trace) records spans around
 * those calls from this file, never inside the library.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include <sched.h>

#include "bm3d/bm3d.h"
#include "image/metrics.h"
#include "image/noise.h"
#include "image/synthetic.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/pool.h"
#include "parallel/tiles.h"
#include "runtime/stream.h"
#include "service/service.h"
#include "simd/simd.h"
#include "transforms/dct.h"

#include "json.h"

namespace {

using namespace ideal;
using Clock = std::chrono::steady_clock;
using perfbench::JsonObject;
using perfbench::jsonNums;
using perfbench::jsonStr;

/// Taken during static initialisation, before main(): setup_s counts
/// from here.
const Clock::time_point g_processStart = Clock::now();

double
since(Clock::time_point from, Clock::time_point to = Clock::now())
{
    return std::chrono::duration<double>(to - from).count();
}

double
atSec(Clock::time_point t)
{
    return since(g_processStart, t);
}

/// Independent stream of seeds: (workload seed, purpose, index).
uint64_t
subSeed(uint64_t seed, uint64_t stream, uint64_t index)
{
    image::SplitMix64 r(seed ^ (stream * 0x9e3779b97f4a7c15ULL) ^
                        (index * 0xc2b2ae3d27d4eb4fULL));
    r.next();
    return r.next();
}

uint64_t
hashImage(const image::ImageF &img)
{
    uint64_t h = 1469598103934665603ULL;
    const auto *p = reinterpret_cast<const unsigned char *>(img.plane(0));
    const size_t n = img.planeSize() * img.channels() * sizeof(float);
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ULL;
    }
    return h;
}

/// Peak resident set (VmHWM) in MB of 10^6 bytes.
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) * 1024.0 / 1e6;
    }
    return 0.0;
}

/// Busy-thread budget: the CPUs this process may run on (what
/// `nproc` reports).
int
cpuBudget()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0)
        return CPU_COUNT(&set);
    return parallel::hardwareThreads();
}

int
pingPong(int v, int range)
{
    if (range <= 0)
        return 0;
    const int m = v % (2 * range);
    return m < range ? m : 2 * range - m;
}

/// The content kinds mixed into every photo request and video clip,
/// each with its denoised-PSNR floor at sigma 25 for a 64 x 64 quadrant:
/// a failing output check, not a quality target (psnr_db gates
/// quality). Over 1080 quadrants of each kind from ten seeds the mean,
/// standard deviation and lowest were 30.83 / 0.18 / 30.28 dB (nature),
/// 30.85 / 0.78 / 28.90 (street), 30.33 / 0.71 / 28.99 (texture) and
/// 21.40 / 0.09 / 21.09 (detail, which BM3D barely improves on the
/// ~20.2 dB noisy input).
struct SceneClass
{
    image::SceneKind kind;
    double floorDb;
};
const SceneClass kScenes[] = {
    {image::SceneKind::Nature, 29.0},
    {image::SceneKind::Street, 27.0},
    {image::SceneKind::Texture, 27.0},
    {image::SceneKind::Detail, 20.8},
};
constexpr int kNumScenes = static_cast<int>(std::size(kScenes));

/// Side of the square scene tiles every input is made of.
constexpr int kTile = 64;

/// Scene class of tile (@p tx, @p ty) of a mosaic whose kinds start at
/// @p rotate. One tile right or two down is the next kind, so every
/// 2 x 2 block of tiles holds all four kinds and a window panning
/// across the mosaic always sees the same mix (a plain row-major
/// rotation makes vertical stripes of one kind when a row holds a
/// multiple of four tiles).
const SceneClass &
tileScene(int64_t rotate, int tx, int ty)
{
    return kScenes[(rotate + tx + 2 * ty) % kNumScenes];
}

/**
 * A w x h mosaic of kTile x kTile scenes, one content kind per tile
 * (see tileScene), tile q seeded from (seed, stream, first + q). Many
 * small independent scenes keep the content mix, and with it the work
 * and the output PSNR, nearly the same from one input or seed to the
 * next. With one large strip per kind a video clip's mean PSNR spread
 * 0.8 % (quartile distance over median) over eight seeds; the mosaic's
 * spread 0.17 % over six.
 */
image::ImageF
mosaic(int w, int h, int c, int64_t rotate, uint64_t seed, uint64_t stream,
       uint64_t first)
{
    image::ImageF out(w, h, c);
    const int cols = (w + kTile - 1) / kTile, rows = (h + kTile - 1) / kTile;
    for (int q = 0; q < cols * rows; ++q) {
        const int tx = q % cols, ty = q / cols;
        const int x0 = tx * kTile, y0 = ty * kTile;
        const image::ImageF part =
            image::makeScene(tileScene(rotate, tx, ty).kind, kTile, kTile, c,
                             subSeed(seed, stream, first + q));
        for (int ch = 0; ch < c; ++ch)
            for (int y = y0; y < std::min(h, y0 + kTile); ++y)
                for (int x = x0; x < std::min(w, x0 + kTile); ++x)
                    out.at(x, y, ch) = part.at(x - x0, y - y0, ch);
    }
    return out;
}

/**
 * Span of the traced run around one call into the library, recorded on
 * the run's private obs::Tracer (the library's global tracer stays
 * off). Its one argument is the request id, or for a SIMD loop the
 * number of kernel calls it covers; a reader derives each span's parent
 * from the nesting.
 */
class Span
{
  public:
    Span(obs::Tracer &tracer, const char *name, const char *key, double value)
        : tracer_(tracer), name_(name)
    {
        tracer_.begin(name_, "perfbench", key, value);
    }
    ~Span() { tracer_.end(name_, "perfbench"); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    obs::Tracer &tracer_;
    const char *name_;
};

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    std::string out;
    std::string trace;
    bool setupOnly = false;
};

/// One request as the generator saw it.
struct Req
{
    int sess = 0;     ///< tenant / class index
    char phase = 'w'; ///< w = warm-up, t = timed, d = drained after deadline
    int64_t index = 0; ///< request index within its session
    double s = 0.0;   ///< submit (or call start), s since process start
    double c = 0.0;   ///< collect (or call end), s since process start
    double ms = 0.0;  ///< latency as the library or the call reports it
    double px = 0.0;  ///< pixels of the frame
    double psnr = 0.0;
    bool ok = true;
};

/// Accumulated deterministic counts of a fixed request set.
struct OpTotals
{
    double arith = 0, bytes = 0, cand1 = 0, cand2 = 0, refs1 = 0,
           refs2 = 0, px = 0;

    void
    add(const bm3d::Profile &p, double pixels)
    {
        const bm3d::OpCounters o = p.totalOps();
        arith += static_cast<double>(o.multiplies + o.additions +
                                     o.comparisons);
        bytes += static_cast<double>(o.memoryReads + o.memoryWrites) *
                 sizeof(float);
        cand1 += static_cast<double>(p.mr().bm1Candidates);
        cand2 += static_cast<double>(p.mr().bm2Candidates);
        refs1 += static_cast<double>(p.mr().bm1Refs);
        refs2 += static_cast<double>(p.mr().bm2Refs);
        px += pixels;
    }

    void
    exportTo(std::map<std::string, double> &det) const
    {
        const double mp = px / 1e6;
        det["bm3d.ops_per_mp"] = arith / mp;
        det["bm3d.bytes_per_mp"] = bytes / mp;
        det["bm3d.ops_per_byte"] = bytes > 0 ? arith / bytes : 0.0;
        det["bm3d.bm1_candidates_per_ref"] = refs1 > 0 ? cand1 / refs1 : 0;
        det["bm3d.bm2_candidates_per_ref"] = refs2 > 0 ? cand2 / refs2 : 0;
    }
};

/// Per-step seconds of a profile window, as ms per megapixel.
void
exportStepTimes(std::map<std::string, double> &layer,
                const bm3d::Profile &after, const bm3d::Profile *before,
                double mp)
{
    static const std::pair<bm3d::Step, const char *> kSteps[] = {
        {bm3d::Step::Dct1, "bm3d.dct1_ms_per_mp"},
        {bm3d::Step::Bm1, "bm3d.bm1_ms_per_mp"},
        {bm3d::Step::De1, "bm3d.de1_ms_per_mp"},
        {bm3d::Step::Bm2, "bm3d.bm2_ms_per_mp"},
        {bm3d::Step::Dct2, "bm3d.dct2_ms_per_mp"},
        {bm3d::Step::De2, "bm3d.de2_ms_per_mp"},
    };
    for (const auto &[step, name] : kSteps) {
        const double s =
            after.seconds(step) - (before ? before->seconds(step) : 0.0);
        layer[name] = mp > 0 ? s * 1e3 / mp : 0.0;
    }
}

/** Shared state and output of one workload run. */
struct Run
{
    Args args;
    obs::Tracer tracer; ///< records only with --trace
    int nproc = cpuBudget();

    std::vector<std::string> sessions{"all"};
    int hiSession = 0;
    std::vector<int> inFlightBound{1};
    int warmupNeed = 1; ///< completions per session before timing

    std::vector<Req> reqs;
    double t0 = 0.0;       ///< first timed request = setup_s
    double tEnd = 0.0;     ///< last completion inside the window
    double deadline = 0.0; ///< t0 + seconds
    double peakRss = 0.0;

    std::vector<std::string> failures;
    std::vector<std::tuple<std::string, bool, std::string>> checks;
    std::map<std::string, double> det;
    std::map<std::string, double> layer;
    std::map<std::string, double> threads;

    explicit Run(const Args &a) : args(a)
    {
        if (!a.trace.empty())
            tracer.start(a.trace);
    }

    bool traced() const { return tracer.enabled(); }

    /// Span of request @p req around a call (a string-literal name).
    [[nodiscard]] Span
    span(const char *name, int64_t req)
    {
        return Span(tracer, name, "req", static_cast<double>(req));
    }

    /// Span around a loop of @p n kernel calls.
    [[nodiscard]] Span
    calls(const char *name, int64_t n)
    {
        return Span(tracer, name, "calls", static_cast<double>(n));
    }

    void
    check(const std::string &name, bool ok, const std::string &detail)
    {
        checks.emplace_back(name, ok, detail);
    }

    void
    startTimed()
    {
        const auto now = Clock::now();
        t0 = atSec(now);
        deadline = t0 + args.seconds;
    }

    /// Record a finished (or refused) request. peak_rss_mb is read
    /// when the kRssAt-th timed request completes: the same work in
    /// every run, whatever --seconds and the host's speed.
    void
    add(const Req &r)
    {
        reqs.push_back(r);
        if (r.phase != 't' || !r.ok)
            return;
        if (++timedDone == kRssAt)
            peakRss = peakRssMb();
        if (r.sess == hiSession)
            ++timedHi;
    }

    /**
     * Whether the timed phase goes on: for --seconds, and past that
     * until the highest priority class has kMinTimed timed samples, so
     * the p90s always have ten samples beyond them on a slow host.
     */
    bool
    keepTiming() const
    {
        return atSec(Clock::now()) < deadline || timedHi < kMinTimed;
    }

    static constexpr int kMinTimed = 100;
    static constexpr int kRssAt = kMinTimed;
    int timedDone = 0;
    int timedHi = 0;
};

image::ImageF
noisyCopy(Run &run, const image::ImageF &clean, uint64_t seed, int64_t req)
{
    auto sp = run.span("image.addGaussianNoise", req);
    return image::addGaussianNoise(clean, 25.0f, seed);
}

// ---------------------------------------------------------------------
// SIMD micro timings (traced run only): ns per call of the active
// kernel table's entries, out of place, on patches cut from a frame of
// the workload.

volatile float g_sink = 0.0f;

void
microKernels(Run &run, const image::ImageF &frame)
{
    const simd::KernelTable &k = simd::kernels();
    const int W = frame.width(), H = frame.height();
    const float *src = frame.plane(0);

    // 4x4 patches at x-stride 1, y-stride 4, wrapping over the frame.
    const int n = 16384; // patches (1 MB of floats), multiple of 256
    std::vector<float> pool(static_cast<size_t>(n) * 16);
    for (int i = 0; i < n; ++i) {
        const int cols = W - 3;
        const int x = i % cols;
        const int y = (4 * (i / cols)) % (H - 3);
        for (int r = 0; r < 4; ++r)
            for (int c = 0; c < 4; ++c)
                pool[static_cast<size_t>(i) * 16 + r * 4 + c] =
                    src[static_cast<size_t>(y + r) * W + x + c];
    }
    // Coefficient-major (SoA) view of the same patches.
    std::vector<std::vector<float>> soa(16, std::vector<float>(n));
    std::vector<const float *> planes(16);
    for (int c = 0; c < 16; ++c) {
        for (int i = 0; i < n; ++i)
            soa[c][i] = pool[static_cast<size_t>(i) * 16 + c];
        planes[c] = soa[c].data();
    }
    transforms::Dct2D dct(4);
    float fe[4], fo[4];
    for (int r = 0; r < 2; ++r)
        for (int c = 0; c < 2; ++c) {
            fe[r * 2 + c] = dct.coefficient(2 * r, c);
            fo[r * 2 + c] = dct.coefficient(2 * r + 1, c);
        }
    const float *ie = dct.invEvenHalf();
    const float *io = dct.invOddHalf();

    std::vector<float> out(pool.size()), scratch(pool.size()),
        basic(pool.size()), wtile(256);
    std::vector<float> num(64 * 64, 0.0f), den(64 * 64, 0.0f);
    int lx[16], ly[16];
    for (int i = 0; i < 16; ++i) {
        lx[i] = (i * 7) % 60;
        ly[i] = (i * 11) % 60;
    }
    const int groups = n / 16;
    const int reps = 5;

    auto sp = run.span("simd.micro", -1);
    for (int rep = 0; rep < reps; ++rep) {
        {
            const int iters = 4;
            auto s = run.calls("simd.ssd_soa_batch",
                               static_cast<int64_t>(iters) * (n / 64));
            float res[64];
            for (int it = 0; it < iters; ++it)
                for (int i = 0; i + 64 <= n; i += 64) {
                    k.ssdSoaBatch(pool.data() + 16 * (it % 16), planes.data(),
                                  static_cast<size_t>(i), 16, 64, res);
                    g_sink = g_sink + res[0] + res[63];
                }
        }
        {
            auto s = run.calls("simd.dct4_fwd", n);
            for (int i = 0; i < n; ++i)
                k.dct4Forward(pool.data() + 16 * i, out.data() + 16 * i, fe,
                              fo);
            g_sink = g_sink + out[5];
        }
        {
            auto s = run.calls("simd.dct4_inv", n);
            for (int i = 0; i < n; ++i)
                k.dct4Inverse(pool.data() + 16 * i, scratch.data() + 16 * i,
                              ie, io);
            g_sink = g_sink + scratch[5];
        }
        std::copy(pool.begin(), pool.end(), scratch.begin());
        {
            auto s = run.calls("simd.haar_shrink_fused", groups);
            for (int g = 0; g < groups; ++g)
                g_sink = g_sink + static_cast<float>(k.haarShrinkFused(
                                      scratch.data() + 256 * g, 16, 16,
                                      25.0f * 2.7f));
        }
        std::copy(pool.begin(), pool.end(), scratch.begin());
        std::copy(pool.begin(), pool.end(), basic.begin());
        {
            auto s = run.calls("simd.wiener_shrink_fused", groups);
            for (int g = 0; g < groups; ++g)
                g_sink = g_sink + static_cast<float>(k.wienerShrinkFused(
                                      scratch.data() + 256 * g,
                                      basic.data() + 256 * g, wtile.data(),
                                      16, 16, 625.0f));
        }
        {
            auto s = run.calls("simd.aggregate_group", groups);
            for (int g = 0; g < groups; ++g)
                k.aggregateGroup(num.data(), den.data(), 64,
                                 pool.data() + 256 * g, lx, ly, 16, 0.25f,
                                 ie, io);
            g_sink = g_sink + num[0] + den[0];
        }
    }
}

// ---------------------------------------------------------------------
// photo: one Bm3d::denoise in flight at the library defaults.

void
runPhoto(Run &run)
{
    const int W = 128, H = 128, C = 3;
    const int width = run.nproc;
    bm3d::Bm3dConfig cfg; // library defaults: both stages, 49/39, 16
    cfg.numThreads = width;
    const bm3d::Bm3d engine(cfg);
    run.threads["photo.numThreads"] = width;
    run.warmupNeed = 8; // two turns of the quadrant rotation
    const uint64_t seed = run.args.seed;

    auto makeInput = [&](int64_t i, image::ImageF &clean) {
        {
            auto sp = run.span("image.makeScene", i);
            clean = mosaic(W, H, C, i, seed, 1, 4 * i);
        }
        return noisyCopy(run, clean, subSeed(seed, 2, i), i);
    };

    // Requests 0..kDet-1, warm-up or timed, are behind psnr_db and the
    // exact counts.
    const int kDet = 100;
    OpTotals det;
    double detPsnr = 0.0;
    int detN = 0;
    bm3d::Profile timedProfile;
    double timedCallS = 0.0, timedPx = 0.0;
    int64_t lastTimed = -1;
    uint64_t lastHash = 0;

    auto one = [&](int64_t i, char phase) {
        auto root = run.span("request", i);
        image::ImageF clean;
        const image::ImageF noisy = makeInput(i, clean);
        Req r;
        r.phase = phase;
        r.index = i;
        r.px = W * H;
        bm3d::Bm3dResult res;
        const auto s = Clock::now();
        try {
            auto sp = run.span("bm3d.denoise", i);
            res = engine.denoise(noisy);
        } catch (const std::exception &e) {
            r.ok = false;
            run.failures.push_back(std::string("denoise: ") + e.what());
        }
        const auto c = Clock::now();
        r.s = atSec(s);
        r.c = atSec(c);
        r.ms = since(s, c) * 1e3;
        if (r.ok) {
            r.psnr = image::psnrDb(clean, res.output);
            for (int q = 0; q < 4; ++q) { // the 2 x 2 mosaic tiles
                const int x0 = (q % 2) * kTile, y0 = (q / 2) * kTile;
                const double p =
                    image::psnrDb(clean.crop(x0, y0, kTile, kTile),
                                  res.output.crop(x0, y0, kTile, kTile));
                if (!(p >= tileScene(i, q % 2, q / 2).floorDb)) {
                    r.ok = false;
                    run.failures.push_back(
                        "photo request " + std::to_string(i) + " quadrant " +
                        std::to_string(q) + " PSNR " + std::to_string(p) +
                        " below its floor");
                }
            }
        }
        if (r.ok && i < kDet) {
            det.add(res.profile, r.px);
            detPsnr += r.psnr;
            ++detN;
        }
        if (phase == 't' && r.ok) {
            timedProfile += res.profile;
            timedCallS += since(s, c);
            timedPx += r.px;
            lastTimed = i;
            lastHash = hashImage(res.output);
        }
        run.add(r);
    };

    int64_t i = 0;
    while (i < run.warmupNeed ||
           parallel::ThreadPool::global().workerCount() < width - 1)
        one(i++, 'w');
    run.startTimed();
    if (run.args.setupOnly)
        return;
    while (run.keepTiming())
        one(i++, 't');
    run.tEnd = run.reqs.back().c;
    run.threads["pool.workers"] =
        parallel::ThreadPool::global().workerCount();

    if (detN < kDet)
        run.failures.push_back("fewer than 100 good photo requests");
    det.exportTo(run.det);
    run.det["psnr_db"] = detN > 0 ? detPsnr / detN : 0.0;
    const int nx = static_cast<int>(
        bm3d::makeRefPositions(W - cfg.patchSize, cfg.refStride).size());
    const int ny = static_cast<int>(
        bm3d::makeRefPositions(H - cfg.patchSize, cfg.refStride).size());
    run.det["parallel.tiles_per_request"] =
        static_cast<double>(parallel::makeTiles(nx, ny, cfg.tileGrain).size() *
                            (cfg.enableWiener ? 2 : 1));

    const double mp = timedPx / 1e6;
    exportStepTimes(run.layer, timedProfile, nullptr, mp);
    run.layer["bm3d.unattributed_ms_per_mp"] =
        mp > 0 ? (width * timedCallS - timedProfile.totalSeconds()) * 1e3 / mp
               : 0.0;
    run.layer["bm3d.peak_field_mb"] =
        obs::MetricsRegistry::global().snapshot().value(
            "mem.peakFieldBytes") / 1e6;

    // Output check: the last timed request re-run at width 1 is
    // bitwise equal. Its width-1 time over a width-`width` re-run right
    // after is the parallel speedup.
    if (lastTimed >= 0) {
        bm3d::Bm3dConfig one_cfg = cfg;
        one_cfg.numThreads = 1;
        const bm3d::Bm3d single(one_cfg);
        image::ImageF clean;
        const image::ImageF noisy = makeInput(lastTimed, clean);
        auto s = Clock::now();
        const bm3d::Bm3dResult res = single.denoise(noisy);
        const double t1 = since(s);
        s = Clock::now();
        const bm3d::Bm3dResult again = engine.denoise(noisy);
        const double tw = since(s);
        run.check("photo.width1_bitwise",
                  hashImage(res.output) == lastHash &&
                      hashImage(again.output) == lastHash,
                  "request " + std::to_string(lastTimed));
        run.layer["parallel.speedup"] = t1 / tw;
        run.layer["parallel.efficiency"] = t1 / tw / width;
        if (run.traced())
            microKernels(run, noisy);
    }
}

// ---------------------------------------------------------------------
// Panning clip: frame i is a W x H window sliding across a larger
// seeded mosaic scene, with fresh noise.

struct PanClip
{
    int w = 0, h = 0, panX = 0, panY = 0, step = 4;
    image::ImageF scene;

    PanClip(Run &run, int width, int height, uint64_t seed, int64_t req)
        : w(width), h(height), panX(std::max(64, width / 4)), panY(16)
    {
        auto sp = run.span("image.makeScene", req);
        scene = mosaic(w + panX, h + panY, 1, 0, seed, 3, 0);
    }

    image::ImageF
    clean(int64_t i) const
    {
        return scene.crop(pingPong(static_cast<int>(i) * step, panX),
                          pingPong(static_cast<int>(i), panY), w, h);
    }
};

/// Video-rate per-frame profile (bench_fig15): 13x13 BM1 window,
/// reference stride 2, stage 1 only.
runtime::StreamConfig
videoRateConfig(int threads)
{
    runtime::StreamConfig sc;
    sc.frame.searchWindow1 = 13;
    sc.frame.refStride = 2;
    sc.frame.enableWiener = false;
    sc.frame.numThreads = threads;
    sc.frame.sigma = 25.0f;
    sc.seedK = 0.60;
    sc.seedWindow = 9;
    return sc;
}

// ---------------------------------------------------------------------
// video: one StreamDenoiser with its input queue kept full.

void
runVideo(Run &run)
{
    const int W = 848, H = 480;
    // nproc busy threads: the pool width plus the prepass thread.
    const int width = std::max(1, run.nproc - 1);
    runtime::StreamConfig sc = videoRateConfig(width);
    sc.temporalSeed = true;
    const int inFlight = sc.queueDepth + 2; // queue + prepass + stages
    run.inFlightBound = {inFlight};
    run.warmupNeed = 3; // arena steady baseline is taken at frame 2
    run.threads["video.numThreads"] = width;
    run.threads["video.prepassThreads"] = 1;
    const uint64_t seed = run.args.seed;

    const PanClip clip(run, W, H, seed, -1);
    auto sd = std::make_unique<runtime::StreamDenoiser>(sc);

    const int kPrefix = 4; // frames re-run by the prefix check
    const int kDet = 100;  // frames behind psnr_db
    std::vector<uint64_t> prefixHash;
    std::deque<Req> pending;
    int64_t next = 0, collected = 0;
    double detPsnr = 0.0;

    auto submit = [&](char phase) {
        auto root = run.span("request", next);
        image::ImageF clean;
        {
            auto sp = run.span("image.crop", next);
            clean = clip.clean(next);
        }
        image::ImageF noisy =
            noisyCopy(run, clean, subSeed(seed, 4, next), next);
        Req r;
        r.phase = phase;
        r.index = next;
        r.px = W * H;
        r.s = atSec(Clock::now());
        {
            auto sp = run.span("runtime.submit", next);
            sd->submit(std::move(noisy));
        }
        pending.push_back(r);
        ++next;
    };
    auto collect = [&]() {
        Req r = pending.front();
        pending.pop_front();
        auto root = run.span("request", r.index);
        image::ImageF out;
        try {
            auto sp = run.span("runtime.collect", r.index);
            out = sd->collect();
        } catch (const std::exception &e) {
            r.ok = false;
            run.failures.push_back(std::string("collect: ") + e.what());
        }
        r.c = atSec(Clock::now());
        if (r.ok) {
            r.psnr = image::psnrDb(clip.clean(r.index), out);
            // Over 750 frames from six seeds: mean 24.36 dB, standard
            // deviation 0.08, lowest 24.19.
            if (!(r.psnr >= 23.6)) {
                r.ok = false;
                run.failures.push_back("video frame " +
                                       std::to_string(r.index) +
                                       " PSNR below floor");
            }
            if (r.index < kPrefix)
                prefixHash.push_back(hashImage(out));
            if (r.index < kDet)
                detPsnr += r.psnr;
            sd->recycle(std::move(out));
        }
        ++collected;
        run.add(r);
    };

    for (int k = 0; k < inFlight; ++k)
        submit('w');
    while (collected < run.warmupNeed ||
           parallel::ThreadPool::global().workerCount() < width - 1) {
        collect();
        submit('w');
    }
    run.startTimed();
    if (run.args.setupOnly)
        return;
    const runtime::StreamStats before = sd->stats();
    while (run.keepTiming()) {
        collect();
        submit('t');
    }
    run.tEnd = run.reqs.back().c;
    const runtime::StreamStats atDeadline = sd->stats();
    // Frames still in flight at the deadline drain untimed.
    const size_t drainFrom = run.reqs.size();
    sd->finish();
    while (!pending.empty())
        collect();
    for (size_t k = drainFrom; k < run.reqs.size(); ++k)
        if (run.reqs[k].phase == 't')
            run.reqs[k].phase = 'd';
    run.threads["pool.workers"] =
        parallel::ThreadPool::global().workerCount();

    const runtime::StreamStats st = sd->stats();
    for (Req &r : run.reqs)
        r.ms = st.latenciesMs.at(static_cast<size_t>(r.index));
    run.check("video.frame_count",
              st.frames == static_cast<uint64_t>(next) &&
                  collected == next,
              std::to_string(st.frames) + " processed, " +
                  std::to_string(collected) + " collected, " +
                  std::to_string(next) + " submitted");

    const double frames = static_cast<double>(atDeadline.frames -
                                              before.frames);
    const double mp = frames * W * H / 1e6;
    exportStepTimes(run.layer, atDeadline.profile, &before.profile, mp);
    const double seedRefs =
        static_cast<double>(atDeadline.seedRefs - before.seedRefs);
    run.layer["runtime.seed_hit_ratio"] =
        seedRefs > 0
            ? static_cast<double>(atDeadline.seedHits - before.seedHits) /
                  seedRefs
            : 0.0;
    const double hits =
        static_cast<double>(atDeadline.arenaHits - before.arenaHits);
    const double misses =
        static_cast<double>(atDeadline.arenaMisses - before.arenaMisses);
    run.layer["runtime.arena_hit_ratio"] =
        hits + misses > 0 ? hits / (hits + misses) : 0.0;
    run.layer["runtime.arena_steady_bytes"] =
        static_cast<double>(st.arenaBytesNewSteady);
    run.layer["bm3d.peak_field_mb"] =
        obs::MetricsRegistry::global().snapshot().value(
            "mem.peakFieldBytes") / 1e6;
    sd.reset();

    run.det["psnr_db"] = detPsnr / kDet;
    if (next < kDet)
        run.failures.push_back("fewer than 100 video frames");

    // Prefix check: a fresh stream over the first frames reproduces
    // them bitwise and gives the exact per-MP counts.
    runtime::StreamDenoiser solo(sc);
    for (int64_t k = 0; k < kPrefix; ++k)
        solo.submit(image::addGaussianNoise(clip.clean(k), 25.0f,
                                            subSeed(seed, 4, k)));
    solo.finish();
    bool same = prefixHash.size() == static_cast<size_t>(kPrefix);
    for (int64_t k = 0; k < kPrefix; ++k) {
        const image::ImageF out = solo.collect();
        same = same && hashImage(out) == prefixHash[static_cast<size_t>(k)];
    }
    run.check("video.prefix_bitwise", same,
              std::to_string(kPrefix) + " frames vs a fresh stream");
    OpTotals ops;
    ops.add(solo.stats().profile, static_cast<double>(kPrefix) * W * H);
    ops.exportTo(run.det);
    if (run.traced())
        microKernels(run, image::addGaussianNoise(clip.clean(0), 25.0f,
                                                  subSeed(seed, 4, 0)));
}

// ---------------------------------------------------------------------
// service: six Block-policy tenants on one DenoiseService.

struct Tenant
{
    std::string name;
    int size = 0;
    service::Priority priority = service::Priority::Normal;
    double weight = 1.0;
    bool int16 = false, seed = false, wiener = false;
    /// Visits per cycle of the generator's tenant sequence. big_hi gets
    /// three so a run holds >= 100 High-priority latency samples.
    int picks = 1;
};

std::vector<Tenant>
serviceTenants()
{
    using service::Priority;
    return {
        {"big_hi", 320, Priority::High, 1.0, false, false, false, 3},
        {"big_i16", 320, Priority::Normal, 1.0, true, false, false, 1},
        {"small_lo", 160, Priority::Low, 1.0, false, false, false, 1},
        {"small_seed", 160, Priority::Normal, 1.0, false, true, false, 1},
        {"small_wiener", 160, Priority::Normal, 1.0, false, false, true, 1},
        {"small_w2", 160, Priority::Normal, 2.0, false, false, false, 1},
    };
}

runtime::StreamConfig
tenantStream(const Tenant &t)
{
    runtime::StreamConfig sc = videoRateConfig(1);
    if (t.int16)
        sc.frame.precision = bm3d::Precision::Int16;
    sc.temporalSeed = t.seed;
    sc.frame.enableWiener = t.wiener;
    return sc;
}

void
runService(Run &run)
{
    const std::vector<Tenant> tenants = serviceTenants();
    const int nt = static_cast<int>(tenants.size());
    // nproc busy threads: scheduler + dispatcher-led shard pool.
    const int shard = std::max(1, run.nproc - 1);
    service::ServiceConfig cfg;
    cfg.shardPixels = static_cast<size_t>(tenants[0].size) * tenants[0].size;
    cfg.shardThreads = shard;
    const int perTenant = 2;
    run.sessions.clear();
    run.inFlightBound.clear();
    for (const Tenant &t : tenants) {
        run.sessions.push_back(t.name);
        run.inFlightBound.push_back(perTenant);
    }
    run.hiSession = 0;
    run.warmupNeed = 3;
    run.threads["service.shardThreads"] = shard;
    run.threads["service.sessionThreads"] = 1;
    run.threads["service.scheduler"] = 1;
    run.threads["service.dispatcher"] = 1;
    const uint64_t seed = run.args.seed;

    std::vector<std::unique_ptr<PanClip>> clips;
    for (int k = 0; k < nt; ++k)
        clips.push_back(std::make_unique<PanClip>(
            run, tenants[k].size, tenants[k].size, subSeed(seed, 5, k), -1));
    auto svc = std::make_unique<service::DenoiseService>(cfg);
    std::vector<service::SessionId> ids;
    for (const Tenant &t : tenants) {
        service::SessionConfig s;
        s.name = t.name;
        s.stream = tenantStream(t);
        s.priority = t.priority;
        s.weight = t.weight;
        s.policy = service::AdmissionPolicy::Block;
        ids.push_back(svc->openSession(s));
    }

    const int kPrefix = 3, kDet = 16; // kDet frames per tenant: psnr_db
    std::vector<std::vector<uint64_t>> prefixHash(nt);
    std::vector<std::deque<Req>> pending(nt);
    std::vector<int64_t> next(nt, 0), collected(nt, 0);
    std::vector<double> detPsnr(nt, 0.0);
    auto reqId = [&](int t, int64_t i) { return i * 16 + t; };

    auto submit = [&](int t, char phase) {
        const int64_t i = next[t];
        auto root = run.span("request", reqId(t, i));
        image::ImageF clean;
        {
            auto sp = run.span("image.crop", reqId(t, i));
            clean = clips[t]->clean(i);
        }
        image::ImageF noisy = noisyCopy(run, clean, subSeed(seed, 6 + t, i),
                                        reqId(t, i));
        Req r;
        r.sess = t;
        r.phase = phase;
        r.index = i;
        r.px = static_cast<double>(tenants[t].size) * tenants[t].size;
        r.s = atSec(Clock::now());
        bool admitted = false;
        try {
            auto sp = run.span("service.submit", reqId(t, i));
            admitted = svc->submit(ids[t], std::move(noisy));
        } catch (const std::exception &e) {
            run.failures.push_back(std::string("submit: ") + e.what());
        }
        if (!admitted) {
            r.ok = false;
            run.failures.push_back("frame refused for " + tenants[t].name);
            run.add(r);
            return;
        }
        pending[t].push_back(r);
        ++next[t];
    };
    auto collect = [&](int t) {
        if (pending[t].empty()) // its last submit was refused
            return;
        Req r = pending[t].front();
        pending[t].pop_front();
        auto root = run.span("request", reqId(t, r.index));
        image::ImageF out;
        try {
            auto sp = run.span("service.collect", reqId(t, r.index));
            out = svc->collect(ids[t]);
        } catch (const std::exception &e) {
            r.ok = false;
            run.failures.push_back(std::string("collect: ") + e.what());
        }
        r.c = atSec(Clock::now());
        if (r.ok) {
            r.psnr = image::psnrDb(clips[t]->clean(r.index), out);
            // Over 2418 frames from six seeds the lowest was 23.84 dB
            // (tenant means 24.4-25.8 dB, standard deviations 0.2-0.4).
            if (!(r.psnr >= 23.0)) {
                r.ok = false;
                run.failures.push_back(tenants[t].name + " frame " +
                                       std::to_string(r.index) +
                                       " PSNR below floor");
            }
            if (r.index < kPrefix)
                prefixHash[t].push_back(hashImage(out));
            if (r.index < kDet)
                detPsnr[t] += r.psnr;
            svc->recycle(ids[t], std::move(out));
        }
        ++collected[t];
        run.add(r);
    };

    // Seeded tenant sequence: each cycle visits every tenant `picks`
    // times, in an order shuffled from the seed.
    image::SplitMix64 rng(subSeed(seed, 7, 0));
    std::vector<int> cycle;
    for (int t = 0; t < nt; ++t)
        cycle.insert(cycle.end(), static_cast<size_t>(tenants[t].picks), t);
    size_t pos = cycle.size();
    auto pick = [&]() {
        if (pos == cycle.size()) {
            for (size_t k = cycle.size() - 1; k > 0; --k)
                std::swap(cycle[k], cycle[rng.below(k + 1)]);
            pos = 0;
        }
        return cycle[pos++];
    };
    auto step = [&](char phase) {
        const int t = pick();
        collect(t);
        submit(t, phase);
    };

    for (int t = 0; t < nt; ++t)
        for (int k = 0; k < perTenant; ++k)
            submit(t, 'w');
    auto warm = [&]() {
        for (int t = 0; t < nt; ++t)
            if (collected[t] < run.warmupNeed)
                return false;
        return parallel::ThreadPool::global().workerCount() >= shard - 1;
    };
    // A fixed amount of warm-up work (three sequence cycles) keeps
    // setup_s comparable between runs; each cycle visits every tenant.
    for (size_t k = 0; k < 3 * cycle.size(); ++k)
        step('w');
    while (!warm())
        step('w');
    run.startTimed();
    if (run.args.setupOnly)
        return;
    const service::ServiceStats before = svc->stats();
    while (run.keepTiming())
        step('t');
    run.tEnd = run.reqs.back().c;
    const service::ServiceStats atDeadline = svc->stats();
    // Frames still in flight at the deadline drain untimed.
    const size_t drainFrom = run.reqs.size();
    svc->finish();
    for (int t = 0; t < nt; ++t)
        while (!pending[t].empty())
            collect(t);
    for (size_t k = drainFrom; k < run.reqs.size(); ++k)
        if (run.reqs[k].phase == 't')
            run.reqs[k].phase = 'd';
    run.threads["pool.workers"] =
        parallel::ThreadPool::global().workerCount();

    const service::ServiceStats st = svc->stats();
    for (Req &r : run.reqs)
        if (r.ok)
            r.ms = st.tenants.at(static_cast<size_t>(ids[r.sess]))
                       .latenciesMs.at(static_cast<size_t>(r.index));

    // Per-layer values over the timed window.
    double wsum = 0.0, pxTotal = 0.0, framesTotal = 0.0, framesBig = 0.0;
    std::vector<double> px(nt), ew(nt);
    double highWater = 0.0, steady = 0.0;
    bm3d::Profile all, allBefore;
    for (int t = 0; t < nt; ++t) {
        const auto &a = atDeadline.tenants[ids[t]];
        const auto &b = before.tenants[ids[t]];
        const double frames = static_cast<double>(a.frames - b.frames);
        px[t] = frames * tenants[t].size * tenants[t].size;
        pxTotal += px[t];
        framesTotal += frames;
        if (static_cast<size_t>(tenants[t].size) * tenants[t].size >=
            cfg.shardPixels)
            framesBig += frames;
        ew[t] = tenants[t].weight *
                std::pow(4.0, static_cast<int>(tenants[t].priority));
        wsum += ew[t];
        all += a.profile;
        allBefore += b.profile;
        highWater = std::max(
            highWater, static_cast<double>(st.tenants[ids[t]].queueHighWater));
        steady = std::max(steady, static_cast<double>(
                                      st.tenants[ids[t]].arenaBytesNewSteady));
        if (tenants[t].wiener) {
            const double mp = px[t] / 1e6;
            run.layer["service.wiener_bm2_ms_per_mp"] =
                mp > 0 ? (a.profile.seconds(bm3d::Step::Bm2) -
                          b.profile.seconds(bm3d::Step::Bm2)) *
                             1e3 / mp
                       : 0.0;
        }
    }
    double fairMin = 1e300;
    for (int t = 0; t < nt; ++t)
        fairMin = std::min(fairMin, (px[t] / pxTotal) / (ew[t] / wsum));
    run.layer["service.fair_share_min"] = fairMin;
    run.layer["service.queue_high_water"] = highWater;
    run.layer["service.sharded_frame_share"] =
        framesTotal > 0 ? framesBig / framesTotal : 0.0;
    run.layer["service.arena_steady_bytes"] = steady;
    exportStepTimes(run.layer, all, &allBefore, pxTotal / 1e6);
    run.layer["bm3d.peak_field_mb"] =
        obs::MetricsRegistry::global().snapshot().value(
            "mem.peakFieldBytes") / 1e6;
    svc.reset();

    double psnrSum = 0.0;
    for (int t = 0; t < nt; ++t) {
        psnrSum += detPsnr[t] / kDet;
        if (next[t] < kDet)
            run.failures.push_back("fewer than 16 frames for " +
                                   tenants[t].name);
    }
    run.det["psnr_db"] = psnrSum / nt;

    // Prefix check (DESIGN §13): each tenant's first outputs equal a
    // solo StreamDenoiser of the same StreamConfig, bitwise.
    OpTotals ops;
    for (int t = 0; t < nt; ++t) {
        runtime::StreamDenoiser solo(tenantStream(tenants[t]));
        for (int64_t k = 0; k < kPrefix; ++k)
            solo.submit(image::addGaussianNoise(clips[t]->clean(k), 25.0f,
                                                subSeed(seed, 6 + t, k)));
        solo.finish();
        bool same = prefixHash[t].size() == static_cast<size_t>(kPrefix);
        for (int64_t k = 0; k < kPrefix; ++k) {
            const image::ImageF out = solo.collect();
            same = same &&
                   hashImage(out) == prefixHash[t][static_cast<size_t>(k)];
        }
        run.check("service." + tenants[t].name + ".prefix_bitwise", same,
                  std::to_string(kPrefix) + " frames vs a solo stream");
        ops.add(solo.stats().profile, static_cast<double>(kPrefix) *
                                          tenants[t].size * tenants[t].size);
    }
    ops.exportTo(run.det);
    if (run.traced())
        microKernels(run,
                     image::addGaussianNoise(clips[0]->clean(0), 25.0f,
                                             subSeed(seed, 6, 0)));
}

// ---------------------------------------------------------------------

std::string
encodeReqs(const std::vector<Req> &reqs)
{
    std::vector<double> sess, s, c, ms, px, ok;
    std::string phase;
    for (const Req &r : reqs) {
        sess.push_back(r.sess);
        s.push_back(r.s);
        c.push_back(r.c);
        ms.push_back(r.ms);
        px.push_back(r.px);
        ok.push_back(r.ok ? 1.0 : 0.0);
        phase += r.phase;
    }
    return JsonObject()
        .raw("sess", jsonNums(sess))
        .str("phase", phase)
        .raw("s", jsonNums(s))
        .raw("c", jsonNums(c))
        .raw("ms", jsonNums(ms))
        .raw("px", jsonNums(px))
        .raw("ok", jsonNums(ok))
        .dump();
}

void
writeRecord(const Run &run)
{
    std::vector<std::string> checks;
    for (const auto &[name, ok, detail] : run.checks)
        checks.push_back(JsonObject()
                             .str("name", name)
                             .raw("ok", ok ? "true" : "false")
                             .str("detail", detail)
                             .dump());
    auto strs = [](const std::vector<std::string> &v) {
        return perfbench::jsonArray(v, jsonStr);
    };
    auto ints = [](const std::vector<int> &v) {
        return perfbench::jsonArray(
            v, [](int x) { return std::to_string(x); });
    };
    const std::string doc =
        JsonObject()
            .str("workload", run.args.workload)
            .num("seed", static_cast<double>(run.args.seed))
            .num("seconds", run.args.seconds)
            .num("nproc", run.nproc)
            .str("simd", simd::toString(simd::activeLevel()))
            .num("setup_s", run.t0)
            .num("t0", run.t0)
            .num("t_end", run.tEnd)
            .num("peak_rss_mb", run.peakRss)
            .raw("sessions", strs(run.sessions))
            .num("hi_session", run.hiSession)
            .raw("in_flight_bound", ints(run.inFlightBound))
            .num("warmup_need", run.warmupNeed)
            .raw("threads", perfbench::jsonMap(run.threads))
            .raw("req", encodeReqs(run.reqs))
            .raw("failures", strs(run.failures))
            .raw("checks", perfbench::jsonArray(
                               checks, [](const std::string &s) { return s; }))
            .raw("det", perfbench::jsonMap(run.det))
            .raw("layer", perfbench::jsonMap(run.layer))
            .dump();
    std::ofstream out(run.args.out);
    out << doc << "\n";
    if (!out)
        throw std::runtime_error("cannot write " + run.args.out);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument("missing value for " + k);
            return argv[++i];
        };
        if (k == "--workload")
            a.workload = value();
        else if (k == "--seed")
            a.seed = std::stoull(value());
        else if (k == "--seconds")
            a.seconds = std::stod(value());
        else if (k == "--out")
            a.out = value();
        else if (k == "--trace")
            a.trace = value();
        else if (k == "--setup-only")
            a.setupOnly = true;
        else
            throw std::invalid_argument("unknown argument " + k);
    }
    if (a.out.empty())
        throw std::invalid_argument("--out is required");
    if (!(a.seconds > 0))
        throw std::invalid_argument("--seconds must be positive");
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Args args = parseArgs(argc, argv);
        Run run(args);
        if (args.workload == "photo")
            runPhoto(run);
        else if (args.workload == "video")
            runVideo(run);
        else if (args.workload == "service")
            runService(run);
        else
            throw std::invalid_argument("unknown workload " + args.workload);
        if (!args.setupOnly && run.peakRss <= 0.0)
            run.failures.push_back("peak_rss_mb was never sampled");
        run.tracer.stop(); // writes the trace of a traced run
        writeRecord(run);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    return 0;
}
