/**
 * @file
 * Tests for the streaming frame-pipeline runtime (src/runtime):
 * stream-vs-batch bitwise equality across SIMD levels and thread
 * counts, concurrent submit/collect under the sanitizers, temporal
 * seeding quality and work reduction, arena steady-state accounting,
 * the resident ledger after teardown (also with frames in flight),
 * lifecycle errors, and the video DCT1 prepass banding determinism.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "bm3d/bm3d.h"
#include "bm3d/video.h"
#include "image/metrics.h"
#include "image/noise.h"
#include "image/synthetic.h"
#include "obs/metrics.h"
#include "runtime/stream.h"
#include "service/service.h"
#include "simd/simd.h"

using namespace ideal;
using runtime::StreamConfig;
using runtime::StreamDenoiser;
using runtime::StreamStats;

namespace {

/** A static scene observed over several frames with fresh noise. */
std::vector<image::ImageF>
staticClip(int frames, int w, int h, float sigma, uint64_t seed,
           image::ImageF *clean_out = nullptr)
{
    image::ImageF clean =
        image::makeScene(image::SceneKind::Nature, w, h, 1, seed);
    if (clean_out)
        *clean_out = clean;
    std::vector<image::ImageF> clip;
    for (int f = 0; f < frames; ++f)
        clip.push_back(image::addGaussianNoise(clean, sigma, seed + 7 + f));
    return clip;
}

StreamConfig
smallStreamConfig(int threads = 1, bool wiener = false)
{
    StreamConfig cfg;
    cfg.frame.sigma = 25.0f;
    cfg.frame.searchWindow1 = 13;
    cfg.frame.searchWindow2 = 13;
    cfg.frame.refStride = 2;
    cfg.frame.enableWiener = wiener;
    cfg.frame.numThreads = threads;
    return cfg;
}

/** Per-frame batch outputs via the plain Bm3d engine. */
std::vector<image::ImageF>
batchOutputs(const bm3d::Bm3dConfig &cfg,
             const std::vector<image::ImageF> &clip)
{
    bm3d::Bm3d engine(cfg);
    std::vector<image::ImageF> outs;
    for (const image::ImageF &frame : clip)
        outs.push_back(engine.denoise(frame).output);
    return outs;
}

/** Streamed outputs for the same clip (copies; clip stays intact). */
std::vector<image::ImageF>
streamOutputs(const StreamConfig &cfg,
              const std::vector<image::ImageF> &clip,
              StreamStats *stats_out = nullptr)
{
    StreamDenoiser stream(cfg);
    for (const image::ImageF &frame : clip)
        stream.submit(image::ImageF(frame));
    stream.finish();
    std::vector<image::ImageF> outs;
    for (size_t f = 0; f < clip.size(); ++f)
        outs.push_back(stream.collect());
    if (stats_out)
        *stats_out = stream.stats();
    return outs;
}

class RuntimeTest : public ::testing::Test
{
  protected:
    void TearDown() override { simd::setLevel(simd::bestSupported()); }
};

} // namespace

// With seeding off, a streamed clip must be bitwise identical to the
// per-frame batch path — for every SIMD dispatch level and thread
// count (the per-frame pipeline is unchanged; the arena only moves
// where buffers live).
TEST_F(RuntimeTest, StreamMatchesBatchBitwiseAcrossLevelsAndThreads)
{
    const auto clip = staticClip(3, 64, 48, 25.0f, 41);
    const simd::Level levels[] = {simd::Level::Scalar, simd::Level::Avx2};
    for (bm3d::Precision precision :
         {bm3d::Precision::Float32, bm3d::Precision::Int16}) {
        // Int16 matching is bitwise deterministic across *levels* too
        // (integer accumulation has no reassociation sensitivity), so
        // its first combination's output doubles as the cross-matrix
        // reference. Float only promises equality within a level.
        std::vector<image::ImageF> int16_ref;
        for (simd::Level level : levels) {
            simd::setLevel(level); // clamped to bestSupported()
            for (int threads : {1, 8}) {
                StreamConfig cfg = smallStreamConfig(threads);
                cfg.frame.precision = precision;
                const auto batch = batchOutputs(cfg.frame, clip);
                const auto streamed = streamOutputs(cfg, clip);
                ASSERT_EQ(batch.size(), streamed.size());
                for (size_t f = 0; f < batch.size(); ++f)
                    EXPECT_TRUE(batch[f].raw() == streamed[f].raw())
                        << "precision=" << static_cast<int>(precision)
                        << " level="
                        << static_cast<int>(simd::activeLevel())
                        << " threads=" << threads << " frame=" << f;
                if (precision != bm3d::Precision::Int16)
                    continue;
                if (int16_ref.empty()) {
                    int16_ref = streamed;
                    continue;
                }
                for (size_t f = 0; f < streamed.size(); ++f)
                    EXPECT_TRUE(int16_ref[f].raw() == streamed[f].raw())
                        << "int16 output differs at level="
                        << static_cast<int>(simd::activeLevel())
                        << " threads=" << threads << " frame=" << f;
            }
        }
    }
}

// The Wiener stage runs through the same arena-backed plumbing.
TEST_F(RuntimeTest, StreamMatchesBatchWithWienerStage)
{
    const auto clip = staticClip(3, 48, 48, 25.0f, 43);
    StreamConfig cfg = smallStreamConfig(4, /*wiener=*/true);
    const auto batch = batchOutputs(cfg.frame, clip);
    const auto streamed = streamOutputs(cfg, clip);
    for (size_t f = 0; f < batch.size(); ++f)
        EXPECT_TRUE(batch[f].raw() == streamed[f].raw()) << "frame " << f;
}

// The row-band streaming schedule (DESIGN §15) composes with the
// frame pipeline: a banded streamed clip must be bitwise identical
// both to the banded batch path and to the stage-major stream.
TEST_F(RuntimeTest, BandScheduleComposesWithStreamBitwise)
{
    const auto clip = staticClip(3, 48, 48, 25.0f, 47);
    StreamConfig cfg = smallStreamConfig(4, /*wiener=*/true);
    cfg.frame.tileGrain = 8;
    const auto plain_stream = streamOutputs(cfg, clip);
    cfg.frame.band.enabled = true;
    cfg.frame.band.rows = 8;
    const auto banded_batch = batchOutputs(cfg.frame, clip);
    const auto banded_stream = streamOutputs(cfg, clip);
    ASSERT_EQ(plain_stream.size(), banded_stream.size());
    for (size_t f = 0; f < banded_stream.size(); ++f) {
        EXPECT_TRUE(plain_stream[f].raw() == banded_stream[f].raw())
            << "band vs stage-major stream, frame " << f;
        EXPECT_TRUE(banded_batch[f].raw() == banded_stream[f].raw())
            << "banded stream vs banded batch, frame " << f;
    }
}

// Outputs arrive in submit order even when a producer thread races
// the collector. Runs under TSan via the sanitize label.
TEST_F(RuntimeTest, ConcurrentSubmitCollectIsOrderedAndRaceFree)
{
    const int frames = 12;
    const auto clip = staticClip(frames, 32, 32, 25.0f, 47);
    StreamConfig cfg = smallStreamConfig(2);
    cfg.queueDepth = 2; // force backpressure on the producer

    const auto batch = batchOutputs(cfg.frame, clip);
    StreamDenoiser stream(cfg);
    std::thread producer([&] {
        for (const image::ImageF &frame : clip)
            stream.submit(image::ImageF(frame));
        stream.finish();
    });
    for (int f = 0; f < frames; ++f) {
        image::ImageF out = stream.collect();
        EXPECT_TRUE(out.raw() == batch[static_cast<size_t>(f)].raw())
            << "frame " << f;
        (void)stream.stats(); // exercise the stats lock concurrently
        stream.recycle(std::move(out));
    }
    producer.join();
    EXPECT_EQ(stream.stats().frames, static_cast<uint64_t>(frames));
}

// Temporal seeding trades exact equality for less matching work; on
// static content the quality cost must stay within 0.05 dB and the
// seeded search must actually engage and cut BM1 distance
// computations.
TEST_F(RuntimeTest, TemporalSeedingKeepsQualityAndCutsWork)
{
    image::ImageF clean;
    const auto clip = staticClip(4, 64, 64, 25.0f, 53, &clean);
    StreamConfig cfg = smallStreamConfig(1);

    StreamStats plain_stats;
    const auto plain = streamOutputs(cfg, clip, &plain_stats);

    cfg.temporalSeed = true;
    StreamStats seeded_stats;
    const auto seeded = streamOutputs(cfg, clip, &seeded_stats);

    double plain_snr = 0.0, seeded_snr = 0.0;
    for (size_t f = 0; f < clip.size(); ++f) {
        plain_snr += image::snrDb(clean, plain[f]);
        seeded_snr += image::snrDb(clean, seeded[f]);
    }
    const double delta =
        std::fabs(seeded_snr - plain_snr) / static_cast<double>(clip.size());
    EXPECT_LE(delta, 0.05);

    EXPECT_GT(seeded_stats.seedRefs, 0u);
    EXPECT_GT(seeded_stats.seedHits, 0u);
    EXPECT_LT(seeded_stats.profile.mr().bm1Candidates,
              plain_stats.profile.mr().bm1Candidates);
}

// The seeding decision (descriptor SSD in the thresholded-DCT domain)
// and the seeded search itself use exact arithmetic, so the seeded
// output is also identical across SIMD levels.
TEST_F(RuntimeTest, SeededStreamIsBitwiseIdenticalAcrossSimdLevels)
{
    const auto clip = staticClip(3, 64, 48, 25.0f, 59);
    StreamConfig cfg = smallStreamConfig(1);
    cfg.temporalSeed = true;

    simd::setLevel(simd::Level::Scalar);
    const auto scalar = streamOutputs(cfg, clip);
    simd::setLevel(simd::bestSupported());
    const auto best = streamOutputs(cfg, clip);
    for (size_t f = 0; f < clip.size(); ++f)
        EXPECT_TRUE(scalar[f].raw() == best[f].raw()) << "frame " << f;
}

// The arena recycles every per-frame buffer: from the third frame on
// no fresh heap bytes may be drawn through it.
TEST_F(RuntimeTest, ArenaIsMallocFreeInSteadyState)
{
    const int frames = 6;
    const auto clip = staticClip(frames, 48, 48, 25.0f, 61);
    StreamConfig cfg = smallStreamConfig(2);

    StreamDenoiser stream(cfg);
    for (const image::ImageF &frame : clip)
        stream.submit(image::ImageF(frame));
    stream.finish();
    for (int f = 0; f < frames; ++f)
        stream.recycle(stream.collect());

    const StreamStats stats = stream.stats();
    EXPECT_EQ(stats.frames, static_cast<uint64_t>(frames));
    EXPECT_EQ(stats.arenaBytesNewSteady, 0u);
    EXPECT_GT(stats.arenaHits, 0u);
    EXPECT_GT(stats.arenaBytesNew, 0u); // warm-up did allocate
    EXPECT_EQ(stats.latenciesMs.size(), static_cast<size_t>(frames));
    EXPECT_GT(stats.wallSeconds, 0.0);
}

// Each input frame's storage already feeds the next output, so with or
// without recycling every collected output the arena's free list holds
// steady after warm-up (recycling used to grow it a frame per frame),
// the steady state stays malloc-free, and the resident ledger stays
// flat (the freed storage is mostly input frames it never charged).
TEST_F(RuntimeTest, RecyclingKeepsArenaFreeListBounded)
{
    const int frames = 40;
    const auto clip = staticClip(4, 32, 32, 25.0f, 71);
    for (bool wiener : {false, true}) {
        for (bool recycle : {false, true}) {
            StreamDenoiser stream(smallStreamConfig(1, wiener));
            std::vector<uint64_t> free_buffers;
            std::vector<int64_t> resident;
            for (int f = 0; f < frames; ++f) {
                stream.submit(image::ImageF(clip[f % clip.size()]));
                image::ImageF out = stream.collect();
                if (recycle)
                    stream.recycle(std::move(out));
                free_buffers.push_back(stream.arena().stats().freeBuffers);
                resident.push_back(obs::residentBytes());
            }
            stream.finish();
            for (int f = 3; f < frames; ++f) {
                EXPECT_EQ(free_buffers[f], free_buffers[2])
                    << "wiener=" << wiener << " recycle=" << recycle
                    << " frame " << f;
                EXPECT_EQ(resident[f], resident[2])
                    << "wiener=" << wiener << " recycle=" << recycle
                    << " frame " << f;
            }
            EXPECT_EQ(stream.stats().arenaBytesNewSteady, 0u)
                << "wiener=" << wiener << " recycle=" << recycle;
        }
    }
}

// Every byte the stream's arena charged to the process-wide resident
// ledger is debited when the stream dies, so a process that builds
// several streams does not overstate every later peak.
TEST_F(RuntimeTest, DestroyedStreamReturnsResidentLedger)
{
    const int frames = 6;
    const auto clip = staticClip(frames, 64, 64, 25.0f, 97);
    const int64_t before = obs::residentBytes();
    {
        StreamDenoiser stream(smallStreamConfig(1, /*wiener=*/true));
        for (const image::ImageF &frame : clip)
            stream.submit(image::ImageF(frame));
        stream.finish();
        for (int f = 0; f < frames; ++f)
            (void)stream.collect(); // outputs dropped
        EXPECT_GT(obs::residentBytes(), before);
    }
    EXPECT_EQ(obs::residentBytes(), before);
}

// Teardown with frames in flight: the destructor returns once the
// queued and staged frames are through, with uncollected outputs
// discarded, and the stream leaves nothing behind in the ledger.
TEST_F(RuntimeTest, DestructorWithFramesInFlight)
{
    const auto clip = staticClip(8, 64, 64, 25.0f, 101);
    StreamConfig cfg = smallStreamConfig(2, /*wiener=*/true);
    cfg.queueDepth = 5;
    const int64_t before = obs::residentBytes();
    auto stream = std::make_unique<StreamDenoiser>(cfg);
    for (const image::ImageF &frame : clip)
        stream->submit(image::ImageF(frame));
    // One output uncollected; the rest are in stages, in the prepass or
    // still queued.
    while (stream->stats().frames == 0)
        std::this_thread::yield();
    const auto start = std::chrono::steady_clock::now();
    stream.reset();
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(30));
    EXPECT_EQ(obs::residentBytes(), before);
}

TEST_F(RuntimeTest, LifecycleErrors)
{
    const auto clip = staticClip(1, 32, 32, 25.0f, 67);
    StreamConfig cfg = smallStreamConfig(1);

    StreamDenoiser stream(cfg);
    stream.submit(image::ImageF(clip[0]));
    // Shape must match the first frame.
    EXPECT_THROW(stream.submit(image::ImageF(16, 32, 1)),
                 std::invalid_argument);
    // Frames smaller than a patch can never be processed.
    EXPECT_THROW(stream.submit(image::ImageF(2, 2, 1)),
                 std::invalid_argument);
    stream.finish();
    EXPECT_THROW(stream.submit(image::ImageF(clip[0])), std::logic_error);
    (void)stream.collect();
    EXPECT_THROW(stream.collect(), std::logic_error);
}

TEST_F(RuntimeTest, ConfigValidation)
{
    StreamConfig cfg = smallStreamConfig(1);
    cfg.queueDepth = 0;
    EXPECT_THROW(StreamDenoiser s(cfg), std::invalid_argument);

    cfg = smallStreamConfig(1);
    cfg.temporalSeed = true;
    cfg.seedK = 0.0;
    EXPECT_THROW(StreamDenoiser s(cfg), std::invalid_argument);

    cfg = smallStreamConfig(1);
    cfg.temporalSeed = true;
    cfg.seedWindow = 8; // must be odd
    EXPECT_THROW(StreamDenoiser s(cfg), std::invalid_argument);

    cfg = smallStreamConfig(1);
    cfg.temporalSeed = true;
    cfg.seedWindow = cfg.frame.searchWindow1 + 2;
    EXPECT_THROW(StreamDenoiser s(cfg), std::invalid_argument);
}

// Only the float DCT matching domain seeds, so an Int16 stream with
// temporalSeed would reset two seed stores per frame and still run
// unseeded. The combination is rejected up front, for the stream and
// for a service session alike.
TEST_F(RuntimeTest, RejectsTemporalSeedUnderInt16)
{
    StreamConfig cfg = smallStreamConfig(1);
    cfg.temporalSeed = true;
    cfg.frame.precision = bm3d::Precision::Int16;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    EXPECT_THROW(StreamDenoiser s(cfg), std::invalid_argument);
    service::SessionConfig session;
    session.name = "i16_seed";
    session.stream = cfg;
    EXPECT_THROW(session.validate(), std::invalid_argument);

    cfg.temporalSeed = false;
    EXPECT_NO_THROW(StreamDenoiser s(cfg));
    cfg.temporalSeed = true;
    cfg.frame.precision = bm3d::Precision::Float32;
    EXPECT_NO_THROW(StreamDenoiser s(cfg));
}

// Satellite of the same PR: the video denoiser's DCT1 prepass now
// decomposes into frame x row-band tasks, so its output must stay
// independent of the worker count.
TEST_F(RuntimeTest, VideoDct1BandingIsThreadCountInvariant)
{
    const auto seq = staticClip(3, 48, 48, 25.0f, 71);
    bm3d::VideoConfig vcfg;
    vcfg.frame.sigma = 25.0f;
    vcfg.frame.searchWindow1 = 13;
    vcfg.temporalRadius = 1;
    vcfg.predictiveWindow = 7;

    vcfg.frame.numThreads = 1;
    const auto serial = bm3d::VideoBm3d(vcfg).denoise(seq);
    vcfg.frame.numThreads = 4;
    const auto parallel = bm3d::VideoBm3d(vcfg).denoise(seq);
    ASSERT_EQ(serial.frames.size(), parallel.frames.size());
    for (size_t f = 0; f < serial.frames.size(); ++f)
        EXPECT_TRUE(serial.frames[f].raw() == parallel.frames[f].raw())
            << "frame " << f;
}

// The adaptive matching variants must compose with temporal seeding:
// the seeded search takes the same running cutoff, and the coarse
// grid's skipped references poison their seed slots so the next frame
// cannot false-hit on stale descriptors. Quality must hold and both
// reductions must be active at once.
TEST_F(RuntimeTest, VariantComposesWithTemporalSeeding)
{
    image::ImageF clean;
    const auto clip = staticClip(4, 64, 64, 25.0f, 83, &clean);
    StreamConfig cfg = smallStreamConfig(1);

    StreamStats plain_stats;
    const auto plain = streamOutputs(cfg, clip, &plain_stats);

    cfg.temporalSeed = true;
    cfg.frame.variant.adaptiveBound = true;
    cfg.frame.variant.boundMargin = 2.0f;
    cfg.frame.variant.coarseToFine = true;
    cfg.frame.variant.coarseStride = 2;
    cfg.frame.variant.densifyThreshold = 0.35f;
    StreamStats variant_stats;
    const auto variant = streamOutputs(cfg, clip, &variant_stats);

    double plain_snr = 0.0, variant_snr = 0.0;
    for (size_t f = 0; f < clip.size(); ++f) {
        plain_snr += image::snrDb(clean, plain[f]);
        variant_snr += image::snrDb(clean, variant[f]);
    }
    // On a 64x64 frame the skipped references are a much larger
    // fraction of the image than at bench scale, so the envelope here
    // is wider than the fig02 |dSNR| <= 0.1 dB gate; the point is that
    // composition degrades gracefully rather than corrupting state.
    const double delta = (plain_snr - variant_snr) /
                         static_cast<double>(clip.size());
    EXPECT_LE(delta, 0.75) << "variant SNR drifted too far from dense";

    EXPECT_GT(variant_stats.seedRefs, 0u);
    EXPECT_GT(variant_stats.seedHits, 0u);
    EXPECT_GT(variant_stats.profile.adaptive().refsSkipped, 0u);
    EXPECT_LT(variant_stats.profile.mr().bm1Candidates,
              plain_stats.profile.mr().bm1Candidates);
}

// The fused group-major denoise path (DESIGN §12) composes with the
// streaming runtime: temporal seeding still hits, and the group tiles
// recycle through the frame arena (no steady-state heap growth).
TEST_F(RuntimeTest, FusedDenoiseComposesWithSeededStream)
{
    const int frames = 6;
    const auto clip = staticClip(frames, 48, 48, 25.0f, 89);
    StreamConfig cfg = smallStreamConfig(2, /*wiener=*/true);
    cfg.temporalSeed = true;

    StreamDenoiser stream(cfg);
    for (const image::ImageF &frame : clip)
        stream.submit(image::ImageF(frame));
    stream.finish();
    for (int f = 0; f < frames; ++f)
        stream.recycle(stream.collect());
    const StreamStats stats = stream.stats();
    EXPECT_EQ(stats.arenaBytesNewSteady, 0u)
        << "fused group tiles must recycle through the arena";
    EXPECT_GT(stats.seedHits, 0u);
}
