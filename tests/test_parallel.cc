/**
 * @file
 * Tests for the work-stealing parallel runner: thread-count helpers,
 * pool semantics (empty ranges, inline execution, nested-submission
 * rejection, exception propagation), tile decomposition properties,
 * and the determinism suite asserting bitwise-identical BM3D output
 * and identical profile step counts for every thread count.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstring>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bm3d/bm3d.h"
#include "image/noise.h"
#include "image/synthetic.h"
#include "obs/trace.h"
#include "parallel/pool.h"
#include "parallel/tiles.h"
#include "simd/simd.h"

using namespace ideal;
using parallel::ThreadPool;
using parallel::Tile;

// ---------------------------------------------------------------------
// Thread-count helpers (the shared clamped fallback).
// ---------------------------------------------------------------------

TEST(Threads, HardwareThreadsAtLeastOne)
{
    // Even when hardware_concurrency() reports 0 the helper must
    // return a usable count.
    EXPECT_GE(parallel::hardwareThreads(), 1);
    EXPECT_LE(parallel::hardwareThreads(), parallel::kMaxThreads);
}

TEST(Threads, ClampThreadsAutoSelectsHardware)
{
    EXPECT_EQ(parallel::clampThreads(0), parallel::hardwareThreads());
    EXPECT_EQ(parallel::clampThreads(-7), parallel::hardwareThreads());
}

TEST(Threads, ClampThreadsPassesThroughAndCaps)
{
    EXPECT_EQ(parallel::clampThreads(1), 1);
    EXPECT_EQ(parallel::clampThreads(7), 7);
    EXPECT_EQ(parallel::clampThreads(1 << 20), parallel::kMaxThreads);
}

// ---------------------------------------------------------------------
// Pool semantics.
// ---------------------------------------------------------------------

TEST(ThreadPool, EmptyRangeRunsNothing)
{
    std::atomic<int> calls{0};
    ThreadPool::global().run(0, 4, [&](int, int) { ++calls; });
    ThreadPool::global().run(-3, 4, [&](int, int) { ++calls; });
    EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce)
{
    const int count = 1000;
    std::vector<std::atomic<int>> hits(count);
    ThreadPool::global().run(count, 7, [&](int index, int slot) {
        ASSERT_GE(index, 0);
        ASSERT_LT(index, count);
        ASSERT_GE(slot, 0);
        ASSERT_LT(slot, 7);
        ++hits[index];
    });
    for (int i = 0; i < count; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, SingleParallelismRunsInline)
{
    const std::thread::id caller = std::this_thread::get_id();
    int calls = 0;
    ThreadPool::global().run(16, 1, [&](int, int slot) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        EXPECT_EQ(slot, 0);
        ++calls;
    });
    EXPECT_EQ(calls, 16);
}

TEST(ThreadPool, ParallelismClampedToCount)
{
    // More executors than tasks must not deadlock or duplicate work.
    std::vector<std::atomic<int>> hits(3);
    ThreadPool::global().run(3, 64, [&](int index, int) { ++hits[index]; });
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, NestedSubmitRejected)
{
    // Tasks cannot spawn tasks: the deques of a batch only drain, so a
    // nested run() would deadlock. It must throw instead, and the
    // exception must propagate out of the outer run().
    EXPECT_THROW(
        ThreadPool::global().run(4, 2,
                                 [&](int, int) {
                                     ThreadPool::global().run(
                                         2, 2, [](int, int) {});
                                 }),
        std::logic_error);
}

TEST(ThreadPool, ExceptionPropagatesAndPoolSurvives)
{
    EXPECT_THROW(ThreadPool::global().run(64, 4,
                                          [&](int index, int) {
                                              if (index == 13)
                                                  throw std::runtime_error(
                                                      "boom");
                                          }),
                 std::runtime_error);

    // The pool must stay usable after an aborted batch.
    std::atomic<int> calls{0};
    ThreadPool::global().run(8, 4, [&](int, int) { ++calls; });
    EXPECT_EQ(calls.load(), 8);
}

// The service's dispatch lanes call run() from several threads at once:
// three non-pool threads each run 200 batches at parallelism 3, and
// every index of every batch must run exactly once, on a valid slot.
TEST(ThreadPool, ConcurrentCallersFromManyThreads)
{
    const int callers = 3, batches = 200, count = 24, width = 3;
    std::atomic<int> wrong{0};
    std::vector<std::thread> threads;
    for (int c = 0; c < callers; ++c) {
        threads.emplace_back([&] {
            for (int b = 0; b < batches; ++b) {
                std::vector<std::atomic<int>> hits(count);
                ThreadPool::global().run(count, width, [&](int i, int slot) {
                    if (slot < 0 || slot >= width)
                        ++wrong;
                    ++hits[i];
                    // Long enough that workers join batches in flight.
                    std::this_thread::sleep_for(std::chrono::microseconds(20));
                });
                for (int i = 0; i < count; ++i)
                    if (hits[i].load() != 1)
                        ++wrong;
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(wrong.load(), 0);
}

// ---------------------------------------------------------------------
// Tile decomposition properties.
// ---------------------------------------------------------------------

TEST(Tiles, RejectsNonPositiveGrain)
{
    EXPECT_THROW(parallel::makeTiles(8, 8, 0), std::invalid_argument);
    EXPECT_THROW(parallel::makeTiles(8, 8, -1), std::invalid_argument);
}

TEST(Tiles, EmptyExtentsGiveNoTiles)
{
    EXPECT_TRUE(parallel::makeTiles(0, 8, 4).empty());
    EXPECT_TRUE(parallel::makeTiles(8, 0, 4).empty());
    EXPECT_TRUE(parallel::makeTiles(-1, 8, 4).empty());
}

TEST(Tiles, GrainLargerThanRangeGivesSingleTile)
{
    auto tiles = parallel::makeTiles(5, 3, 100);
    ASSERT_EQ(tiles.size(), 1u);
    EXPECT_EQ(tiles[0].x0, 0);
    EXPECT_EQ(tiles[0].y0, 0);
    EXPECT_EQ(tiles[0].x1, 5);
    EXPECT_EQ(tiles[0].y1, 3);
}

TEST(Tiles, IntMaxGrainGivesSingleTile)
{
    // Rounding up must not overflow: tileGrain has no upper bound.
    auto tiles = parallel::makeTiles(125, 125, INT_MAX);
    ASSERT_EQ(tiles.size(), 1u);
    EXPECT_EQ(tiles[0].x1, 125);
    EXPECT_EQ(tiles[0].y1, 125);
    tiles = parallel::makeTiles(INT_MAX, 3, INT_MAX - 1);
    ASSERT_EQ(tiles.size(), 2u);
    EXPECT_EQ(tiles[1].x0, INT_MAX - 1);
    EXPECT_EQ(tiles[1].x1, INT_MAX);
}

TEST(Tiles, GridPartitionsIndexSpaceInRowMajorOrder)
{
    const int nx = 23, ny = 17, grain = 5;
    auto tiles = parallel::makeTiles(nx, ny, grain);

    // Every index covered exactly once.
    std::set<std::pair<int, int>> seen;
    for (const Tile &t : tiles) {
        EXPECT_GT(t.width(), 0);
        EXPECT_GT(t.height(), 0);
        EXPECT_LE(t.width(), grain);
        EXPECT_LE(t.height(), grain);
        for (int y = t.y0; y < t.y1; ++y)
            for (int x = t.x0; x < t.x1; ++x)
                EXPECT_TRUE(seen.emplace(x, y).second)
                    << "duplicate (" << x << "," << y << ")";
    }
    EXPECT_EQ(seen.size(), static_cast<size_t>(nx) * ny);

    // Row-major: y0 non-decreasing, x0 increasing within a row.
    for (size_t i = 1; i < tiles.size(); ++i) {
        EXPECT_GE(tiles[i].y0, tiles[i - 1].y0);
        if (tiles[i].y0 == tiles[i - 1].y0) {
            EXPECT_GT(tiles[i].x0, tiles[i - 1].x0);
        }
    }
}

TEST(Tiles, GridDependsOnlyOnExtentsAndGrain)
{
    // The determinism contract: the same extents and grain produce the
    // same grid no matter how often or where it is computed.
    auto a = parallel::makeTiles(37, 41, 8);
    auto b = parallel::makeTiles(37, 41, 8);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].x0, b[i].x0);
        EXPECT_EQ(a[i].y0, b[i].y0);
        EXPECT_EQ(a[i].x1, b[i].x1);
        EXPECT_EQ(a[i].y1, b[i].y1);
    }
}

TEST(TileBands, PartitionTilesIntoContiguousRanges)
{
    // Bands must cover [0, tiles.size()) in ascending, non-overlapping
    // tile-index ranges — the property that makes sequential band runs
    // merge partial sums in exactly the stage-major tile order.
    const int nx = 23, ny = 17, grain = 5;
    const auto tiles = parallel::makeTiles(nx, ny, grain);
    const auto bands = parallel::makeTileBands(nx, ny, grain, 7);
    ASSERT_FALSE(bands.empty());
    EXPECT_EQ(bands.front().firstTile, 0);
    EXPECT_EQ(bands.back().lastTile, static_cast<int>(tiles.size()));
    int cursor = 0;
    int y_cursor = 0;
    for (const parallel::TileBand &b : bands) {
        EXPECT_EQ(b.firstTile, cursor);
        EXPECT_GT(b.lastTile, b.firstTile);
        cursor = b.lastTile;
        EXPECT_EQ(b.y0, y_cursor);
        EXPECT_GT(b.y1, b.y0);
        y_cursor = b.y1;
        // Every tile of the band lies inside the band's y range.
        for (int ti = b.firstTile; ti < b.lastTile; ++ti) {
            EXPECT_GE(tiles[ti].y0, b.y0);
            EXPECT_LE(tiles[ti].y1, b.y1);
        }
    }
    EXPECT_EQ(y_cursor, ny);
}

TEST(TileBands, RowsRoundUpToWholeTileRows)
{
    // rows_per_band is rounded up to whole tile rows so a band never
    // splits a tile; a band request smaller than the grain still
    // yields one tile row per band.
    const auto bands = parallel::makeTileBands(20, 20, 8, 3);
    ASSERT_EQ(bands.size(), 3u); // ceil(20/8) = 3 tile rows
    EXPECT_EQ(bands[0].y1 - bands[0].y0, 8);
    EXPECT_EQ(bands[2].y1 - bands[2].y0, 4); // odd trailing band
}

TEST(TileBands, BandLargerThanGridGivesSingleBand)
{
    const auto bands = parallel::makeTileBands(10, 10, 4, 100);
    ASSERT_EQ(bands.size(), 1u);
    EXPECT_EQ(bands[0].firstTile, 0);
    EXPECT_EQ(bands[0].y0, 0);
    EXPECT_EQ(bands[0].y1, 10);
}

TEST(TileBands, IntMaxRowsAndGrainGiveSingleBand)
{
    // Neither band.rows nor tileGrain has an upper bound.
    for (const auto &[grain, rows] :
         {std::pair{64, INT_MAX}, std::pair{INT_MAX, 64},
          std::pair{INT_MAX, INT_MAX}, std::pair{1, INT_MAX}}) {
        const auto bands = parallel::makeTileBands(125, 125, grain, rows);
        ASSERT_EQ(bands.size(), 1u) << grain << " " << rows;
        EXPECT_EQ(bands[0].firstTile, 0);
        EXPECT_EQ(bands[0].lastTile,
                  static_cast<int>(parallel::makeTiles(125, 125, grain)
                                       .size()));
        EXPECT_EQ(bands[0].y0, 0);
        EXPECT_EQ(bands[0].y1, 125);
    }
}

TEST(TileBands, EmptyGridAndBadGrain)
{
    EXPECT_TRUE(parallel::makeTileBands(0, 8, 4, 2).empty());
    EXPECT_TRUE(parallel::makeTileBands(8, 0, 4, 2).empty());
    EXPECT_THROW(parallel::makeTileBands(8, 8, 0, 2),
                 std::invalid_argument);
    // Non-positive rows_per_band clamps to one tile row per band.
    const auto bands = parallel::makeTileBands(8, 8, 4, 0);
    EXPECT_EQ(bands.size(), 2u);
}

TEST(Tiles, ParallelForTilesVisitsEveryTileOnce)
{
    const int nx = 13, ny = 9, grain = 4;
    const auto tiles = parallel::makeTiles(nx, ny, grain);
    std::vector<std::atomic<int>> hits(tiles.size());
    std::atomic<size_t> calls{0};
    parallel::parallelForTiles(
        ThreadPool::global(), nx, ny, grain, 7, [&](const Tile &t, int) {
            for (size_t i = 0; i < tiles.size(); ++i) {
                if (tiles[i].x0 == t.x0 && tiles[i].y0 == t.y0 &&
                    tiles[i].x1 == t.x1 && tiles[i].y1 == t.y1)
                    ++hits[i];
            }
            ++calls;
        });
    EXPECT_EQ(calls.load(), tiles.size());
    for (size_t i = 0; i < tiles.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1);
}

// ---------------------------------------------------------------------
// Determinism suite: bitwise-identical output and identical profile
// step counts for threads in {1, 2, 7, hw} on BM3D, BM3D-MR (plain
// and across-rows), covering both the hard-threshold and the Wiener
// stage of each run.
// ---------------------------------------------------------------------

namespace {

void
expectBitwiseEqual(const image::ImageF &a, const image::ImageF &b,
                   const char *what)
{
    ASSERT_TRUE(a.sameShape(b)) << what;
    ASSERT_EQ(a.raw().size(), b.raw().size()) << what;
    // memcmp, not float compare: the contract is bit-identity (it also
    // distinguishes -0.0f from 0.0f and would catch NaN drift).
    EXPECT_EQ(std::memcmp(a.raw().data(), b.raw().data(),
                          a.raw().size() * sizeof(float)),
              0)
        << what;
}

void
expectSameOps(const bm3d::Profile &a, const bm3d::Profile &b)
{
    for (int i = 0; i < bm3d::kNumSteps; ++i) {
        const auto step = static_cast<bm3d::Step>(i);
        const auto &oa = a.ops(step);
        const auto &ob = b.ops(step);
        EXPECT_EQ(oa.multiplies, ob.multiplies) << bm3d::toString(step);
        EXPECT_EQ(oa.additions, ob.additions) << bm3d::toString(step);
        EXPECT_EQ(oa.comparisons, ob.comparisons) << bm3d::toString(step);
        EXPECT_EQ(oa.memoryReads, ob.memoryReads) << bm3d::toString(step);
        EXPECT_EQ(oa.memoryWrites, ob.memoryWrites) << bm3d::toString(step);
    }
    EXPECT_EQ(a.mr().bm1Hits, b.mr().bm1Hits);
    EXPECT_EQ(a.mr().bm1Refs, b.mr().bm1Refs);
    EXPECT_EQ(a.mr().bm2Hits, b.mr().bm2Hits);
    EXPECT_EQ(a.mr().bm2Refs, b.mr().bm2Refs);
    EXPECT_EQ(a.mr().bm1Candidates, b.mr().bm1Candidates);
    EXPECT_EQ(a.mr().bm2Candidates, b.mr().bm2Candidates);
    EXPECT_EQ(a.mr().bm1VertHits, b.mr().bm1VertHits);
    EXPECT_EQ(a.mr().bm2VertHits, b.mr().bm2VertHits);
}

bm3d::Bm3dConfig
determinismConfig()
{
    bm3d::Bm3dConfig cfg;
    cfg.sigma = 25.0f;
    cfg.searchWindow1 = 13;
    cfg.searchWindow2 = 11;
    // Small grain so a 40x40 scene decomposes into a real multi-tile
    // grid (the default grain would make determinism trivially hold).
    cfg.tileGrain = 7;
    return cfg;
}

/** Restores the startup dispatch level when a scope ends. */
class ScopedSimdLevel
{
  public:
    ScopedSimdLevel() : saved_(simd::activeLevel()) {}
    ~ScopedSimdLevel() { simd::setLevel(saved_); }

  private:
    simd::Level saved_;
};

void
checkDeterministicAcrossThreadCounts(bm3d::Bm3dConfig cfg,
                                     int channels = 1)
{
    image::ImageF clean =
        image::makeScene(image::SceneKind::Street, 40, 40, channels, 77);
    image::ImageF noisy = image::addGaussianNoise(clean, cfg.sigma, 78);

    cfg.numThreads = 1;
    auto reference = bm3d::Bm3d(cfg).denoise(noisy);

    // The determinism contract is two-dimensional since the SIMD layer
    // landed: output must be bitwise identical across thread counts AND
    // across dispatch levels (scalar / AVX2 keep the exact scalar
    // reduction order). Sweep every level the CPU supports at every
    // thread count against the one reference run.
    ScopedSimdLevel restore;
    const int counts[] = {1, 2, 7, parallel::hardwareThreads()};
    for (int l = 0; l <= static_cast<int>(simd::bestSupported()); ++l) {
        simd::setLevel(static_cast<simd::Level>(l));
        for (int threads : counts) {
            cfg.numThreads = threads;
            auto run = bm3d::Bm3d(cfg).denoise(noisy);
            SCOPED_TRACE(testing::Message()
                         << "simd=" << simd::toString(simd::activeLevel())
                         << " threads=" << threads);
            // basic = hard-threshold stage, output = Wiener stage.
            expectBitwiseEqual(reference.basic, run.basic,
                               "basic estimate");
            expectBitwiseEqual(reference.output, run.output,
                               "final output");
            expectSameOps(reference.profile, run.profile);
        }
    }
}

} // namespace

TEST(Determinism, PlainBm3dBitwiseIdenticalAcrossThreadCounts)
{
    checkDeterministicAcrossThreadCounts(determinismConfig());
}

TEST(Determinism, ColorBm3dBitwiseIdenticalAcrossThreadCounts)
{
    checkDeterministicAcrossThreadCounts(determinismConfig(), 3);
}

TEST(Determinism, MrBitwiseIdenticalAcrossThreadCounts)
{
    bm3d::Bm3dConfig cfg = determinismConfig();
    cfg.mr.enabled = true;
    cfg.mr.k = 0.5;
    checkDeterministicAcrossThreadCounts(cfg);
}

TEST(Determinism, MrAcrossRowsBitwiseIdenticalAcrossThreadCounts)
{
    bm3d::Bm3dConfig cfg = determinismConfig();
    cfg.mr.enabled = true;
    cfg.mr.k = 0.5;
    cfg.mr.acrossRows = true;
    checkDeterministicAcrossThreadCounts(cfg);
}

TEST(Determinism, TracingDoesNotChangeOutput)
{
    // Observability must be pure observation: the same run with the
    // span tracer recording (including the fine-grained per-step
    // category) must produce bitwise-identical output to an untraced
    // run. A tracer that perturbed scheduling into different merge
    // orders, or touched image state, would show up here.
    bm3d::Bm3dConfig cfg = determinismConfig();
    cfg.mr.enabled = true;
    cfg.mr.k = 0.5;
    cfg.numThreads = 2;
    image::ImageF clean =
        image::makeScene(image::SceneKind::Street, 128, 128, 1, 90);
    image::ImageF noisy = image::addGaussianNoise(clean, cfg.sigma, 91);

    ASSERT_FALSE(obs::Tracer::globalEnabled());
    auto untraced = bm3d::Bm3d(cfg).denoise(noisy);

    const std::string trace_path =
        testing::TempDir() + "parallel_trace_determinism.json";
    obs::Tracer::global().start(trace_path);
    obs::Tracer::global().setStepTracing(true);
    auto traced = bm3d::Bm3d(cfg).denoise(noisy);
    obs::Tracer::global().setStepTracing(false);
    const size_t traced_events = obs::Tracer::global().eventCount();
    obs::Tracer::global().stop();
    ASSERT_FALSE(obs::Tracer::globalEnabled());

    // The traced run must actually have recorded something (stage +
    // tile + step spans), or this test checks nothing.
    EXPECT_GT(traced_events, 0u);
    expectBitwiseEqual(untraced.basic, traced.basic, "basic estimate");
    expectBitwiseEqual(untraced.output, traced.output, "final output");
    expectSameOps(untraced.profile, traced.profile);

    std::remove(trace_path.c_str());
}

TEST(Determinism, AutoThreadCountMatchesSingleThread)
{
    bm3d::Bm3dConfig cfg = determinismConfig();
    image::ImageF clean =
        image::makeScene(image::SceneKind::Nature, 40, 40, 1, 80);
    image::ImageF noisy = image::addGaussianNoise(clean, cfg.sigma, 81);

    cfg.numThreads = 1;
    auto single = bm3d::Bm3d(cfg).denoise(noisy);
    cfg.numThreads = 0; // auto: hardware thread count
    auto autodetect = bm3d::Bm3d(cfg).denoise(noisy);
    expectBitwiseEqual(single.output, autodetect.output, "auto threads");
}
