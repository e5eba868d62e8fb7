/**
 * @file
 * google-benchmark microbenchmarks of the computational blocks from
 * paper Sec. 2.1: 2-D DCT, 1-D Haar (matrix vs butterfly), the
 * l2-norm distance, the match-list priority queue, the DCT patch
 * field build, and the DRAM model's streaming throughput.
 */

#include <benchmark/benchmark.h>

#include "bm3d/matchlist.h"
#include "bm3d/patchfield.h"
#include "dram/dram.h"
#include "image/synthetic.h"
#include "transforms/dct.h"
#include "transforms/distance.h"
#include "transforms/haar.h"

using namespace ideal;

namespace {

std::vector<float>
randomData(size_t n, uint64_t seed)
{
    image::SplitMix64 rng(seed);
    std::vector<float> v(n);
    for (float &x : v)
        x = rng.uniform(0.0f, 255.0f);
    return v;
}

void
BM_Dct4x4Forward(benchmark::State &state)
{
    transforms::Dct2D dct(4);
    auto in = randomData(16, 1);
    float out[16];
    for (auto _ : state) {
        dct.forward(in.data(), out);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_Dct4x4Forward);

void
BM_Dct4x4Inverse(benchmark::State &state)
{
    transforms::Dct2D dct(4);
    auto in = randomData(16, 2);
    float out[16];
    for (auto _ : state) {
        dct.inverse(in.data(), out);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_Dct4x4Inverse);

void
BM_Haar16Butterfly(benchmark::State &state)
{
    transforms::Haar1D haar(16);
    auto in = randomData(16, 3);
    float out[16];
    for (auto _ : state) {
        haar.forward(in.data(), out);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_Haar16Butterfly);

void
BM_Haar16Matrix(benchmark::State &state)
{
    transforms::Haar1D haar(16);
    auto in = randomData(16, 4);
    float out[16];
    for (auto _ : state) {
        haar.forwardMatrix(in.data(), out);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_Haar16Matrix);

void
BM_Distance16(benchmark::State &state)
{
    auto a = randomData(16, 5);
    auto b = randomData(16, 6);
    for (auto _ : state) {
        float d = transforms::squaredDistance(a.data(), b.data(), 16);
        benchmark::DoNotOptimize(d);
    }
}
BENCHMARK(BM_Distance16);

void
BM_MatchListInsert(benchmark::State &state)
{
    image::SplitMix64 rng(9);
    for (auto _ : state) {
        bm3d::MatchList list(16);
        for (int i = 0; i < 64; ++i)
            list.insert(bm3d::Match{i, 0, rng.uniform(0.0f, 1000.0f)});
        benchmark::DoNotOptimize(list);
    }
}
BENCHMARK(BM_MatchListInsert);

void
BM_PatchFieldBuild(benchmark::State &state)
{
    const int size = static_cast<int>(state.range(0));
    auto plane = image::makeScene(image::SceneKind::Nature, size, size,
                                  1, 10);
    transforms::Dct2D dct(4);
    for (auto _ : state) {
        bm3d::DctPatchField field(plane, dct, 50.0f, std::nullopt,
                                  nullptr);
        benchmark::DoNotOptimize(field);
    }
    state.SetItemsProcessed(state.iterations() * (size - 3) * (size - 3));
}
BENCHMARK(BM_PatchFieldBuild)->Arg(64)->Arg(128);

void
BM_DramStream(benchmark::State &state)
{
    for (auto _ : state) {
        dram::DramConfig cfg;
        dram::DramSystem mem(cfg);
        int issued = 0;
        sim::Cycle cycle = 0;
        while ((issued < 512 || !mem.idle()) && cycle < 100000) {
            ++cycle;
            while (issued < 512 &&
                   mem.enqueue(
                       dram::Request{static_cast<sim::Addr>(issued) * 64,
                                     false,
                                     static_cast<uint64_t>(issued)},
                       cycle))
                ++issued;
            mem.tick(cycle);
            mem.collectCompletions(cycle);
        }
        benchmark::DoNotOptimize(cycle);
    }
    state.SetBytesProcessed(state.iterations() * 512 * 64);
}
BENCHMARK(BM_DramStream);

} // namespace

BENCHMARK_MAIN();
