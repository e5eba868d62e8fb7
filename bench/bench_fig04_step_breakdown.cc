/**
 * @file
 * Fig. 4: per-step runtime breakdown (DCT1, BM1, DE1, BM2, DCT2, DE2)
 * for the CPU and GPU implementations. CPU fractions are measured via
 * the instrumented profile; GPU fractions come from the calibrated
 * model (87% block matching, Sec. 3.3).
 */

#include <cstdio>

#include "bench/common.h"

using namespace ideal;
using bench::fmt;

int
main()
{
    bench::printHeader("Fig. 4", "runtime breakdown per algorithm step");

    const auto &cpu = bench::baselines().rate(baseline::Platform::CpuVect);
    const auto &gpu = bench::baselines().rate(baseline::Platform::Gpu);

    // No step timer runs inside another, so the measured fractions
    // already partition the run.
    const auto &fc = cpu.stepFraction;
    const auto &fg = gpu.stepFraction;

    std::vector<int> widths = {8, 12, 12};
    bench::printRow({"step", "CPU", "GPU"}, widths);
    for (int i = 0; i < bm3d::kNumSteps; ++i) {
        bench::printRow({toString(static_cast<bm3d::Step>(i)),
                         fmt(fc[i] * 100, 1) + "%",
                         fmt(fg[i] * 100, 1) + "%"},
                        widths);
    }

    double cpu_bm = fc[static_cast<int>(bm3d::Step::Bm1)] +
                    fc[static_cast<int>(bm3d::Step::Bm2)];
    double gpu_bm = fg[static_cast<int>(bm3d::Step::Bm1)] +
                    fg[static_cast<int>(bm3d::Step::Bm2)];
    std::printf("\nblock matching share: CPU %.0f%% (paper: 67%%), "
                "GPU %.0f%% (paper: 87%%)\n",
                cpu_bm * 100, gpu_bm * 100);
    std::printf("conclusion: BM dominates; an accelerator must attack "
                "the search (MR does exactly that).\n");
    return 0;
}
