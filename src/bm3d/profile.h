#ifndef IDEAL_BM3D_PROFILE_H_
#define IDEAL_BM3D_PROFILE_H_

/**
 * @file
 * Per-step time and operation accounting for the software BM3D
 * implementation. The step taxonomy matches the paper's breakdown
 * (Fig. 4): DCT1, BM1, DE1, BM2, DCT2, DE2. Operation counts feed the
 * CPU microarchitectural proxy (Table 1) and the energy model.
 */

#include <array>
#include <chrono>
#include <cstdint>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace ideal {
namespace bm3d {

/** Algorithm steps in pipeline order. */
enum class Step : int {
    Dct1 = 0, ///< DCT of all patches for stage 1
    Bm1,      ///< block matching, hard-thresholding stage
    De1,      ///< denoising (hard threshold filter)
    Bm2,      ///< block matching, Wiener stage
    Dct2,     ///< stage-2 transform-once tile-cache builds
    De2,      ///< denoising (Wiener filter), gathers included
    Count,
};

constexpr int kNumSteps = static_cast<int>(Step::Count);

/** Printable step name matching the paper's figure labels. */
const char *toString(Step step);

/** Arithmetic / memory operation counters (for Table 1 and energy). */
struct OpCounters
{
    uint64_t multiplies = 0;
    uint64_t additions = 0;
    uint64_t comparisons = 0;
    uint64_t memoryReads = 0;  ///< sample loads
    uint64_t memoryWrites = 0; ///< sample stores

    OpCounters &
    operator+=(const OpCounters &other)
    {
        multiplies += other.multiplies;
        additions += other.additions;
        comparisons += other.comparisons;
        memoryReads += other.memoryReads;
        memoryWrites += other.memoryWrites;
        return *this;
    }

    uint64_t
    total() const
    {
        return multiplies + additions + comparisons + memoryReads +
               memoryWrites;
    }
};

/** Matches-Reuse statistics (Fig. 10). */
struct MrStats
{
    uint64_t bm1Hits = 0;       ///< reference patches that reused matches
    uint64_t bm1Refs = 0;       ///< reference patches processed in BM1
    uint64_t bm2Hits = 0;
    uint64_t bm2Refs = 0;
    uint64_t bm1Candidates = 0; ///< distance computations in BM1
    uint64_t bm2Candidates = 0;
    /// Subset of hits that reused the row above (the across-rows
    /// extension; 0 when it is disabled).
    uint64_t bm1VertHits = 0;
    uint64_t bm2VertHits = 0;

    double
    hitRate1() const
    {
        return bm1Refs ? static_cast<double>(bm1Hits) / bm1Refs : 0.0;
    }

    double
    hitRate2() const
    {
        return bm2Refs ? static_cast<double>(bm2Hits) / bm2Refs : 0.0;
    }

    MrStats &
    operator+=(const MrStats &other)
    {
        bm1Hits += other.bm1Hits;
        bm1Refs += other.bm1Refs;
        bm2Hits += other.bm2Hits;
        bm2Refs += other.bm2Refs;
        bm1Candidates += other.bm1Candidates;
        bm2Candidates += other.bm2Candidates;
        bm1VertHits += other.bm1VertHits;
        bm2VertHits += other.bm2VertHits;
        return *this;
    }
};

/**
 * Adaptive fast-matching statistics (Config::variant, DESIGN §11).
 * All counts are deterministic for a given configuration, SIMD level
 * and image — selection is bitwise-reproducible — so the bench
 * harness gates them with --ops-tolerance 0 like op counts.
 */
struct AdaptiveStats
{
    /// Candidates below Tmatch that the running/propagated cutoff
    /// rejected without an insertion attempt (both stages).
    uint64_t prunedInserts = 0;
    /// Tiles processed on the subsampled reference grid and left
    /// coarse (residual below the densify threshold).
    uint64_t tilesCoarse = 0;
    /// Coarse tiles whose residual reached the threshold and were
    /// densified back to the full reference grid.
    uint64_t tilesDensified = 0;
    /// Reference positions skipped by coarse tiles (never searched).
    uint64_t refsSkipped = 0;

    AdaptiveStats &
    operator+=(const AdaptiveStats &other)
    {
        prunedInserts += other.prunedInserts;
        tilesCoarse += other.tilesCoarse;
        tilesDensified += other.tilesDensified;
        refsSkipped += other.refsSkipped;
        return *this;
    }
};

/** Accumulated profile of one denoising run. */
class Profile
{
  public:
    /** Add @p seconds of wall time to @p step. */
    void
    addTime(Step step, double seconds)
    {
        seconds_[static_cast<int>(step)] += seconds;
    }

    /** Add operation counts to @p step. */
    void
    addOps(Step step, const OpCounters &ops)
    {
        ops_[static_cast<int>(step)] += ops;
    }

    double seconds(Step step) const
    {
        return seconds_[static_cast<int>(step)];
    }

    const OpCounters &ops(Step step) const
    {
        return ops_[static_cast<int>(step)];
    }

    double
    totalSeconds() const
    {
        double total = 0.0;
        for (double s : seconds_)
            total += s;
        return total;
    }

    OpCounters
    totalOps() const
    {
        OpCounters total;
        for (const auto &o : ops_)
            total += o;
        return total;
    }

    MrStats &mr() { return mr_; }
    const MrStats &mr() const { return mr_; }

    AdaptiveStats &adaptive() { return adaptive_; }
    const AdaptiveStats &adaptive() const { return adaptive_; }

    Profile &
    operator+=(const Profile &other)
    {
        for (int i = 0; i < kNumSteps; ++i) {
            seconds_[i] += other.seconds_[i];
            ops_[i] += other.ops_[i];
        }
        mr_ += other.mr_;
        adaptive_ += other.adaptive_;
        return *this;
    }

    /**
     * Export to the observability interchange format under
     * hierarchical dotted names: <prefix>.<STEP>.seconds,
     * <prefix>.<STEP>.ops.<class>, <prefix>.mr.<counter> — everything
     * a counter (profiles sum when workers merge). Profile itself
     * stays array-backed: it is per-worker hot-path state, updated
     * once per tile row; the adapter boundary to the registry is this
     * snapshot.
     */
    obs::MetricsSnapshot snapshot(const std::string &prefix = "bm3d") const;

  private:
    std::array<double, kNumSteps> seconds_{};
    std::array<OpCounters, kNumSteps> ops_{};
    MrStats mr_;
    AdaptiveStats adaptive_;
};

/**
 * RAII wall-clock timer adding its lifetime to a profile step.
 *
 * Doubles as the six paper steps' trace instrumentation: under
 * IDEAL_TRACE + IDEAL_TRACE_STEPS=1 each timer also emits a "step"
 * category span named after the step (DCT1..DE2). The BM3D tile loops
 * time each tile row once under BM and once under DE (DESIGN §5), and
 * the DCT steps once per field or tile-cache build, so their timers
 * never nest and the step seconds of a one-thread Bm3d::denoise sum
 * to at most its wall time (V-BM3D, src/bm3d/video.cc, still times
 * per reference). Step spans multiply trace size by the number of
 * tile rows — that is why the category is opt-in; when tracing is off
 * the span member costs one relaxed load.
 */
class ScopedTimer
{
  public:
    ScopedTimer(Profile &profile, Step step)
        : profile_(profile), step_(step),
          start_(std::chrono::steady_clock::now()), span_(toString(step))
    {
    }

    ~ScopedTimer()
    {
        auto end = std::chrono::steady_clock::now();
        profile_.addTime(
            step_, std::chrono::duration<double>(end - start_).count());
    }

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    Profile &profile_;
    Step step_;
    std::chrono::steady_clock::time_point start_;
    obs::StepSpan span_;
};

} // namespace bm3d
} // namespace ideal

#endif // IDEAL_BM3D_PROFILE_H_
