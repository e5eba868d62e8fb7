#include "bm3d/bm3d.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <type_traits>

#include "bm3d/blockmatch.h"
#include "bm3d/denoise.h"
#include "bm3d/seeding.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/pool.h"
#include "parallel/tiles.h"
#include "runtime/arena.h"
#include "transforms/dct.h"

namespace ideal {
namespace bm3d {

namespace {

/**
 * Per-executor scratch of the tiled runner: one denoising engine (DCT
 * tables, Haar transforms), one profile, and the match lists of the
 * tile row in flight, all reused across every tile the executor runs
 * so the hot path performs no per-tile heap allocation beyond its
 * aggregator.
 */
struct WorkerScratch
{
    Profile profile;
    /// Temporal-seed tries and hits of this executor's tiles.
    uint64_t seedRefs = 0;
    uint64_t seedHits = 0;
    std::optional<DenoiseEngine> engine;
    /// Match lists processTile searches into before the engine
    /// denoises them (DESIGN §5): the tile row in flight, plus the row
    /// above under MR's across-rows extension, or the whole tile under
    /// coarse-to-fine.
    std::vector<MatchList> lists;
};

/// Temporal seeding applies only to BM1 over the float DCT matching
/// domain (the streaming runtime never seeds the Wiener stage).
template <typename Domain>
constexpr bool kSeedable = std::is_same_v<Domain, DctMatchDomain>;

/**
 * Floor of the propagated adaptive bound, as a fraction of Tmatch.
 * On flat content the worst kept distance approaches 0 (thresholded-
 * DCT descriptors of smooth patches are nearly identical), and 0 times
 * any margin would reject the next cell's equally-good candidates
 * outright. The floor only ever *loosens* the cutoff — the propagated
 * bound is max(prev_worst * margin, floor) — so it bounds the quality
 * risk of mechanism 1 without affecting its pruning on structured
 * content, where worst distances sit well above Tmatch / 8.
 */
constexpr float kAdaptiveBoundFloor = 0.125f;

/**
 * Starting cutoff of a search under Config::variant.adaptiveBound: the
 * previous reference cell's worst kept distance scaled by the safety
 * margin and floored, or +inf when the mechanism is off, the margin is
 * infinite (the documented bitwise-dense setting), or there is nothing
 * to propagate (row start, or the previous list stayed underfull —
 * worstDistance() = +inf — which makes the mechanism self-healing: one
 * over-tight bound cannot cascade down a row).
 */
inline float
adaptiveBoundFrom(const MatchVariantConfig &v, float prev_worst,
                  float bound_floor)
{
    if (!v.adaptiveBound || !std::isfinite(v.boundMargin) ||
        !std::isfinite(prev_worst))
        return std::numeric_limits<float>::infinity();
    return std::max(prev_worst * v.boundMargin, bound_floor);
}

/**
 * Normalized residual of one match stack in [0, 1): mean kept distance
 * with every unfilled slot charged at Tmatch. 0 = a full stack of
 * perfect matches; ->1 = an empty or at-threshold stack. The per-tile
 * mean of this decides coarse-to-fine densification.
 */
inline float
stackResidual(const MatchList &m, float tau, int max_matches)
{
    float sum = 0.0f;
    for (const Match &mm : m)
        sum += std::min(mm.distance, tau);
    sum += static_cast<float>(max_matches - m.size()) * tau;
    return sum / (static_cast<float>(max_matches) * tau);
}

/**
 * Whether index @p i of [begin, end) lies on the subsampled coarse
 * grid: every @p stride-th index from begin, plus end - 1, so tile-edge
 * references are searched on every tile and image-edge pixels keep
 * reference coverage regardless of the stride.
 */
inline bool
onCoarseGrid(int i, int begin, int end, int stride)
{
    return (i - begin) % stride == 0 || i == end - 1;
}

/**
 * Process the reference patches of one 2-D tile with one matcher and
 * one denoising engine, applying Matches Reuse along each tile row.
 * This is the same work decomposition IDEALMR uses across its lanes
 * (Sec. 5.3: row granularity keeps MR locality within a worker), cut
 * into tiles so the work-stealing pool can balance load and the search
 * window's working set stays cache-resident.
 *
 * Each tile row runs in two phases, as IDEAL's matching engines fill
 * the match queue its denoising engine drains: every search of the
 * row writes its list into the worker's lists, then the engine
 * denoises the row's lists in order. Denoising never feeds matching
 * and the aggregation order is the reference order either way, so the
 * phases change no bit; they give each row one BM and one DE timer
 * instead of one per reference.
 *
 * Coarse-to-fine (variant.coarseToFine) adds a first pass that searches
 * the subsampled grid (onCoarseGrid in both axes) into a whole-tile
 * grid of lists and denoises nothing. The tile's mean stack residual
 * then decides the row loop: it keeps the lists the first pass
 * searched, and searches the other references if the tile densifies
 * or skips them if it stays coarse. Aggregation stays in row-major
 * order, so densifyThreshold <= 0 is bitwise the dense scan.
 * validate() rejects MR on this path.
 *
 * The tile's MR, adaptive and seed counts accumulate in @p ws; the
 * stage runner exports their sums once (StageRunner::finishStats).
 */
template <typename Domain>
void
processTile(const Bm3dConfig &cfg, Stage stage, const Domain &domain,
            const BlockMatcher<Domain> &matcher,
            const std::vector<int> &xs, const std::vector<int> &ys,
            const parallel::Tile &tile, Aggregator &agg, WorkerScratch &ws,
            TemporalSeed *seed)
{
    const Step bm_step =
        stage == Stage::HardThreshold ? Step::Bm1 : Step::Bm2;
    const float tau = matcher.tauMatch();
    const float reuse_bound = static_cast<float>(cfg.mr.k) * tau;
    const float bound_floor = kAdaptiveBoundFloor * tau;
    const int w = tile.width();
    const size_t grid_x = xs.size();
    const bool across_rows = cfg.mr.enabled && cfg.mr.acrossRows;
    const bool coarse = cfg.variant.coarseToFine;
    const int stride = cfg.variant.coarseStride;
    [[maybe_unused]] const int seed_coefs = domain.patchCoefs();

    MrStats mr;
    const bool hard = stage == Stage::HardThreshold;
    uint64_t &refs = hard ? mr.bm1Refs : mr.bm2Refs;
    uint64_t &hits = hard ? mr.bm1Hits : mr.bm2Hits;
    uint64_t &vert_hits = hard ? mr.bm1VertHits : mr.bm2VertHits;
    uint64_t &candidates = hard ? mr.bm1Candidates : mr.bm2Candidates;
    AdaptiveStats av;
    uint64_t seed_refs = 0;
    uint64_t seed_hits = 0;

    // One reference: reuse the left neighbour's matches (MR), else the
    // matches above (across rows), else the previous frame's at this
    // cell (temporal seed), else scan the window under the adaptive
    // cutoff propagated from @p carry; then remember the list for frame
    // t+1. A @p skip reference (coarse tile) gets an empty list and a
    // NaN descriptor, which no closeness check passes.
    auto step = [&](int xi, int yi, bool skip, float carry,
                    const MatchList *left, const MatchList *above,
                    MatchList &current) {
        const int x = xs[xi];
        const int y = ys[yi];
        [[maybe_unused]] const size_t ref_idx =
            static_cast<size_t>(yi) * grid_x + xi;
        [[maybe_unused]] float desc_tmp[64];
        [[maybe_unused]] float *desc = nullptr;
        if constexpr (kSeedable<Domain>) {
            if (seed != nullptr) {
                // Gather this reference's descriptor once: it is both
                // the value stored for frame t+1's closeness check and
                // the left side of frame t's check against the stored
                // t-1 descriptor.
                desc = seed->current != nullptr
                           ? seed->current->refDesc.data() +
                                 ref_idx * seed_coefs
                           : desc_tmp;
                if (skip)
                    std::fill_n(desc, seed_coefs,
                                std::numeric_limits<float>::quiet_NaN());
                else
                    domain.gatherRef(x, y, desc);
            }
        }
        if (skip) {
            current.clear();
            ++av.refsSkipped;
        } else {
            const float bound =
                adaptiveBoundFrom(cfg.variant, carry, bound_floor);
            bool reused = false;
            bool seeded = false;
            if (left != nullptr) {
                // The MR check: is the current reference patch close
                // enough to the previous one to reuse its matches?
                // (Sec. 5.1, strictness factor K.)
                ++candidates;
                if (matcher.referenceDistance(x, y, xs[xi - 1], y) <
                    reuse_bound) {
                    reused = true;
                    candidates += matcher.searchReuse(x, y, *left, current);
                }
            }
            if (!reused && above != nullptr) {
                // Across-rows fallback: try the reference patch
                // directly above.
                ++candidates;
                if (matcher.referenceDistance(x, y, x, ys[yi - 1]) <
                    reuse_bound) {
                    reused = true;
                    ++vert_hits;
                    candidates +=
                        matcher.searchReuseDown(x, y, *above, current);
                }
            }
            if constexpr (kSeedable<Domain>) {
                if (!reused && seed != nullptr &&
                    seed->previous != nullptr) {
                    // Temporal MR check: compare against the *previous
                    // frame's* descriptor at this grid cell. Scalar
                    // accumulation keeps the check — and therefore
                    // match selection — independent of the active SIMD
                    // level.
                    ++seed_refs;
                    const float *prev_desc =
                        seed->previous->refDesc.data() +
                        ref_idx * seed_coefs;
                    float ssd = 0.0f;
                    for (int k = 0; k < seed_coefs; ++k) {
                        const float diff = desc[k] - prev_desc[k];
                        ssd += diff * diff;
                    }
                    ++candidates;
                    if (ssd / static_cast<float>(seed_coefs) <
                        seed->reuseBound) {
                        seeded = true;
                        ++seed_hits;
                        candidates += matcher.searchSeeded(
                            x, y, seed->previous->cell(ref_idx),
                            seed->previous->count[ref_idx], seed->window,
                            current, bound, &av.prunedInserts);
                    }
                }
            }
            if (!reused && !seeded)
                candidates += matcher.search(x, y, current, bound,
                                             &av.prunedInserts);
            ++refs;
            // Seed hits are counted apart; MR stats keep their
            // single-frame (Fig. 10) meaning.
            hits += reused ? 1 : 0;
        }
        if constexpr (kSeedable<Domain>) {
            if (seed != nullptr && seed->current != nullptr) {
                // Remember this frame's matches for frame t+1.
                SeedStore &cs = *seed->current;
                SeedPos *slot = cs.pos.data() + ref_idx * cs.capacity();
                const int n = std::min(current.size(), cs.capacity());
                for (int k = 0; k < n; ++k) {
                    slot[k] =
                        SeedPos{static_cast<uint16_t>(current[k].x),
                                static_cast<uint16_t>(current[k].y)};
                }
                cs.count[ref_idx] = static_cast<uint8_t>(n);
            }
        }
    };

    // The row in flight, plus the row above under across-rows, or the
    // whole tile under coarse-to-fine, whose first pass fills rows
    // before the row loop reaches them.
    const int list_rows = coarse ? tile.height() : across_rows ? 2 : 1;
    std::vector<MatchList> &lists = ws.lists;
    lists.resize(static_cast<size_t>(list_rows) * w);

    // Coarse-to-fine's first pass: search the coarse grid, aggregate
    // nothing, and densify when the mean stack residual asks for it.
    bool densify = true;
    if (coarse) {
        double residual_sum = 0.0;
        int coarse_refs = 0;
        for (int yi = tile.y0; yi < tile.y1; ++yi) {
            if (!onCoarseGrid(yi, tile.y0, tile.y1, stride))
                continue;
            ScopedTimer timer(ws.profile, bm_step);
            MatchList *row =
                lists.data() + static_cast<size_t>(yi - tile.y0) * w;
            float carry = std::numeric_limits<float>::infinity();
            for (int xi = tile.x0; xi < tile.x1; ++xi) {
                if (!onCoarseGrid(xi, tile.x0, tile.x1, stride))
                    continue;
                MatchList &current = row[xi - tile.x0];
                step(xi, yi, false, carry, nullptr, nullptr, current);
                carry = current.worstDistance();
                residual_sum +=
                    stackResidual(current, tau, cfg.maxMatches);
                ++coarse_refs;
            }
        }
        densify = static_cast<float>(residual_sum / coarse_refs) >=
                  cfg.variant.densifyThreshold;
        if (densify)
            ++av.tilesDensified;
        else
            ++av.tilesCoarse;
    }

    // Across-rows extension state: the previous tile row's lists. The
    // two rows swap halves of the buffer at each row end.
    MatchList *row = lists.data();
    MatchList *row_above = across_rows ? row + w : nullptr;
    bool have_row_above = false;
    for (int yi = tile.y0; yi < tile.y1; ++yi) {
        if (coarse)
            row = lists.data() + static_cast<size_t>(yi - tile.y0) * w;
        const bool coarse_row =
            coarse && onCoarseGrid(yi, tile.y0, tile.y1, stride);
        {
            ScopedTimer timer(ws.profile, bm_step);
            // Adaptive early-termination state (variant.adaptiveBound):
            // the previous reference's worst kept distance, reset at
            // each row start like the MR chain.
            float carry = std::numeric_limits<float>::infinity();
            for (int i = 0; i < w; ++i) {
                const int xi = tile.x0 + i;
                if (!coarse_row ||
                    !onCoarseGrid(xi, tile.x0, tile.x1, stride)) {
                    step(xi, yi, !densify, carry,
                         cfg.mr.enabled && i > 0 ? &row[i - 1] : nullptr,
                         have_row_above ? &row_above[i] : nullptr, row[i]);
                }
                carry = row[i].worstDistance();
            }
        }
        ws.engine->processRow(row, w, agg);
        if (across_rows) {
            std::swap(row, row_above);
            have_row_above = true;
        }
    }
    ws.profile.mr() += mr;
    ws.profile.adaptive() += av;
    ws.seedRefs += seed_refs;
    ws.seedHits += seed_hits;
}

/**
 * Tiled work-stealing runner for one BM3D stage.
 *
 * The reference-patch grid is cut into 2-D tiles (a grid that depends
 * only on image size and cfg.tileGrain, never the thread count); the
 * shared pool distributes tiles across up to cfg.numThreads executors
 * with work stealing. Each tile accumulates into its own sub-region
 * aggregator sized to the tile's contribution footprint; the partial
 * sums are merged into the full image in tile order afterwards, so the
 * floating-point addition tree — and therefore the output image — is
 * identical for every thread count, including single-threaded runs.
 *
 * Tiles may be submitted all at once (the stage-major schedule) or as
 * consecutive tile-index ranges via runTileRange() — the row-band
 * streaming schedule of DESIGN §15, where a range is one horizontal
 * band of tile rows. Sequential in-order ranges execute the same
 * per-tile work and merge partial sums at the same global tile-order
 * cursor, so any banding is bitwise identical to one full-range run.
 */
template <typename Domain>
class StageRunner
{
  public:
    StageRunner(const Bm3dConfig &cfg, Stage stage, const Domain &domain,
                const image::ImageF &noisy, const image::ImageF *basic,
                const DctPatchField *field, const StageOptions &opts)
        : cfg_(cfg), stage_(stage), domain_(domain), noisy_(noisy),
          basic_(basic), field_(field), opts_(opts),
          matcher_(domain, cfg.searchWindow(stage), cfg.searchStride,
                   cfg.refStride, cfg.tauMatch(stage), cfg.maxMatches,
                   cfg.boundedDistance),
          xs_(makeRefPositions(domain.positionsX() - 1, cfg.refStride)),
          ys_(makeRefPositions(domain.positionsY() - 1, cfg.refStride)),
          tiles_(parallel::makeTiles(static_cast<int>(xs_.size()),
                                     static_cast<int>(ys_.size()),
                                     cfg.tileGrain)),
          threads_(std::min<int>(parallel::clampThreads(cfg.numThreads),
                                 static_cast<int>(tiles_.size()))),
          // Contribution footprint of a tile: matches lie within the
          // search window of a reference, and each patch extends
          // patchSize pixels.
          half_((cfg.searchWindow(stage) - 1) / 2),
          workers_(std::max(1, threads_)),
          // The full-image accumulator and the final output recycle
          // through the caller's arena (streaming runtime); the
          // per-tile aggregators deliberately stay on the plain heap —
          // their acquire/release order depends on work stealing,
          // which would make the arena's steady-state miss count
          // nondeterministic.
          total_(noisy.width(), noisy.height(), noisy.channels(),
                 opts.arena),
          pending_(tiles_.size())
    {
    }

    const std::vector<int> &xs() const { return xs_; }
    const std::vector<int> &ys() const { return ys_; }
    size_t tileCount() const { return tiles_.size(); }

    /** The merged accumulator (the band pipeline normalizes finished
        rows out of it via Aggregator::finalizeRowsInto). */
    const Aggregator &aggregator() const { return total_; }

    /**
     * Run tiles [first, last) on the shared pool. Ranges must be
     * submitted in ascending, non-overlapping order; each completed
     * tile still merges at the global tile-order cursor. Completed
     * tiles are merged into the total eagerly but strictly in tile
     * order (the cursor advances over consecutive ready tiles), so
     * memory stays bounded by the out-of-order window while the
     * addition tree stays identical for every thread count and every
     * banding of the ranges.
     */
    void
    runTileRange(size_t first, size_t last)
    {
        const int count = static_cast<int>(last - first);
        if (count <= 0)
            return;
        parallel::ThreadPool::global().run(
            count, std::min(threads_, count), [&](int i, int slot) {
                const size_t ti = first + i;
                WorkerScratch &ws = workers_[slot];
                if (!ws.engine) {
                    ws.engine.emplace(cfg_, stage_, noisy_, basic_,
                                      field_, &ws.profile, opts_.arena);
                }
                const parallel::Tile &tile = tiles_[ti];
                // Halo-expanded patch positions this tile's stacks can
                // reach; the pixel footprint extends patchSize past
                // the last position.
                const parallel::Region r = parallel::expandTile(
                    tile, xs_, ys_, half_, domain_.positionsX() - 1,
                    domain_.positionsY() - 1);
                Aggregator agg(r.x0, r.y0, r.x1 + cfg_.patchSize - r.x0,
                               r.y1 + cfg_.patchSize - r.y0,
                               noisy_.channels());
                ws.engine->prepareTile(r.x0, r.y0, r.x1, r.y1);
                processTile(cfg_, stage_, domain_, matcher_, xs_, ys_, tile,
                            agg, ws, opts_.seed);

                std::lock_guard<std::mutex> lock(mergeMutex_);
                pending_[ti].emplace(std::move(agg));
                while (mergeCursor_ < pending_.size() &&
                       pending_[mergeCursor_]) {
                    total_.merge(*pending_[mergeCursor_]);
                    pending_[mergeCursor_].reset();
                    ++mergeCursor_;
                }
            });
    }

    /**
     * Flush the per-worker profiles into @p profile, charge the stage's
     * block-matching ops, and export the stage's MR, adaptive, seed and
     * fused-datapath counters into the process-wide registry, so Fig.
     * 10's hit rates are readable from any embedding harness without
     * threading a Profile through it. Summed over workers, the totals
     * are thread-count and banding invariant. Call exactly once, after
     * the last runTileRange().
     */
    void
    finishStats(Profile &profile)
    {
        MrStats mr;
        AdaptiveStats av;
        uint64_t seed_refs = 0;
        uint64_t seed_hits = 0;
        DenoiseEngine::GroupStats group;
        for (const WorkerScratch &ws : workers_) {
            profile += ws.profile;
            mr += ws.profile.mr();
            av += ws.profile.adaptive();
            seed_refs += ws.seedRefs;
            seed_hits += ws.seedHits;
            if (!ws.engine)
                continue;
            const DenoiseEngine::GroupStats &g = ws.engine->groupStats();
            group.fusedStacks += g.fusedStacks;
            group.fusedPatches += g.fusedPatches;
            group.fusedStacksI16 += g.fusedStacksI16;
            group.legacyStacks += g.legacyStacks;
        }
        const bool hard = stage_ == Stage::HardThreshold;

        // Block-matching op accounting: each candidate distance costs
        // PD^2 subtract + multiply + add (Eq. 2).
        const uint64_t cand = hard ? mr.bm1Candidates : mr.bm2Candidates;
        const uint64_t pp =
            static_cast<uint64_t>(cfg_.patchSize) * cfg_.patchSize;
        OpCounters ops;
        ops.additions = cand * pp * 2;
        ops.multiplies = cand * pp;
        ops.memoryReads = cand * pp * 2;
        profile.addOps(hard ? Step::Bm1 : Step::Bm2, ops);

        obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
        auto add = [&reg](const char *name, uint64_t value) {
            reg.add(name, static_cast<double>(value));
        };
        if (hard) {
            add("bm3d.mr.bm1Refs", mr.bm1Refs);
            add("bm3d.mr.bm1Hits", mr.bm1Hits);
            add("bm3d.mr.bm1Candidates", mr.bm1Candidates);
        } else {
            add("bm3d.mr.bm2Refs", mr.bm2Refs);
            add("bm3d.mr.bm2Hits", mr.bm2Hits);
            add("bm3d.mr.bm2Candidates", mr.bm2Candidates);
        }
        add("bm3d.adaptive.prunedInserts", av.prunedInserts);
        if (cfg_.variant.coarseToFine) {
            add("bm3d.adaptive.tilesCoarse", av.tilesCoarse);
            add("bm3d.adaptive.tilesDensified", av.tilesDensified);
            add("bm3d.adaptive.refsSkipped", av.refsSkipped);
        }
        if constexpr (kSeedable<Domain>) {
            TemporalSeed *seed = opts_.seed;
            if (seed != nullptr && seed->previous != nullptr) {
                seed->refs.fetch_add(seed_refs, std::memory_order_relaxed);
                seed->hits.fetch_add(seed_hits, std::memory_order_relaxed);
                add("bm3d.seed.refs", seed_refs);
                add("bm3d.seed.hits", seed_hits);
            }
        }
        add("bm3d.group.fusedStacks", group.fusedStacks);
        add("bm3d.group.fusedPatches", group.fusedPatches);
        add("bm3d.group.fusedStacksI16", group.fusedStacksI16);
        add("bm3d.group.legacyStacks", group.legacyStacks);
    }

    /** total_.finalize over the stage's fallback image. */
    image::ImageF
    finalize()
    {
        const image::ImageF &fallback =
            stage_ == Stage::Wiener ? *basic_ : noisy_;
        return total_.finalize(fallback, opts_.arena);
    }

  private:
    const Bm3dConfig &cfg_;
    Stage stage_;
    const Domain &domain_;
    const image::ImageF &noisy_;
    const image::ImageF *basic_;
    const DctPatchField *field_;
    StageOptions opts_;
    BlockMatcher<Domain> matcher_;
    std::vector<int> xs_;
    std::vector<int> ys_;
    std::vector<parallel::Tile> tiles_;
    int threads_;
    int half_;
    std::vector<WorkerScratch> workers_;
    Aggregator total_;
    std::vector<std::optional<Aggregator>> pending_;
    std::mutex mergeMutex_;
    size_t mergeCursor_ = 0;
};

/**
 * One stage, stage-major or (cfg.band.enabled) in within-stage row
 * bands: consecutive tile-row ranges run to completion one after the
 * other — the order the streaming prepass fills the field in, keeping
 * each band's matching working set hot — with identical output either
 * way (see StageRunner::runTileRange).
 */
template <typename Domain>
image::ImageF
runStageWithDomain(const Bm3dConfig &cfg, Stage stage, const Domain &domain,
                   const image::ImageF &noisy, const image::ImageF *basic,
                   const DctPatchField *field, Profile &profile,
                   const StageOptions &opts)
{
    StageRunner<Domain> runner(cfg, stage, domain, noisy, basic, field,
                               opts);
    if (cfg.band.enabled) {
        const std::vector<parallel::TileBand> bands =
            parallel::makeTileBands(static_cast<int>(runner.xs().size()),
                                    static_cast<int>(runner.ys().size()),
                                    cfg.tileGrain, cfg.band.rows);
        for (const parallel::TileBand &b : bands) {
            obs::Span span("bm3d.band", "bm3d");
            runner.runTileRange(b.firstTile, b.lastTile);
        }
        obs::MetricsRegistry::global().add(
            "bm3d.band.bands", static_cast<double>(bands.size()));
    } else {
        runner.runTileRange(0, runner.tileCount());
    }
    runner.finishStats(profile);
    return runner.finalize();
}

/**
 * The cross-stage band pipeline behind Bm3d::denoise when
 * cfg.band.enabled (DESIGN §15). Per stage-1 band: fill the ring
 * field's newly needed position rows (DCT1), run the band's BM1+DE1
 * tiles, normalize the basic-estimate rows no later band can touch
 * (the frontier), then run every stage-2 band whose basic working set
 * — references plus search-window halo plus patch extent — is final.
 * The live DCT1 working set is the ring (band span + 2*half1 + 1 rows)
 * instead of the whole field, and BM2 reads basic rows while they are
 * still cache-hot.
 *
 * Work is reordered, arithmetic is not: tiles run in global tile order
 * within each stage, partial sums merge at each runner's tile-order
 * cursor, and finalizeRowsInto / the deferred int16 quantization are
 * per-sample — so the result is bitwise identical to the stage-major
 * schedule.
 */
template <typename Domain1, typename Domain2>
Bm3dResult
runBandedPipeline(const Bm3dConfig &cfg, const image::ImageF &noisy)
{
    constexpr bool kInt16 = std::is_same_v<Domain1, DctMatchDomainI16>;
    Bm3dResult result;
    Profile &profile = result.profile;
    obs::Span run_span("bm3d.banded", "bm3d");

    const int w = noisy.width();
    const int h = noisy.height();
    const int ps = cfg.patchSize;
    const int posY = h - ps + 1;
    transforms::Dct2D dct(ps);
    image::ImageF plane0 = noisy.extractPlane(0);

    // Both stages share one reference grid (the matching domains cover
    // the same position range), hence one band partition.
    const std::vector<int> xs = makeRefPositions(w - ps, cfg.refStride);
    const std::vector<int> ys = makeRefPositions(posY - 1, cfg.refStride);
    const std::vector<parallel::TileBand> bands =
        parallel::makeTileBands(static_cast<int>(xs.size()),
                                static_cast<int>(ys.size()),
                                cfg.tileGrain, cfg.band.rows);
    const int half1 = (cfg.searchWindow(Stage::HardThreshold) - 1) / 2;
    const int half2 = (cfg.searchWindow(Stage::Wiener) - 1) / 2;

    // Ring capacity: a band's tiles read position rows from
    // ys[first] - half1 through ys[last] + half1 (matching candidates
    // and Path-C raws alike), and fills ascend — so the widest band's
    // span plus both halos keeps every row a band needs resident at
    // the moment its fill cursor peaks. Clamped to the grid height:
    // images shorter than band + halo degenerate to whole-image mode.
    int ring = 0;
    for (const parallel::TileBand &b : bands)
        ring = std::max(ring, ys[b.y1 - 1] - ys[b.y0] + 2 * half1 + 1);
    ring = std::min(ring, posY);

    DctPatchField field;
    field.prepare(w, h, dct, nullptr, ring);
    if constexpr (kInt16)
        field.prepareI16();

    const float tht = cfg.lambda2d * cfg.sigma;
    StageOptions opts;
    Domain1 domain1(field);
    StageRunner<Domain1> s1(cfg, Stage::HardThreshold, domain1, noisy,
                            nullptr, &field, opts);

    // The basic estimate is written band by band via finalizeRowsInto;
    // the stage-2 domain is a view over its channel-0 plane (plus, for
    // int16, a quantized copy fed by the same frontier).
    result.basic = image::ImageF(w, h, noisy.channels());
    std::optional<Domain2> domain2;
    std::optional<StageRunner<Domain2>> s2;
    if (cfg.enableWiener) {
        if constexpr (kInt16)
            domain2.emplace(result.basic, ps, /*deferred=*/true);
        else
            domain2.emplace(result.basic, ps);
        s2.emplace(cfg, Stage::Wiener, *domain2, noisy, &result.basic,
                   nullptr, opts);
    }

    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    int filled = 0; ///< field position rows computed
    int done = 0;   ///< basic pixel rows finalized
    size_t q2 = 0;  ///< next stage-2 band
    uint64_t rows_filled = 0;
    for (size_t bi = 0; bi < bands.size(); ++bi) {
        const parallel::TileBand &b = bands[bi];
        const int need = std::min(posY, ys[b.y1 - 1] + half1 + 1);
        if (need > filled) {
            ScopedTimer timer(profile, Step::Dct1);
            OpCounters ops;
            const uint64_t n = field.fillRows(plane0, dct, tht,
                                              cfg.fixedPoint, filled,
                                              need);
            DctPatchField::countOps(n, ps, tht > 0.0f, &ops);
            if constexpr (kInt16)
                field.fillRowsI16(plane0, dct, tht, filled, need);
            profile.addOps(Step::Dct1, ops);
            rows_filled += static_cast<uint64_t>(need - filled);
            filled = need;
        }
        {
            obs::Span span("bm3d.band", "bm3d");
            s1.runTileRange(b.firstTile, b.lastTile);
        }
        // Pixel rows no later band's stacks can reach: the next band's
        // earliest match position row minus nothing below it — its
        // references start at ys[next.y0], matches at - half1. After
        // the last band, everything.
        const int frontier =
            bi + 1 < bands.size()
                ? std::min(h, std::max(0, ys[bands[bi + 1].y0] - half1))
                : h;
        if (frontier > done) {
            s1.aggregator().finalizeRowsInto(done, frontier, noisy,
                                             result.basic);
            if constexpr (kInt16) {
                if (cfg.enableWiener)
                    domain2->quantizeRows(result.basic, done, frontier);
            }
            done = frontier;
        }
        if (cfg.enableWiener) {
            // Release every stage-2 band whose working set — matches
            // within half2 of its references, patches extending ps
            // pixels — lies inside the finalized rows.
            while (q2 < bands.size() &&
                   std::min(h, ys[bands[q2].y1 - 1] + half2 + ps) <=
                       done) {
                obs::Span span("bm3d.band", "bm3d");
                s2->runTileRange(bands[q2].firstTile,
                                 bands[q2].lastTile);
                ++q2;
            }
        }
    }
    s1.finishStats(profile);
    reg.add("bm3d.band.rowsFilled", static_cast<double>(rows_filled));
    reg.add("bm3d.band.bands",
            static_cast<double>(bands.size() *
                                (cfg.enableWiener ? 2 : 1)));
    if (cfg.enableWiener) {
        s2->finishStats(profile);
        result.output = s2->finalize();
    } else {
        result.output = result.basic;
    }
    return result;
}

} // namespace

std::vector<int>
makeRefPositions(int last_valid, int stride)
{
    std::vector<int> xs;
    for (int x = 0; x <= last_valid; x += stride)
        xs.push_back(x);
    if (xs.back() != last_valid)
        xs.push_back(last_valid);
    return xs;
}

Bm3d::Bm3d(Bm3dConfig config) : config_(std::move(config))
{
    config_.validate();
}

image::ImageF
Bm3d::runStage(Stage stage, const image::ImageF &noisy,
               const image::ImageF *basic, Profile &profile) const
{
    return runStage(stage, noisy, basic, profile, StageOptions{});
}

image::ImageF
Bm3d::runStage(Stage stage, const image::ImageF &noisy,
               const image::ImageF *basic, Profile &profile,
               const StageOptions &opts) const
{
    if (noisy.width() < config_.patchSize ||
        noisy.height() < config_.patchSize) {
        throw std::invalid_argument("Bm3d: image smaller than patch");
    }
    obs::Span stage_span(stage == Stage::HardThreshold ? "bm3d.stage1"
                                                       : "bm3d.stage2",
                         "bm3d");
    transforms::Dct2D dct(config_.patchSize);
    if (stage == Stage::HardThreshold) {
        if (opts.field != nullptr) {
            // Streaming runtime: the prepass already computed DCT1 on
            // another thread (overlapping the previous frame's
            // stage 2), and accounts its time/ops itself.
            if (config_.precision == Precision::Int16 &&
                opts.field->hasInt16()) {
                DctMatchDomainI16 domain(*opts.field);
                return runStageWithDomain(config_, stage, domain, noisy,
                                          basic, opts.field, profile,
                                          opts);
            }
            DctMatchDomain domain(*opts.field);
            return runStageWithDomain(config_, stage, domain, noisy,
                                      basic, opts.field, profile, opts);
        }
        // DCT1: transform every patch of the matching channel once
        // (Path A); the field also serves the denoiser via Path C.
        DctPatchField field;
        {
            ScopedTimer timer(profile, Step::Dct1);
            OpCounters ops;
            image::ImageF plane0 = noisy.extractPlane(0);
            field.build(plane0, dct, config_.lambda2d * config_.sigma,
                        config_.fixedPoint, &ops, opts.arena);
            if (config_.precision == Precision::Int16) {
                // Int16 matching planes in addition to the float field:
                // DE1 still reads the float raw coefficients (Path C),
                // only BM1's SSD datapath is quantized.
                field.prepareI16();
                field.fillRowsI16(plane0, dct,
                                  config_.lambda2d * config_.sigma, 0,
                                  field.positionsY());
            }
            profile.addOps(Step::Dct1, ops);
        }
        if (config_.precision == Precision::Int16) {
            DctMatchDomainI16 domain(field);
            return runStageWithDomain(config_, stage, domain, noisy,
                                      basic, &field, profile, opts);
        }
        DctMatchDomain domain(field);
        return runStageWithDomain(config_, stage, domain, noisy, basic,
                                  &field, profile, opts);
    }
    // Wiener stage: matching runs in the color domain of the basic
    // estimate (Path B); no patch field is needed.
    if (basic == nullptr)
        throw std::invalid_argument("Wiener stage requires basic estimate");
    image::ImageF basic_plane0;
    if (opts.arena != nullptr) {
        const size_t n =
            static_cast<size_t>(basic->width()) * basic->height();
        basic_plane0.adopt(basic->width(), basic->height(), 1,
                           opts.arena->acquire(n));
        const float *src = basic->plane(0);
        std::copy(src, src + n, basic_plane0.plane(0));
    } else {
        basic_plane0 = basic->extractPlane(0);
    }
    image::ImageF out;
    if (config_.precision == Precision::Int16) {
        // BM2 in int16: quantize the basic-estimate matching plane to
        // Q8.4 once; DE2 stays float on the original planes.
        ColorMatchDomainI16 domain(basic_plane0, config_.patchSize);
        out = runStageWithDomain(config_, stage, domain, noisy, basic,
                                 nullptr, profile, opts);
    } else {
        ColorMatchDomain domain(basic_plane0, config_.patchSize);
        out = runStageWithDomain(config_, stage, domain, noisy, basic,
                                 nullptr, profile, opts);
    }
    if (opts.arena != nullptr)
        opts.arena->release(basic_plane0.takeStorage());
    return out;
}

Bm3dResult
Bm3d::denoise(const image::ImageF &noisy) const
{
    if (config_.band.enabled) {
        // Row-band streaming schedule (DESIGN §15): ring-resident DCT1
        // field, frontier-driven cross-stage pipelining, bitwise
        // identical to the stage-major path below.
        if (noisy.width() < config_.patchSize ||
            noisy.height() < config_.patchSize) {
            throw std::invalid_argument("Bm3d: image smaller than patch");
        }
        if (config_.precision == Precision::Int16) {
            return runBandedPipeline<DctMatchDomainI16,
                                     ColorMatchDomainI16>(config_, noisy);
        }
        return runBandedPipeline<DctMatchDomain, ColorMatchDomain>(
            config_, noisy);
    }
    Bm3dResult result;
    result.basic =
        runStage(Stage::HardThreshold, noisy, nullptr, result.profile);
    if (config_.enableWiener) {
        result.output = runStage(Stage::Wiener, noisy, &result.basic,
                                 result.profile);
    } else {
        result.output = result.basic;
    }
    return result;
}

} // namespace bm3d
} // namespace ideal
