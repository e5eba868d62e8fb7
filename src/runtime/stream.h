#ifndef IDEAL_RUNTIME_STREAM_H_
#define IDEAL_RUNTIME_STREAM_H_

/**
 * @file
 * Streaming frame-pipeline runtime (DESIGN §9): a StreamDenoiser
 * pipelines consecutive video frames through BM3D as a one-session
 * service::DenoiseService — one session, one dispatch lane, no
 * sharding — so the service code is the only frame pipeline:
 *
 *  - a bounded, in-order submit()/collect() frame queue (submit blocks
 *    when queueDepth frames are waiting: backpressure toward the
 *    producer);
 *  - the service's scheduler thread computes frame t+1's DCT1 patch
 *    field while its lane runs frame t's matching/denoising stages
 *    (cross-frame stage overlap, "service.prepass" / "service.frame"
 *    spans in the Chrome trace);
 *  - one BufferArena recycling every large per-frame buffer, so the
 *    steady state performs no heap allocation (DESIGN §13: field
 *    slots, arena and seeding are described once, there);
 *  - optional temporal match seeding (StreamConfig::temporalSeed):
 *    frame t's BM1 reuses frame t-1's per-cell match lists behind an
 *    MR-style descriptor check, scanning a small re-verification
 *    window instead of the full Ns x Ns search.
 *
 * With temporalSeed off, a streamed clip is bitwise identical to
 * running Bm3d::denoise() per frame — for every SIMD level and thread
 * count (the per-frame pipeline underneath is unchanged; the arena
 * only changes where buffers live).
 */

#include <cstdint>
#include <memory>
#include <vector>

#include "bm3d/bm3d.h"
#include "bm3d/profile.h"
#include "image/image.h"
#include "runtime/arena.h"

namespace ideal {
namespace service {
class DenoiseService;
} // namespace service

namespace runtime {

/** Configuration of a streaming run. */
struct StreamConfig
{
    /// Per-frame BM3D configuration (threads, stages, MR, ...).
    bm3d::Bm3dConfig frame;

    /// Maximum frames waiting in the input queue before submit()
    /// blocks. (The prepass and the stages hold up to one frame each
    /// on top of this.)
    int queueDepth = 3;

    /// Seed frame t's BM1 with frame t-1's match lists. Changes which
    /// candidates BM1 scores (quality-neutral within ~0.05 dB on
    /// static content); off keeps streamed output bitwise equal to
    /// the per-frame batch path. Only the float DCT matching domain
    /// seeds, so validate() rejects it under Precision::Int16.
    bool temporalSeed = false;

    /// Strictness of the temporal reuse check, as a fraction of
    /// tauMatch1 (the MR K factor applied across time).
    double seedK = 0.25;

    /// Odd re-verification window (<= searchWindow1) scanned around
    /// each seeded reference.
    int seedWindow = 9;

    /** Validate invariants; throws std::invalid_argument on error. */
    void validate() const;
};

/** Aggregate statistics of a finished (or running) stream. */
struct StreamStats
{
    uint64_t frames = 0;    ///< frames fully processed
    double wallSeconds = 0; ///< first submit() to last frame done

    /// Per-frame latency (submit() to output ready), in frame order.
    std::vector<double> latenciesMs;

    uint64_t arenaHits = 0;     ///< arena requests served by recycling
    uint64_t arenaMisses = 0;   ///< arena requests that allocated
    uint64_t arenaBytesNew = 0; ///< total fresh heap bytes via arena
    /// Fresh heap bytes allocated via the arena after the 2nd frame
    /// completed — 0 in the malloc-free steady state.
    uint64_t arenaBytesNewSteady = 0;

    uint64_t seedRefs = 0; ///< references where seeding was attempted
    uint64_t seedHits = 0; ///< references served by the seeded search

    bm3d::Profile profile; ///< per-step accounting, frames merged in order
};

/**
 * Pipelined video denoiser over the per-frame Bm3d engine.
 *
 * Threading model: submit()/collect() are called by the user (from one
 * or more threads); internally the service's scheduler thread computes
 * DCT1 fields and its one lane runs the BM3D stages (the lane is the
 * only thread that dispatches to the global ThreadPool). Frames come
 * out of collect() in submit order.
 *
 * Lifecycle: submit each frame, call finish(), collect every output
 * (collect may also be called concurrently with submission — the
 * output queue is unbounded, so a submit-all-then-collect-all pattern
 * cannot deadlock). A further collect() after the last output throws
 * std::logic_error; submit() after finish() throws std::logic_error.
 * Errors raised inside the pipeline re-throw from submit()/collect().
 */
class StreamDenoiser
{
  public:
    /** @throws std::invalid_argument when the config is inconsistent */
    explicit StreamDenoiser(StreamConfig config);

    /** Implies finish(); uncollected outputs are discarded. */
    ~StreamDenoiser();

    StreamDenoiser(const StreamDenoiser &) = delete;
    StreamDenoiser &operator=(const StreamDenoiser &) = delete;

    /**
     * Enqueue a frame (blocks while queueDepth frames are waiting).
     * Every frame must share the first frame's shape.
     */
    void submit(image::ImageF frame);

    /** Dequeue the next output, in submit order (blocks until ready). */
    image::ImageF collect();

    /** Close the input and wait for in-flight frames; idempotent. */
    void finish();

    /**
     * Hand a collected output's storage back to the arena. It is kept
     * only when the arena has no free buffer of its size (each input
     * frame already feeds the next output), so recycling every output
     * holds the free list steady instead of growing it a frame a time.
     */
    void recycle(image::ImageF &&frame);

    const StreamConfig &config() const { return config_; }
    BufferArena &arena();

    /** Snapshot of the stream statistics (complete after finish()). */
    StreamStats stats() const;

  private:
    StreamConfig config_;
    std::unique_ptr<service::DenoiseService> service_;
};

} // namespace runtime
} // namespace ideal

#endif // IDEAL_RUNTIME_STREAM_H_
