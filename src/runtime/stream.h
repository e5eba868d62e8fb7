#ifndef IDEAL_RUNTIME_STREAM_H_
#define IDEAL_RUNTIME_STREAM_H_

/**
 * @file
 * Streaming frame-pipeline runtime (DESIGN §9): a StreamDenoiser owns
 * the use of the global thread pool and pipelines consecutive video
 * frames through BM3D with
 *
 *  - a bounded, in-order submit()/collect() frame queue (submit blocks
 *    when queueDepth frames are waiting: backpressure toward the
 *    producer);
 *  - a DCT1 prepass thread that computes frame t+1's patch field while
 *    the driver thread runs frame t's matching/denoising stages
 *    (cross-frame stage overlap, visible as "stream.prepass" /
 *    "stream.frame" spans in the Chrome trace);
 *  - one BufferArena recycling every large per-frame buffer, so the
 *    steady state performs no heap allocation (proven by the
 *    arena.bytesNew counter staying flat from frame 3 on);
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

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "bm3d/bm3d.h"
#include "bm3d/patchfield.h"
#include "bm3d/profile.h"
#include "bm3d/seeding.h"
#include "image/image.h"
#include "runtime/arena.h"
#include "transforms/dct.h"

namespace ideal {
namespace runtime {

/** Configuration of a streaming run. */
struct StreamConfig
{
    /// Per-frame BM3D configuration (threads, stages, MR, ...).
    bm3d::Bm3dConfig frame;

    /// Maximum frames waiting in the input queue before submit()
    /// blocks. (The prepass and driver hold up to one frame each on
    /// top of this.)
    int queueDepth = 3;

    /// Seed frame t's BM1 with frame t-1's match lists. Changes which
    /// candidates BM1 scores (quality-neutral within ~0.05 dB on
    /// static content); off keeps streamed output bitwise equal to
    /// the per-frame batch path.
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
 * or more threads); internally one prepass thread computes DCT1 fields
 * and one driver thread runs the BM3D stages (the driver is the only
 * thread that dispatches to the global ThreadPool, so nested-run
 * restrictions never trigger). Frames come out of collect() in submit
 * order.
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
    void
    recycle(image::ImageF &&frame)
    {
        arena_.offer(frame.takeStorage());
    }

    const StreamConfig &config() const { return config_; }
    BufferArena &arena() { return arena_; }

    /** Snapshot of the stream statistics (complete after finish()). */
    StreamStats stats() const;

  private:
    /// A submitted frame plus its enqueue time (latency starts here).
    struct InputItem
    {
        image::ImageF frame;
        std::chrono::steady_clock::time_point enqueued;
    };

    /**
     * Persistent prepass workspace: the matching plane copy and the
     * DCT1 field of one in-flight frame. Two slots ping-pong between
     * the prepass (building t+1) and the driver (matching t), and
     * their arena-backed storage is ensured in place. Free slots are
     * handed out first-in first-out, so frames 1 and 2 always warm
     * both slots and from frame 3 on the prepass allocates nothing,
     * however the two threads interleave.
     */
    struct FieldSlot
    {
        image::ImageF plane0;
        bm3d::DctPatchField field;
        bm3d::Profile prepassProfile;
    };

    /// A frame whose DCT1 field is ready for the driver.
    struct MidItem
    {
        image::ImageF frame;
        FieldSlot *slot = nullptr;
        std::chrono::steady_clock::time_point enqueued;
    };

    void prepassMain();
    void driverMain();
    void processFrame(MidItem item);
    void fail(std::exception_ptr error);

    StreamConfig config_;
    bm3d::Bm3d bm3d_;
    transforms::Dct2D dct_;
    float tht_; ///< DCT1 hard threshold (lambda2d * sigma)
    BufferArena arena_;

    static constexpr int kSlots = 2; ///< prepass + driver, ping-pong
    std::vector<std::unique_ptr<FieldSlot>> slots_;

    /// One mutex + one cv guard every queue and flag below: state
    /// changes are per-frame, so contention is negligible, and a
    /// single notify_all after each transition keeps the protocol
    /// obviously deadlock-free (every waiter re-checks its predicate).
    mutable std::mutex mutex_;
    std::condition_variable cv_;

    std::deque<InputItem> inputQueue_;       ///< bounded by queueDepth
    std::deque<MidItem> midQueue_;           ///< bounded to 1
    std::deque<FieldSlot *> freeSlots_;      ///< FIFO, see FieldSlot
    std::deque<image::ImageF> outputQueue_;  ///< unbounded, see class doc
    bool inputClosed_ = false;
    bool prepassDone_ = false; ///< prepass drained its side of the queue
    bool outputClosed_ = false;
    std::exception_ptr error_;

    // Stream-lifetime state below is written by the driver (and
    // submit() for shape/t0) under mutex_.
    int width_ = 0, height_ = 0, channels_ = 0; ///< 0 until first frame
    bool haveT0_ = false;
    std::chrono::steady_clock::time_point t0_;
    std::chrono::steady_clock::time_point lastDone_;
    uint64_t framesDone_ = 0;
    uint64_t steadyBaseline_ = 0; ///< arena bytesNew after 2nd frame
    std::vector<double> latenciesMs_;
    uint64_t seedRefs_ = 0;
    uint64_t seedHits_ = 0;
    bm3d::Profile profile_;

    // Driver-thread-only seeding state (no locking needed).
    bm3d::SeedStore seedStores_[2]; ///< ping-pong: read t-1, write t
    uint64_t frameIndex_ = 0;

    std::thread prepass_;
    std::thread driver_;
    bool joined_ = false;
};

} // namespace runtime
} // namespace ideal

#endif // IDEAL_RUNTIME_STREAM_H_
