#ifndef IDEAL_SERVICE_SERVICE_H_
#define IDEAL_SERVICE_SERVICE_H_

/**
 * @file
 * Multi-tenant denoise service (DESIGN §13): a DenoiseService
 * multiplexes N independent tenant sessions over the single shared
 * work-stealing pool. It is the repository's only frame pipeline:
 * runtime::StreamDenoiser is a one-session DenoiseService (DESIGN §9).
 *
 *  - Each session owns a StreamConfig (per-frame BM3D configuration +
 *    bounded queue depth + temporal seeding knobs), a priority class,
 *    a weighted-fair share, and a *private* BufferArena — tenants
 *    never exchange storage, and each tenant's steady state stays
 *    malloc-free.
 *
 *  - Admission control is two-level: a per-session bounded input
 *    queue (StreamConfig::queueDepth) plus a shared queued-frame
 *    budget with priority-tiered thresholds — Low-priority tenants
 *    may fill at most half the shared budget, Normal three quarters,
 *    High all of it. A submit that hits either bound blocks
 *    (AdmissionPolicy::Block) or is rejected and counted
 *    (AdmissionPolicy::Reject), per session. Rejecting low before
 *    high ever misses its queue bound is the service's overload
 *    contract (tested in tests/test_service.cc).
 *
 *  - Scheduling is weighted fair queueing over the ready sessions:
 *    the scheduler always dispatches the session with the smallest
 *    virtual time, advancing it by framePixels / effectiveWeight with
 *    effectiveWeight = weight * 4^priority. Decisions depend only on
 *    queue contents — a pre-filled (paused) workload replays an
 *    identical schedule, which is what makes the admission counters
 *    and dispatch order byte-for-byte reproducible in CI.
 *
 *  - Large frames are sharded across the pool via the existing
 *    deterministic tile grid: a frame of at least
 *    ServiceConfig::shardPixels pixels runs at shardThreads workers
 *    instead of the session's own numThreads. The tile grid depends
 *    only on the image size, never the worker count, so sharding (or
 *    any scheduling decision) can never change a tenant's output.
 *
 * Determinism contract: per-session output is bitwise identical to
 * the same session run alone (a runtime::StreamDenoiser of the same
 * StreamConfig) over the same admitted frames — for every SIMD level,
 * thread count, and precision. The service layer may reorder
 * *scheduling*, never *arithmetic*: frames of one session are
 * processed sequentially in submit order with the session's own
 * engine, seed stores, and arena.
 */

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "image/image.h"
#include "runtime/arena.h"
#include "runtime/stream.h"

namespace ideal {
namespace service {

/**
 * Priority class of a session. Affects the admission tier (share of
 * the global queued-frame budget the class may occupy) and the
 * weighted-fair share (effectiveWeight = weight * 4^priority).
 */
enum class Priority : int {
    Low = 0,
    Normal = 1,
    High = 2,
};

const char *toString(Priority priority);

/** What submit() does when a session hits an admission bound. */
enum class AdmissionPolicy {
    Block,  ///< wait until the frame is admissible (backpressure)
    Reject, ///< return false immediately and count the reject
};

/** Configuration of one tenant session. */
struct SessionConfig
{
    /// Tenant id: the metrics scope ("service.<name>.*") and the
    /// per-tenant row key in bench records. Must be unique and
    /// non-empty.
    std::string name;

    /// The solo-equivalent streaming configuration: per-frame BM3D
    /// config, bounded input queue depth, temporal seeding knobs.
    /// The service's determinism contract is stated against a solo
    /// StreamDenoiser constructed from exactly this value.
    runtime::StreamConfig stream;

    Priority priority = Priority::Normal;

    /// Weighted-fair share within (and across) priority classes;
    /// must be positive and finite.
    double weight = 1.0;

    AdmissionPolicy policy = AdmissionPolicy::Block;

    /** Validate invariants; throws std::invalid_argument on error. */
    void validate() const;
};

/**
 * Test-only fault injection: degrade exactly one tenant and prove the
 * others don't notice (graceful isolation; see tests/test_service.cc).
 */
struct FaultInjection
{
    enum class Kind {
        None,
        /// collect() on the faulted tenant sleeps stallMs (outside the
        /// service lock) before dequeuing — a slow consumer.
        StallCollect,
        /// The faulted tenant's outputs are discarded on completion
        /// (storage returns to its arena) — a dead consumer. collect()
        /// on it throws std::logic_error once the session drains.
        DropOutputs,
    };

    Kind kind = Kind::None;
    std::string tenant; ///< faulted session name (empty = none)
    int stallMs = 0;    ///< StallCollect sleep per collect() call
};

/** Configuration of the service. */
struct ServiceConfig
{
    /**
     * Frames of at least this many pixels (width * height) are
     * sharded across the shared pool at shardThreads workers via the
     * deterministic tile grid; smaller frames run at the session's
     * own numThreads. 0 shards everything.
     */
    size_t shardPixels = 512 * 512;

    /// Worker count for sharded frames; <= 0 selects the hardware
    /// thread count. The clamped value is also the number of dispatch
    /// lanes: frames of different sessions in stages at once.
    int shardThreads = 0;

    /**
     * Global bound on frames queued across all sessions. Priority
     * tiers apply on top: Low may occupy budget/2, Normal 3*budget/4,
     * High the full budget — so under overload the low classes are
     * throttled (blocked or rejected) first.
     */
    int sharedBudgetFrames = 64;

    /// Start with the scheduler paused (resume() to run). A paused
    /// fill makes admission decisions and the dispatch order exactly
    /// reproducible — the deterministic test/CI harness mode.
    bool startPaused = false;

    /// Test-only fault injection (see FaultInjection).
    FaultInjection fault;

    /** Validate invariants; throws std::invalid_argument on error. */
    void validate() const;
};

/**
 * Per-tenant statistics snapshot: the session's stream statistics
 * (latency runs from admission to output ready, wall time from the
 * first admit) plus its admission and fault counters.
 */
struct TenantStats : runtime::StreamStats
{
    std::string name;
    uint64_t admitted = 0; ///< frames accepted by admission control
    uint64_t rejects = 0;  ///< frames refused (Reject policy)
    uint64_t dropped = 0;  ///< outputs discarded by fault injection
    uint64_t queueHighWater = 0; ///< max input-queue occupancy seen
};

/** Service-wide statistics snapshot. */
struct ServiceStats
{
    uint64_t frames = 0;  ///< frames processed across all tenants
    uint64_t rejects = 0; ///< admission rejects across all tenants
    double wallSeconds = 0; ///< first admit to last frame done

    /// Session ids in scheduling order — the observable weighted-fair
    /// decision sequence (deterministic for a pre-filled workload).
    std::vector<int> dispatchOrder;

    int lanes = 0; ///< dispatch lanes (clampThreads(shardThreads))
    /// Most frames in stages at once (<= lanes; timing-dependent).
    uint64_t concurrentFramesMax = 0;

    std::vector<TenantStats> tenants; ///< indexed by session id
};

/// Handle to an open session (index; stable for the service lifetime).
using SessionId = int;

/**
 * Multi-tenant streaming denoiser over the per-frame Bm3d engine.
 *
 * Threading model (DESIGN §13): submit()/collect() are called by
 * tenants (any threads). Internally one *scheduler* thread picks the
 * next admitted frame by weighted fair queueing and computes its DCT1
 * prepass field, and L = parallel::clampThreads(shardThreads) *lanes*
 * run the BM3D stages. A lane takes the oldest prepassed frame, in
 * pick order, whose session has no frame in stages, so different
 * sessions' frames run concurrently while one session's frames stay
 * sequential. Every lane may call into the global ThreadPool: sharded
 * frames fan out at shardThreads, the rest at the session's own width.
 * Each tenant's outputs come out of collect() in its submit order.
 *
 * Lifecycle: openSession() any time before finish(); submit frames;
 * closeSession() (optional, per tenant) or finish() (closes every
 * input, waits for in-flight frames, joins the threads; idempotent;
 * implies resume()). Outputs stay collectable after finish(). Errors
 * raised inside the pipeline re-throw from submit()/collect().
 */
class DenoiseService
{
  public:
    /** @throws std::invalid_argument when the config is inconsistent */
    explicit DenoiseService(ServiceConfig config = ServiceConfig())
        : DenoiseService(std::move(config), "service")
    {
    }

    /** Implies finish(); uncollected outputs are discarded. */
    ~DenoiseService();

    DenoiseService(const DenoiseService &) = delete;
    DenoiseService &operator=(const DenoiseService &) = delete;

    /**
     * Open a tenant session.
     * @throws std::invalid_argument on bad config or duplicate name
     * @throws std::logic_error after finish()
     */
    SessionId openSession(SessionConfig config);

    /**
     * Enqueue a frame for @p id. Returns true when admitted. Under
     * AdmissionPolicy::Block an inadmissible frame waits (always
     * returns true); under Reject it returns false immediately and
     * the reject is counted. Every frame must share the session's
     * first frame's shape.
     */
    bool submit(SessionId id, image::ImageF frame);

    /**
     * Dequeue @p id's next output, in its submit order (blocks until
     * ready). @throws std::logic_error once the session has drained.
     */
    image::ImageF collect(SessionId id);

    /**
     * Hand a collected output's storage back to @p id's arena; kept
     * only when the arena has no free buffer of its size (see
     * runtime::BufferArena::offer).
     */
    void recycle(SessionId id, image::ImageF &&frame);

    /** Close @p id's input; queued frames are still processed. */
    void closeSession(SessionId id);

    /** Stop dispatching new frames (admission still applies). */
    void pause();

    /** Resume dispatching. */
    void resume();

    /** Close every input and wait for in-flight frames; idempotent. */
    void finish();

    const ServiceConfig &config() const { return config_; }

    /** Snapshot of the service statistics (complete after finish()). */
    ServiceStats stats() const;

  private:
    friend class runtime::StreamDenoiser;

    struct Session;   // defined in service.cc
    struct FieldSlot; // defined in service.cc

    /**
     * A service whose metrics land under "<scope>." instead of
     * "service.", so a runtime::StreamDenoiser (scope "stream") never
     * adds to or overwrites a real service's counters and gauges.
     */
    DenoiseService(ServiceConfig config, const char *scope);

    /// @p id's private arena (runtime::StreamDenoiser::arena()).
    runtime::BufferArena &sessionArena(SessionId id);

    /// A frame whose DCT1 field is ready for a lane.
    struct MidItem
    {
        Session *session = nullptr;
        image::ImageF frame;
        FieldSlot *slot = nullptr;
        std::chrono::steady_clock::time_point enqueued;
    };

    Session &sessionAt(SessionId id) const;
    int pickLocked() const;
    bool drainedLocked(const Session &session) const;
    void schedulerMain();
    void laneMain();
    void prepassBuild(Session &session, FieldSlot &slot,
                      const image::ImageF &frame);
    void processFrame(MidItem item);
    void exportMetricsLocked();
    void fail(std::exception_ptr error);

    ServiceConfig config_;
    const std::string scope_; ///< metrics prefix: "service" or "stream"

    /// One mutex + one cv guard every queue, flag, and per-session
    /// counter: state changes are per-frame, so contention is
    /// negligible, and one notify_all per transition keeps every wait
    /// predicate honest.
    mutable std::mutex mutex_;
    std::condition_variable cv_;

    std::vector<std::unique_ptr<Session>> sessions_;
    std::map<std::string, SessionId> byName_;

    const int laneCount_;          ///< clampThreads(shardThreads)
    std::deque<MidItem> midQueue_; ///< pick order, bounded to laneCount_
    size_t globalQueued_ = 0;      ///< frames admitted, not yet picked
    int lanesLive_ = 0;            ///< lanes not yet exited
    uint64_t staged_ = 0;          ///< frames in stages now
    uint64_t stagedMax_ = 0;       ///< high-water of staged_
    bool paused_ = false;
    bool closing_ = false;
    bool schedulerDone_ = false;
    bool outputClosed_ = false;
    std::exception_ptr error_;

    double virtualNow_ = 0.0; ///< vtime of the last dispatched frame
    std::vector<int> dispatchOrder_;
    uint64_t framesDone_ = 0;
    uint64_t rejectsTotal_ = 0;
    bool haveT0_ = false;
    std::chrono::steady_clock::time_point t0_;
    std::chrono::steady_clock::time_point lastDone_;

    std::thread scheduler_;
    std::vector<std::thread> lanes_;
    bool joined_ = false;
};

} // namespace service
} // namespace ideal

#endif // IDEAL_SERVICE_SERVICE_H_
