#include "service/service.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "bm3d/bm3d.h"
#include "bm3d/patchfield.h"
#include "bm3d/profile.h"
#include "bm3d/seeding.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/pool.h"
#include "runtime/arena.h"
#include "transforms/dct.h"

namespace ideal {
namespace service {

namespace {

/** Number of reference positions makeRefPositions() yields. */
int
refCount(int last_valid, int stride)
{
    int n = last_valid / stride + 1;
    if (last_valid % stride != 0)
        ++n;
    return n;
}

/**
 * Frames a class may keep queued across the service: the priority
 * tiers of the shared budget. Low saturates first, then Normal, and
 * only High may fill the whole budget — so overload throttles the low
 * classes strictly before a high-priority queue bound is ever hit.
 */
int
classBudget(Priority priority, int budget)
{
    switch (priority) {
    case Priority::Low:
        return budget / 2;
    case Priority::Normal:
        return (budget * 3) / 4;
    case Priority::High:
        return budget;
    }
    return budget;
}

/** The session's frame config at the shard worker count. */
bm3d::Bm3dConfig
shardConfig(bm3d::Bm3dConfig frame, const ServiceConfig &service)
{
    frame.numThreads = std::max(0, service.shardThreads);
    return frame;
}

} // namespace

const char *
toString(Priority priority)
{
    switch (priority) {
    case Priority::Low:
        return "low";
    case Priority::Normal:
        return "normal";
    case Priority::High:
        return "high";
    }
    return "?";
}

void
SessionConfig::validate() const
{
    if (name.empty())
        throw std::invalid_argument(
            "SessionConfig: name must be non-empty");
    stream.validate();
    if (!(weight > 0.0) || !std::isfinite(weight))
        throw std::invalid_argument(
            "SessionConfig: weight must be positive and finite");
}

void
ServiceConfig::validate() const
{
    if (sharedBudgetFrames < 1)
        throw std::invalid_argument(
            "ServiceConfig: sharedBudgetFrames must be >= 1");
    if (fault.kind != FaultInjection::Kind::None && fault.tenant.empty())
        throw std::invalid_argument(
            "ServiceConfig: fault injection requires a tenant name");
    if (fault.stallMs < 0)
        throw std::invalid_argument(
            "ServiceConfig: fault stallMs must be >= 0");
}

/**
 * Persistent prepass workspace: the matching plane copy and the DCT1
 * field of one in-flight frame, arena-backed and ensured in place so a
 * warm slot allocates nothing.
 */
struct DenoiseService::FieldSlot
{
    image::ImageF plane0;
    bm3d::DctPatchField field;
    bm3d::Profile prepassProfile;
};

/**
 * One tenant: its configs, engines, arena, queues, seeding state, and
 * statistics. Everything mutable is guarded by the service mutex
 * except the engines/arena/seed stores, which are touched only by the
 * scheduler (prepass) and by the one lane holding the session's frame
 * in stages (`staged`), in the strict per-frame order the pipeline
 * enforces.
 */
struct DenoiseService::Session
{
    Session(SessionConfig cfg, const ServiceConfig &service)
        : config(std::move(cfg)), engine(config.stream.frame),
          shardEngine(shardConfig(config.stream.frame, service)),
          dct(config.stream.frame.patchSize),
          tht(config.stream.frame.lambda2d * config.stream.frame.sigma),
          effectiveWeight(config.weight *
                          static_cast<double>(
                              1 << (2 * static_cast<int>(config.priority))))
    {
        for (int i = 0; i < kSlots; ++i) {
            slots.push_back(std::make_unique<FieldSlot>());
            freeSlots.push_back(slots.back().get());
        }
    }

    SessionConfig config;
    bm3d::Bm3d engine;      ///< solo-equivalent engine (session threads)
    bm3d::Bm3d shardEngine; ///< same frame config at shardThreads
    transforms::Dct2D dct;
    float tht; ///< DCT1 hard threshold (lambda2d * sigma)
    runtime::BufferArena arena;
    obs::MetricsRegistry metrics; ///< per-tenant scope, merged at exit

    /// effectiveWeight = weight * 4^priority: the WFQ share.
    double effectiveWeight;

    /// Ping-pong pair: the scheduler prepasses frame t+1 while a lane
    /// matches frame t. Handed out first-in first-out, so frames 1 and
    /// 2 always warm both slots and the frame-2 steady baseline holds
    /// however the threads interleave.
    static constexpr int kSlots = 2;
    std::vector<std::unique_ptr<FieldSlot>> slots;
    std::deque<FieldSlot *> freeSlots;

    /// A submitted frame plus its admission time (latency starts here).
    struct InputItem
    {
        image::ImageF frame;
        std::chrono::steady_clock::time_point enqueued;
    };

    std::deque<InputItem> inputQueue;       ///< bounded by queueDepth
    std::deque<image::ImageF> outputQueue;  ///< unbounded
    bool inputClosed = false;

    int width = 0, height = 0, channels = 0; ///< 0 until first admit
    double vtime = 0.0; ///< WFQ virtual finish time of this session
    uint64_t inFlight = 0; ///< picked by the scheduler, output pending
    bool staged = false;   ///< a lane holds one of its frames in stages

    uint64_t admitted = 0;
    uint64_t rejects = 0;
    uint64_t framesDone = 0;
    uint64_t dropped = 0;
    uint64_t queueHighWater = 0;
    std::vector<double> latenciesMs;
    bool haveT0 = false;
    std::chrono::steady_clock::time_point t0;
    std::chrono::steady_clock::time_point lastDone;
    uint64_t steadyBaseline = 0; ///< arena bytesNew after 2nd frame
    uint64_t seedRefs = 0;
    uint64_t seedHits = 0;
    bm3d::Profile profile;

    // Seeding state of the staged lane (no locking needed).
    bm3d::SeedStore seedStores[2]; ///< ping-pong: read t-1, write t
    uint64_t frameIndex = 0;
};

DenoiseService::DenoiseService(ServiceConfig config, const char *scope)
    : config_(std::move(config)), scope_(scope),
      laneCount_(parallel::clampThreads(config_.shardThreads))
{
    config_.validate();
    paused_ = config_.startPaused;
    lanesLive_ = laneCount_;
    scheduler_ = std::thread(&DenoiseService::schedulerMain, this);
    for (int i = 0; i < laneCount_; ++i)
        lanes_.emplace_back(&DenoiseService::laneMain, this);
}

DenoiseService::~DenoiseService()
{
    try {
        finish();
    } catch (...) {
        // Errors already surfaced through submit()/collect(); the
        // destructor only has to reap the threads.
    }
}

DenoiseService::Session &
DenoiseService::sessionAt(SessionId id) const
{
    if (id < 0 || static_cast<size_t>(id) >= sessions_.size())
        throw std::invalid_argument("DenoiseService: unknown session id");
    return *sessions_[static_cast<size_t>(id)];
}

SessionId
DenoiseService::openSession(SessionConfig config)
{
    config.validate();
    std::lock_guard<std::mutex> lock(mutex_);
    if (error_)
        std::rethrow_exception(error_);
    if (closing_)
        throw std::logic_error("DenoiseService: openSession after finish");
    if (byName_.count(config.name))
        throw std::invalid_argument(
            "DenoiseService: duplicate tenant name: " + config.name);
    const SessionId id = static_cast<SessionId>(sessions_.size());
    sessions_.push_back(std::make_unique<Session>(std::move(config), config_));
    byName_[sessions_.back()->config.name] = id;
    return id;
}

bool
DenoiseService::submit(SessionId id, image::ImageF frame)
{
    std::unique_lock<std::mutex> lock(mutex_);
    Session &s = sessionAt(id);
    if (error_)
        std::rethrow_exception(error_);
    if (closing_ || s.inputClosed)
        throw std::logic_error("DenoiseService: submit after close");
    if (frame.width() < s.config.stream.frame.patchSize ||
        frame.height() < s.config.stream.frame.patchSize)
        throw std::invalid_argument(
            "DenoiseService: frame smaller than patch");
    if (s.width != 0 &&
        (frame.width() != s.width || frame.height() != s.height ||
         frame.channels() != s.channels))
        throw std::invalid_argument("DenoiseService: frame shape mismatch");

    const int budget =
        classBudget(s.config.priority, config_.sharedBudgetFrames);
    auto admissible = [&] {
        return s.inputQueue.size() <
                   static_cast<size_t>(s.config.stream.queueDepth) &&
               globalQueued_ < static_cast<size_t>(budget);
    };
    if (s.config.policy == AdmissionPolicy::Reject) {
        if (!admissible()) {
            ++s.rejects;
            ++rejectsTotal_;
            return false;
        }
    } else {
        cv_.wait(lock, [&] {
            return error_ || closing_ || s.inputClosed || admissible();
        });
        if (error_)
            std::rethrow_exception(error_);
        if (closing_ || s.inputClosed)
            throw std::logic_error("DenoiseService: submit after close");
    }

    const auto now = std::chrono::steady_clock::now();
    if (!haveT0_) {
        haveT0_ = true;
        t0_ = now;
    }
    if (!s.haveT0) {
        s.haveT0 = true;
        s.t0 = now;
    }
    if (s.width == 0) {
        s.width = frame.width();
        s.height = frame.height();
        s.channels = frame.channels();
    }
    // WFQ catch-up: a session going idle must not bank virtual time —
    // its next frame starts no earlier than the schedule's present.
    if (s.inputQueue.empty() && s.inFlight == 0)
        s.vtime = std::max(s.vtime, virtualNow_);
    s.inputQueue.push_back(Session::InputItem{std::move(frame), now});
    ++globalQueued_;
    ++s.admitted;
    s.queueHighWater = std::max(
        s.queueHighWater, static_cast<uint64_t>(s.inputQueue.size()));
    cv_.notify_all();
    return true;
}

bool
DenoiseService::drainedLocked(const Session &s) const
{
    if (!s.outputQueue.empty())
        return false;
    if (outputClosed_)
        return true;
    return (s.inputClosed || closing_) && s.inputQueue.empty() &&
           s.inFlight == 0;
}

image::ImageF
DenoiseService::collect(SessionId id)
{
    bool stall = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const Session &s = sessionAt(id);
        stall = config_.fault.kind == FaultInjection::Kind::StallCollect &&
                config_.fault.tenant == s.config.name &&
                config_.fault.stallMs > 0;
    }
    if (stall)
        std::this_thread::sleep_for(
            std::chrono::milliseconds(config_.fault.stallMs));
    std::unique_lock<std::mutex> lock(mutex_);
    Session &s = sessionAt(id);
    cv_.wait(lock, [&] {
        return !s.outputQueue.empty() || error_ || drainedLocked(s);
    });
    if (!s.outputQueue.empty()) {
        image::ImageF out = std::move(s.outputQueue.front());
        s.outputQueue.pop_front();
        return out;
    }
    if (error_)
        std::rethrow_exception(error_);
    throw std::logic_error("DenoiseService: collect on drained session");
}

runtime::BufferArena &
DenoiseService::sessionArena(SessionId id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return sessionAt(id).arena;
}

void
DenoiseService::recycle(SessionId id, image::ImageF &&frame)
{
    sessionArena(id).offer(frame.takeStorage());
}

void
DenoiseService::closeSession(SessionId id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Session &s = sessionAt(id);
    s.inputClosed = true;
    cv_.notify_all();
}

void
DenoiseService::pause()
{
    std::lock_guard<std::mutex> lock(mutex_);
    paused_ = true;
    cv_.notify_all();
}

void
DenoiseService::resume()
{
    std::lock_guard<std::mutex> lock(mutex_);
    paused_ = false;
    cv_.notify_all();
}

void
DenoiseService::finish()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        closing_ = true;
        paused_ = false; // a paused service must still drain
        for (auto &s : sessions_)
            s->inputClosed = true;
        cv_.notify_all();
    }
    if (!joined_) {
        joined_ = true;
        if (scheduler_.joinable())
            scheduler_.join();
        for (std::thread &lane : lanes_)
            lane.join();
    }
}

ServiceStats
DenoiseService::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    ServiceStats out;
    out.frames = framesDone_;
    out.rejects = rejectsTotal_;
    if (haveT0_ && framesDone_ > 0)
        out.wallSeconds =
            std::chrono::duration<double>(lastDone_ - t0_).count();
    out.dispatchOrder = dispatchOrder_;
    out.lanes = laneCount_;
    out.concurrentFramesMax = stagedMax_;
    for (const auto &up : sessions_) {
        const Session &s = *up;
        TenantStats t;
        t.name = s.config.name;
        t.admitted = s.admitted;
        t.rejects = s.rejects;
        t.frames = s.framesDone;
        t.dropped = s.dropped;
        t.queueHighWater = s.queueHighWater;
        t.latenciesMs = s.latenciesMs;
        if (s.haveT0 && s.framesDone > 0)
            t.wallSeconds =
                std::chrono::duration<double>(s.lastDone - s.t0).count();
        const runtime::BufferArena::Stats a = s.arena.stats();
        t.arenaHits = a.hits;
        t.arenaMisses = a.misses;
        t.arenaBytesNew = a.bytesNew;
        t.arenaBytesNewSteady =
            s.framesDone >= 2 ? a.bytesNew - s.steadyBaseline : 0;
        t.seedRefs = s.seedRefs;
        t.seedHits = s.seedHits;
        t.profile = s.profile;
        out.tenants.push_back(std::move(t));
    }
    return out;
}

void
DenoiseService::fail(std::exception_ptr error)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!error_)
        error_ = error;
    cv_.notify_all();
}

int
DenoiseService::pickLocked() const
{
    // Weighted fair queueing: smallest virtual time wins; ties break
    // to the higher priority class, then the lower session id. The
    // decision reads only queue contents and per-session vtimes, so a
    // pre-filled workload replays the identical dispatch order.
    int best = -1;
    for (size_t i = 0; i < sessions_.size(); ++i) {
        const Session &s = *sessions_[i];
        if (s.inputQueue.empty())
            continue;
        if (best < 0) {
            best = static_cast<int>(i);
            continue;
        }
        const Session &b = *sessions_[static_cast<size_t>(best)];
        if (s.vtime < b.vtime ||
            (s.vtime == b.vtime &&
             static_cast<int>(s.config.priority) >
                 static_cast<int>(b.config.priority)))
            best = static_cast<int>(i);
    }
    return best;
}

void
DenoiseService::schedulerMain()
{
    try {
        while (true) {
            Session *sp = nullptr;
            Session::InputItem item;
            {
                std::unique_lock<std::mutex> lock(mutex_);
                cv_.wait(lock, [&] {
                    return error_ || (!paused_ && pickLocked() >= 0) ||
                           (closing_ && globalQueued_ == 0);
                });
                if (error_)
                    break;
                const int pick = paused_ ? -1 : pickLocked();
                if (pick < 0)
                    break; // closing and every input queue drained
                sp = sessions_[static_cast<size_t>(pick)].get();
                Session &s = *sp;
                item = std::move(s.inputQueue.front());
                s.inputQueue.pop_front();
                --globalQueued_;
                ++s.inFlight;
                // Charge the frame to the session's virtual clock and
                // advance the schedule's present to its start time.
                virtualNow_ = s.vtime;
                s.vtime += static_cast<double>(item.frame.width()) *
                           static_cast<double>(item.frame.height()) /
                           s.effectiveWeight;
                dispatchOrder_.push_back(pick);
                cv_.notify_all(); // free an admission slot
            }
            FieldSlot *slot = nullptr;
            {
                // Head-of-line wait for the picked session's slot: the
                // WFQ decision stays final, so the dispatch order never
                // depends on which slot frees first.
                std::unique_lock<std::mutex> lock(mutex_);
                cv_.wait(lock,
                         [&] { return error_ || !sp->freeSlots.empty(); });
                if (error_)
                    break;
                slot = sp->freeSlots.front();
                sp->freeSlots.pop_front();
            }
            prepassBuild(*sp, *slot, item.frame);
            {
                std::unique_lock<std::mutex> lock(mutex_);
                cv_.wait(lock, [&] {
                    return error_ ||
                           midQueue_.size() <
                               static_cast<size_t>(laneCount_);
                });
                if (error_) {
                    sp->freeSlots.push_back(slot);
                    cv_.notify_all();
                    break;
                }
                midQueue_.push_back(MidItem{sp, std::move(item.frame),
                                            slot, item.enqueued});
                cv_.notify_all();
            }
        }
    } catch (...) {
        fail(std::current_exception());
    }
    std::lock_guard<std::mutex> lock(mutex_);
    schedulerDone_ = true;
    cv_.notify_all();
}

void
DenoiseService::prepassBuild(Session &s, FieldSlot &slot,
                             const image::ImageF &frame)
{
    // DCT1 of the next scheduled frame overlaps the lanes' stage work
    // ("service.prepass" next to "service.frame" in the trace).
    // The plane copy and field storage are ensured in place against
    // the session's own arena, so a warm slot allocates nothing.
    obs::Span span("service.prepass", "service");
    slot.prepassProfile = bm3d::Profile();
    bm3d::ScopedTimer timer(slot.prepassProfile, bm3d::Step::Dct1);
    if (slot.plane0.width() != frame.width() ||
        slot.plane0.height() != frame.height()) {
        slot.plane0 = image::ImageF(frame.width(), frame.height(), 1);
    }
    std::copy(frame.plane(0), frame.plane(0) + frame.planeSize(),
              slot.plane0.plane(0));
    slot.field.prepare(frame.width(), frame.height(), s.dct, &s.arena);
    const uint64_t patches = slot.field.fillRows(
        slot.plane0, s.dct, s.tht, s.config.stream.frame.fixedPoint, 0,
        slot.field.positionsY());
    if (s.config.stream.frame.precision == bm3d::Precision::Int16) {
        slot.field.prepareI16();
        slot.field.fillRowsI16(slot.plane0, s.dct, s.tht, 0,
                               slot.field.positionsY());
    }
    bm3d::OpCounters ops;
    bm3d::DctPatchField::countOps(patches, s.config.stream.frame.patchSize,
                                  s.tht > 0.0f, &ops);
    slot.prepassProfile.addOps(bm3d::Step::Dct1, ops);
}

void
DenoiseService::laneMain()
{
    try {
        while (true) {
            MidItem item;
            {
                // The oldest prepassed frame, in pick order, whose
                // session is not in stages on another lane: sessions
                // run side by side, each one's frames in submit order.
                std::unique_lock<std::mutex> lock(mutex_);
                auto ready = midQueue_.end();
                cv_.wait(lock, [&] {
                    ready = std::find_if(
                        midQueue_.begin(), midQueue_.end(),
                        [](const MidItem &m) { return !m.session->staged; });
                    return error_ || ready != midQueue_.end() ||
                           (schedulerDone_ && midQueue_.empty());
                });
                if (error_ || ready == midQueue_.end())
                    break; // failed, or scheduler finished and drained
                item = std::move(*ready);
                midQueue_.erase(ready);
                item.session->staged = true;
                stagedMax_ = std::max(stagedMax_, ++staged_);
                cv_.notify_all(); // free a mid slot for the scheduler
            }
            processFrame(std::move(item));
        }
    } catch (...) {
        fail(std::current_exception());
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (--lanesLive_ == 0) {
        outputClosed_ = true;
        exportMetricsLocked();
    }
    cv_.notify_all();
}

void
DenoiseService::processFrame(MidItem item)
{
    Session &s = *item.session;
    obs::Span frame_span("service.frame", "service", "index",
                         static_cast<double>(s.frameIndex));
    bm3d::Profile frame_profile;
    // Merge the prepass accounting before the slot can be recycled.
    frame_profile += item.slot->prepassProfile;

    // Frame sharding: a large frame fans out at the service-wide shard
    // worker count instead of the session's own. The tile grid depends
    // only on the image size, so this reorders execution, never
    // arithmetic — output stays bitwise solo-identical.
    const size_t pixels = static_cast<size_t>(item.frame.width()) *
                          static_cast<size_t>(item.frame.height());
    bm3d::Bm3d &engine =
        pixels >= config_.shardPixels ? s.shardEngine : s.engine;

    bm3d::StageOptions s1;
    s1.field = &item.slot->field;
    s1.arena = &s.arena;
    bm3d::TemporalSeed seed;
    if (s.config.stream.temporalSeed) {
        const bm3d::DctPatchField &f = item.slot->field;
        const int nx =
            refCount(f.positionsX() - 1, s.config.stream.frame.refStride);
        const int ny =
            refCount(f.positionsY() - 1, s.config.stream.frame.refStride);
        bm3d::SeedStore &cur = s.seedStores[s.frameIndex % 2];
        bm3d::SeedStore &prev = s.seedStores[(s.frameIndex + 1) % 2];
        cur.reset(nx, ny, f.coefs(), s.config.stream.frame.maxMatches);
        seed.current = &cur;
        seed.previous =
            (s.frameIndex > 0 &&
             prev.matches(nx, ny, f.coefs(),
                          s.config.stream.frame.maxMatches))
                ? &prev
                : nullptr;
        seed.reuseBound = static_cast<float>(s.config.stream.seedK) *
                          s.config.stream.frame.tauMatch1;
        seed.window = std::min(s.config.stream.seedWindow,
                               s.config.stream.frame.searchWindow1);
        s1.seed = &seed;
    }

    image::ImageF basic = engine.runStage(
        bm3d::Stage::HardThreshold, item.frame, nullptr, frame_profile, s1);
    {
        // The field is consumed; hand the slot back so the scheduler
        // can prepass this session's next frame.
        std::lock_guard<std::mutex> lock(mutex_);
        s.freeSlots.push_back(item.slot);
        cv_.notify_all();
    }

    image::ImageF output;
    if (s.config.stream.frame.enableWiener) {
        bm3d::StageOptions s2;
        s2.arena = &s.arena;
        output = engine.runStage(bm3d::Stage::Wiener, item.frame, &basic,
                                 frame_profile, s2);
        s.arena.release(basic.takeStorage());
    } else {
        output = std::move(basic);
    }
    // The input's storage feeds the session's next output acquire —
    // the per-tenant recycling loop.
    s.arena.release(item.frame.takeStorage());

    ++s.frameIndex;
    const auto now = std::chrono::steady_clock::now();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        s.profile += frame_profile;
        s.latenciesMs.push_back(
            std::chrono::duration<double, std::milli>(now - item.enqueued)
                .count());
        if (s.config.stream.temporalSeed) {
            s.seedRefs += seed.refs.load(std::memory_order_relaxed);
            s.seedHits += seed.hits.load(std::memory_order_relaxed);
        }
        ++s.framesDone;
        // From here on this tenant's arena must not allocate: remember
        // the baseline its steady-state counter is measured against.
        if (s.framesDone == 2)
            s.steadyBaseline = s.arena.stats().bytesNew;
        s.lastDone = now;
        --s.inFlight;
        ++framesDone_;
        lastDone_ = now;
        if (config_.fault.kind == FaultInjection::Kind::DropOutputs &&
            config_.fault.tenant == s.config.name) {
            // Dead-consumer fault: the output never reaches collect();
            // its storage goes back as a recycled output would.
            ++s.dropped;
            s.arena.offer(output.takeStorage());
        } else {
            s.outputQueue.push_back(std::move(output));
        }
        // Release the session to the next lane.
        s.staged = false;
        --staged_;
        cv_.notify_all();
    }
}

void
DenoiseService::exportMetricsLocked()
{
    // Service- and tenant-scope counters for bench records and the
    // bench_diff.py gates, under "<scope_>." ("stream." when this is a
    // StreamDenoiser's service). Every counter here is deterministic
    // for a deterministic workload (scheduling cannot change admission
    // outcomes of a pre-filled run, and each tenant's arena traffic is
    // the solo traffic); queue high-water and the concurrent-frame
    // high-water are Max metrics and the lane count a Gauge, so they
    // land under "gauges", outside the --ops-tolerance 0 gate.
    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    reg.add(scope_ + ".frames", static_cast<double>(framesDone_));
    reg.add(scope_ + ".rejects", static_cast<double>(rejectsTotal_));
    reg.add(scope_ + ".tenants", static_cast<double>(sessions_.size()));
    reg.set(scope_ + ".lanes", static_cast<double>(laneCount_));
    reg.setMax(scope_ + ".concurrentFramesMax",
               static_cast<double>(stagedMax_));
    for (auto &up : sessions_) {
        Session &s = *up;
        s.metrics.add("frames", static_cast<double>(s.framesDone));
        s.metrics.add("admitted", static_cast<double>(s.admitted));
        s.metrics.add("rejects", static_cast<double>(s.rejects));
        s.metrics.add("dropped", static_cast<double>(s.dropped));
        const runtime::BufferArena::Stats a = s.arena.stats();
        s.metrics.add("arena.hits", static_cast<double>(a.hits));
        s.metrics.add("arena.misses", static_cast<double>(a.misses));
        s.metrics.add("arena.bytesNew", static_cast<double>(a.bytesNew));
        const uint64_t steady =
            s.framesDone >= 2 ? a.bytesNew - s.steadyBaseline : 0;
        s.metrics.add("arena.bytesNewSteady",
                      static_cast<double>(steady));
        s.metrics.setMax("queueHighWater",
                         static_cast<double>(s.queueHighWater));
        reg.merge(s.metrics.snapshot(), scope_ + "." + s.config.name + ".");
    }
}

} // namespace service
} // namespace ideal
