#include "runtime/stream.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace ideal {
namespace runtime {

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

} // namespace

void
StreamConfig::validate() const
{
    frame.validate();
    if (queueDepth < 1)
        throw std::invalid_argument("StreamConfig: queueDepth must be >= 1");
    if (temporalSeed) {
        if (seedK <= 0.0 || seedK > 1.0)
            throw std::invalid_argument(
                "StreamConfig: seedK must be in (0, 1]");
        if (seedWindow < 1 || seedWindow % 2 == 0)
            throw std::invalid_argument(
                "StreamConfig: seedWindow must be odd and >= 1");
        if (seedWindow > frame.searchWindow1)
            throw std::invalid_argument(
                "StreamConfig: seedWindow exceeds searchWindow1");
    }
}

StreamDenoiser::StreamDenoiser(StreamConfig config)
    : config_(std::move(config)), bm3d_(config_.frame),
      dct_(config_.frame.patchSize),
      tht_(config_.frame.lambda2d * config_.frame.sigma)
{
    config_.validate();
    for (int i = 0; i < kSlots; ++i) {
        slots_.push_back(std::make_unique<FieldSlot>());
        freeSlots_.push_back(slots_.back().get());
    }
    prepass_ = std::thread(&StreamDenoiser::prepassMain, this);
    driver_ = std::thread(&StreamDenoiser::driverMain, this);
}

StreamDenoiser::~StreamDenoiser()
{
    try {
        finish();
    } catch (...) {
        // Errors already surfaced through submit()/collect(); the
        // destructor only has to reap the threads.
    }
}

void
StreamDenoiser::submit(image::ImageF frame)
{
    if (frame.width() < config_.frame.patchSize ||
        frame.height() < config_.frame.patchSize) {
        throw std::invalid_argument(
            "StreamDenoiser: frame smaller than patch");
    }
    std::unique_lock<std::mutex> lock(mutex_);
    if (error_)
        std::rethrow_exception(error_);
    if (inputClosed_)
        throw std::logic_error("StreamDenoiser: submit after finish");
    if (width_ == 0) {
        width_ = frame.width();
        height_ = frame.height();
        channels_ = frame.channels();
    } else if (frame.width() != width_ || frame.height() != height_ ||
               frame.channels() != channels_) {
        throw std::invalid_argument("StreamDenoiser: frame shape mismatch");
    }
    if (!haveT0_) {
        haveT0_ = true;
        t0_ = std::chrono::steady_clock::now();
    }
    cv_.wait(lock, [&] {
        return error_ ||
               inputQueue_.size() <
                   static_cast<size_t>(config_.queueDepth);
    });
    if (error_)
        std::rethrow_exception(error_);
    inputQueue_.push_back(
        InputItem{std::move(frame), std::chrono::steady_clock::now()});
    cv_.notify_all();
}

image::ImageF
StreamDenoiser::collect()
{
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] {
        return !outputQueue_.empty() || error_ || outputClosed_;
    });
    if (!outputQueue_.empty()) {
        image::ImageF out = std::move(outputQueue_.front());
        outputQueue_.pop_front();
        return out;
    }
    if (error_)
        std::rethrow_exception(error_);
    throw std::logic_error("StreamDenoiser: collect on drained stream");
}

void
StreamDenoiser::finish()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        inputClosed_ = true;
        cv_.notify_all();
    }
    if (!joined_) {
        joined_ = true;
        if (prepass_.joinable())
            prepass_.join();
        if (driver_.joinable())
            driver_.join();
    }
}

StreamStats
StreamDenoiser::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    StreamStats s;
    s.frames = framesDone_;
    s.latenciesMs = latenciesMs_;
    if (haveT0_ && framesDone_ > 0)
        s.wallSeconds =
            std::chrono::duration<double>(lastDone_ - t0_).count();
    const BufferArena::Stats a = arena_.stats();
    s.arenaHits = a.hits;
    s.arenaMisses = a.misses;
    s.arenaBytesNew = a.bytesNew;
    s.arenaBytesNewSteady =
        framesDone_ >= 2 ? a.bytesNew - steadyBaseline_ : 0;
    s.seedRefs = seedRefs_;
    s.seedHits = seedHits_;
    s.profile = profile_;
    return s;
}

void
StreamDenoiser::fail(std::exception_ptr error)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!error_)
        error_ = error;
    cv_.notify_all();
}

void
StreamDenoiser::prepassMain()
{
    try {
        while (true) {
            InputItem item;
            {
                std::unique_lock<std::mutex> lock(mutex_);
                cv_.wait(lock, [&] {
                    return error_ || !inputQueue_.empty() || inputClosed_;
                });
                if (error_)
                    return;
                if (inputQueue_.empty())
                    break; // input closed and drained
                item = std::move(inputQueue_.front());
                inputQueue_.pop_front();
                cv_.notify_all(); // free a submit() slot
            }
            FieldSlot *slot = nullptr;
            {
                std::unique_lock<std::mutex> lock(mutex_);
                cv_.wait(lock,
                         [&] { return error_ || !freeSlots_.empty(); });
                if (error_)
                    return;
                slot = freeSlots_.front();
                freeSlots_.pop_front();
            }
            {
                // DCT1 of frame t+1 overlaps the driver's stage work
                // on frame t ("stream.prepass" span next to
                // "stream.frame" in the trace). The plane copy and
                // field storage are ensured in place, so a warm slot
                // allocates nothing.
                obs::Span span("stream.prepass", "stream");
                slot->prepassProfile = bm3d::Profile();
                bm3d::ScopedTimer timer(slot->prepassProfile,
                                        bm3d::Step::Dct1);
                if (slot->plane0.width() != item.frame.width() ||
                    slot->plane0.height() != item.frame.height()) {
                    slot->plane0 = image::ImageF(item.frame.width(),
                                                 item.frame.height(), 1);
                }
                std::copy(item.frame.plane(0),
                          item.frame.plane(0) + item.frame.planeSize(),
                          slot->plane0.plane(0));
                slot->field.prepare(item.frame.width(),
                                    item.frame.height(), dct_, &arena_);
                const uint64_t patches = slot->field.fillRows(
                    slot->plane0, dct_, tht_, config_.frame.fixedPoint, 0,
                    slot->field.positionsY());
                if (config_.frame.precision == bm3d::Precision::Int16) {
                    // Quantized matching planes alongside the float
                    // field, so the stage below can pick the int16 SSD
                    // datapath off the same slot.
                    slot->field.prepareI16();
                    slot->field.fillRowsI16(slot->plane0, dct_, tht_, 0,
                                            slot->field.positionsY());
                }
                bm3d::OpCounters ops;
                bm3d::DctPatchField::countOps(
                    patches, config_.frame.patchSize, tht_ > 0.0f, &ops);
                slot->prepassProfile.addOps(bm3d::Step::Dct1, ops);
            }
            {
                std::unique_lock<std::mutex> lock(mutex_);
                cv_.wait(lock,
                         [&] { return error_ || midQueue_.empty(); });
                if (error_) {
                    freeSlots_.push_back(slot);
                    cv_.notify_all();
                    return;
                }
                midQueue_.push_back(MidItem{std::move(item.frame), slot,
                                            item.enqueued});
                cv_.notify_all();
            }
        }
        std::lock_guard<std::mutex> lock(mutex_);
        prepassDone_ = true;
        cv_.notify_all();
    } catch (...) {
        fail(std::current_exception());
    }
}

void
StreamDenoiser::driverMain()
{
    try {
        while (true) {
            MidItem item;
            {
                std::unique_lock<std::mutex> lock(mutex_);
                cv_.wait(lock, [&] {
                    return error_ || !midQueue_.empty() || prepassDone_;
                });
                if (error_)
                    break;
                if (midQueue_.empty())
                    break; // prepass finished and queue drained
                item = std::move(midQueue_.front());
                midQueue_.pop_front();
                cv_.notify_all(); // free the mid slot for the prepass
            }
            processFrame(std::move(item));
        }
    } catch (...) {
        fail(std::current_exception());
    }
    std::lock_guard<std::mutex> lock(mutex_);
    outputClosed_ = true;
    cv_.notify_all();
    // Stream-scope counters for bench records / bench_diff.py gates.
    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    reg.add("stream.frames", static_cast<double>(framesDone_));
    const uint64_t steady = framesDone_ >= 2
                                ? arena_.stats().bytesNew - steadyBaseline_
                                : 0;
    reg.add("arena.bytesNewSteady", static_cast<double>(steady));
}

void
StreamDenoiser::processFrame(MidItem item)
{
    obs::Span frame_span("stream.frame", "stream", "index",
                         static_cast<double>(frameIndex_));
    bm3d::Profile frame_profile;
    // Merge the prepass accounting before the slot can be recycled.
    frame_profile += item.slot->prepassProfile;

    bm3d::StageOptions s1;
    s1.field = &item.slot->field;
    s1.arena = &arena_;
    bm3d::TemporalSeed seed;
    if (config_.temporalSeed) {
        const bm3d::DctPatchField &f = item.slot->field;
        const int nx =
            refCount(f.positionsX() - 1, config_.frame.refStride);
        const int ny =
            refCount(f.positionsY() - 1, config_.frame.refStride);
        bm3d::SeedStore &cur = seedStores_[frameIndex_ % 2];
        bm3d::SeedStore &prev = seedStores_[(frameIndex_ + 1) % 2];
        cur.reset(nx, ny, f.coefs(), config_.frame.maxMatches);
        seed.current = &cur;
        seed.previous = (frameIndex_ > 0 &&
                         prev.matches(nx, ny, f.coefs(),
                                      config_.frame.maxMatches))
                            ? &prev
                            : nullptr;
        seed.reuseBound = static_cast<float>(config_.seedK) *
                          config_.frame.tauMatch1;
        seed.window =
            std::min(config_.seedWindow, config_.frame.searchWindow1);
        s1.seed = &seed;
    }

    image::ImageF basic = bm3d_.runStage(
        bm3d::Stage::HardThreshold, item.frame, nullptr, frame_profile,
        s1);
    {
        // The field is consumed; hand the slot back so the prepass can
        // start on the frame after next.
        std::lock_guard<std::mutex> lock(mutex_);
        freeSlots_.push_back(item.slot);
        cv_.notify_all();
    }

    image::ImageF output;
    if (config_.frame.enableWiener) {
        bm3d::StageOptions s2;
        s2.arena = &arena_;
        output = bm3d_.runStage(bm3d::Stage::Wiener, item.frame, &basic,
                                frame_profile, s2);
        arena_.release(basic.takeStorage());
    } else {
        output = std::move(basic);
    }
    // The input's storage feeds the next frame's output acquire — the
    // heart of the recycling loop.
    arena_.release(item.frame.takeStorage());

    const auto now = std::chrono::steady_clock::now();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        profile_ += frame_profile;
        latenciesMs_.push_back(
            std::chrono::duration<double, std::milli>(now - item.enqueued)
                .count());
        if (config_.temporalSeed) {
            seedRefs_ += seed.refs.load(std::memory_order_relaxed);
            seedHits_ += seed.hits.load(std::memory_order_relaxed);
        }
        ++framesDone_;
        // From here on the arena must not allocate: remember the
        // baseline the steady-state counter is measured against.
        if (framesDone_ == 2)
            steadyBaseline_ = arena_.stats().bytesNew;
        lastDone_ = now;
        outputQueue_.push_back(std::move(output));
        cv_.notify_all();
    }
    ++frameIndex_;
}

} // namespace runtime
} // namespace ideal
