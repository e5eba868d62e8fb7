#include "runtime/stream.h"

#include <limits>
#include <stdexcept>
#include <utility>

#include "service/service.h"

namespace ideal {
namespace runtime {

namespace {

/// The one session a StreamDenoiser's service runs.
constexpr service::SessionId kSession = 0;

} // namespace

void
StreamConfig::validate() const
{
    frame.validate();
    if (queueDepth < 1)
        throw std::invalid_argument("StreamConfig: queueDepth must be >= 1");
    if (temporalSeed) {
        // The int16 matching domain has no seeded search: such a
        // stream would keep seed stores per frame and never read them.
        if (frame.precision == bm3d::Precision::Int16)
            throw std::invalid_argument(
                "StreamConfig: temporalSeed requires Float32 precision");
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
    : config_(std::move(config))
{
    // Before the service exists: a bad queueDepth must name itself,
    // not the shared budget derived from it below.
    config_.validate();
    // queueDepth is the only admission bound: a High session may fill
    // the whole shared budget, and the budget is the queue depth. One
    // lane, and no frame is large enough to shard.
    service::ServiceConfig sc;
    sc.shardPixels = std::numeric_limits<size_t>::max();
    sc.shardThreads = 1;
    sc.sharedBudgetFrames = config_.queueDepth;
    service_.reset(new service::DenoiseService(std::move(sc), "stream"));

    service::SessionConfig session;
    session.name = "solo";
    session.stream = config_;
    session.priority = service::Priority::High;
    service_->openSession(std::move(session));
}

StreamDenoiser::~StreamDenoiser() = default;

void
StreamDenoiser::submit(image::ImageF frame)
{
    service_->submit(kSession, std::move(frame));
}

image::ImageF
StreamDenoiser::collect()
{
    return service_->collect(kSession);
}

void
StreamDenoiser::finish()
{
    service_->finish();
}

void
StreamDenoiser::recycle(image::ImageF &&frame)
{
    service_->recycle(kSession, std::move(frame));
}

BufferArena &
StreamDenoiser::arena()
{
    return service_->sessionArena(kSession);
}

StreamStats
StreamDenoiser::stats() const
{
    return service_->stats().tenants[kSession];
}

} // namespace runtime
} // namespace ideal
