#include "runtime/arena.h"

#include <algorithm>

#include "obs/metrics.h"

namespace ideal {
namespace runtime {

BufferArena::~BufferArena()
{
    if (charged_ > 0)
        obs::chargeResidentBytes(-charged_);
}

BufferArena::FreeList::iterator
BufferArena::servingLocked(size_t count)
{
    auto it = free_.lower_bound(count);
    if (it == free_.end() || it->first > count * kSlackFactor)
        return free_.end();
    return it;
}

void
BufferArena::ensure(std::vector<float> &buf, size_t count)
{
    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    if (buf.capacity() >= count) {
        // Warm path: the component's own storage already fits. resize
        // within capacity never reallocates.
        buf.resize(count);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.hits;
        }
        reg.add("arena.hit", 1.0);
        return;
    }

    std::vector<float> recycled;
    bool hit = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = servingLocked(count);
        hit = it != free_.end();
        if (hit) {
            recycled = std::move(it->second);
            free_.erase(it);
            ++stats_.hits;
        } else {
            ++stats_.misses;
            stats_.bytesNew += count * sizeof(float);
            charged_ += static_cast<int64_t>(count * sizeof(float));
        }
        if (buf.capacity() > 0) {
            free_.emplace(buf.capacity(), std::move(buf));
            buf = std::vector<float>();
        }
    }
    if (hit) {
        recycled.resize(count);
        buf = std::move(recycled);
        reg.add("arena.hit", 1.0);
        return;
    }
    buf.assign(count, 0.0f);
    reg.add("arena.miss", 1.0);
    reg.add("arena.bytesNew",
            static_cast<double>(count * sizeof(float)));
    // Fresh heap bytes enter the process-wide resident-footprint
    // ledger; recycled buffers were charged when first allocated and
    // stay resident while they sit in the free list, so hits and
    // releases are ledger-neutral. The destructor debits the balance.
    obs::chargeResidentBytes(
        static_cast<int64_t>(count * sizeof(float)));
}

void
BufferArena::release(std::vector<float> &&buf)
{
    if (buf.capacity() == 0)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    free_.emplace(buf.capacity(), std::move(buf));
}

void
BufferArena::offer(std::vector<float> &&buf)
{
    if (buf.capacity() == 0)
        return;
    std::vector<float> dropped; // freed after the lock is released
    std::lock_guard<std::mutex> lock(mutex_);
    if (servingLocked(buf.size()) == free_.end())
        free_.emplace(buf.capacity(), std::move(buf));
    else
        dropped = std::move(buf);
}

BufferArena::Stats
BufferArena::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Stats s = stats_;
    s.freeBuffers = free_.size();
    return s;
}

void
BufferArena::trim()
{
    int64_t freed = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &[cap, buf] : free_)
            freed += static_cast<int64_t>(buf.capacity()) *
                     static_cast<int64_t>(sizeof(float));
        free_.clear();
        freed = std::min(freed, charged_);
        charged_ -= freed;
    }
    if (freed > 0)
        obs::chargeResidentBytes(-freed);
}

} // namespace runtime
} // namespace ideal
