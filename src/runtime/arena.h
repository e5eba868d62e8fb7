#ifndef IDEAL_RUNTIME_ARENA_H_
#define IDEAL_RUNTIME_ARENA_H_

/**
 * @file
 * Pooled float-buffer arena for the streaming runtime: every large
 * per-frame allocation of the denoising pipeline (output planes,
 * DctPatchField coefficient planes, TileDctField worker caches, the
 * full-frame aggregator) is routed through one BufferArena so that
 * processing frame t+1 reuses the storage frame t just released and
 * the steady state performs no heap allocation at all.
 *
 * The arena publishes its traffic to obs::MetricsRegistry
 * ("arena.hit" / "arena.miss" / "arena.bytesNew"), which is what lets
 * a bench record — and bench_diff.py --ops-tolerance — *prove* the
 * malloc-free steady state instead of asserting it in prose.
 */

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

namespace ideal {
namespace runtime {

/**
 * A mutex-protected recycling pool of float vectors.
 *
 * Two usage patterns, both counted:
 *
 *  - ensure(buf, n): persistent buffers (a component keeps its vector
 *    across frames). When the capacity already fits, the call is a pure
 *    hit and never touches the free list — the deterministic fast path
 *    of every warm stream. Otherwise the old storage is surrendered to
 *    the free list and a recycled (hit) or fresh (miss) buffer replaces
 *    it.
 *  - release(buf) / acquire(n): transient buffers whose owner dies
 *    between frames (output images, the total aggregator). release
 *    donates capacity; acquire takes the smallest free buffer with
 *    capacity in [n, kSlackFactor * n] — the slack cap keeps size
 *    classes segregated, so a small request can never starve a huge
 *    patch-field class — or allocates on miss.
 *  - offer(buf): storage handed back from outside the pipeline (a
 *    collected output the consumer recycles). The pipeline already
 *    pools each input frame, so the free list keeps an offered buffer
 *    only when nothing free would serve a request of its size and
 *    drops it otherwise — the free list stays bounded however many
 *    frames are recycled.
 *
 * Fresh allocations are charged to the process-wide resident ledger
 * (obs::chargeResidentBytes). The arena keeps the balance of what it
 * charged; trim() and the destructor debit it, so a dead arena leaves
 * the ledger where it found it.
 *
 * Thread-safe; the service calls it from the scheduler (prepass) and
 * lane threads concurrently (their buffer size classes are disjoint,
 * which keeps the hit/miss totals deterministic — see DESIGN §13).
 */
class BufferArena
{
  public:
    BufferArena() = default;
    /** Debits every byte this arena charged to the resident ledger. */
    ~BufferArena();
    BufferArena(const BufferArena &) = delete;
    BufferArena &operator=(const BufferArena &) = delete;

    /** Cumulative traffic counters (monotonic). */
    struct Stats
    {
        uint64_t hits = 0;     ///< requests served without allocating
        uint64_t misses = 0;   ///< requests that had to allocate
        uint64_t bytesNew = 0; ///< bytes of fresh heap allocation
        uint64_t freeBuffers = 0; ///< buffers currently in the free list
    };

    /**
     * Make @p buf hold exactly @p count elements, recycling capacity:
     * existing capacity > free-list buffer > fresh allocation (miss).
     * Contents are unspecified after the call.
     */
    void ensure(std::vector<float> &buf, size_t count);

    /** A recycled-or-fresh buffer of exactly @p count elements. */
    std::vector<float>
    acquire(size_t count)
    {
        std::vector<float> buf;
        ensure(buf, count);
        return buf;
    }

    /** Donate @p buf's storage to the free list (no-op if empty). */
    void release(std::vector<float> &&buf);

    /**
     * Keep @p buf's storage only when no free buffer would serve an
     * acquire(buf.size()); otherwise free it. Ledger-neutral like
     * release(): in the steady state the storage freed here is an
     * input frame the pipeline adopted, which was never charged (the
     * destructor settles whatever was).
     */
    void offer(std::vector<float> &&buf);

    Stats stats() const;

    /**
     * Drop all free buffers (tests; steady streams never need it). The
     * ledger debit is capped by the arena's balance, so freeing adopted
     * input frames it never charged cannot drive the ledger down.
     */
    void trim();

  private:
    /// Free buffers larger than kSlackFactor * request are not reused
    /// for it: bounded internal fragmentation, segregated size classes.
    static constexpr size_t kSlackFactor = 4;

    using FreeList = std::multimap<size_t, std::vector<float>>;

    /// The free buffer acquire(count) would take, or free_.end().
    /// Caller holds mutex_.
    FreeList::iterator servingLocked(size_t count);

    mutable std::mutex mutex_;
    FreeList free_; ///< by capacity
    Stats stats_;
    int64_t charged_ = 0; ///< resident-ledger bytes not yet debited
};

} // namespace runtime
} // namespace ideal

#endif // IDEAL_RUNTIME_ARENA_H_
