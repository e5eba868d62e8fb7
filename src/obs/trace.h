#ifndef IDEAL_OBS_TRACE_H_
#define IDEAL_OBS_TRACE_H_

/**
 * @file
 * RAII span tracer emitting Chrome trace-event JSON (the format
 * chrome://tracing and Perfetto load directly): "B"/"E" duration
 * pairs per thread, "C" counter samples, "I" instants.
 *
 * Activation: IDEAL_TRACE=<path> writes the trace to <path> when the
 * process exits (or when Tracer::stop() is called). Without the
 * variable every Span compiles down to one relaxed atomic load and a
 * predictable branch — cheap enough to leave instrumentation in hot
 * paths permanently (<2% of fig02 wall time; see DESIGN.md §8).
 *
 * Span taxonomy (DESIGN.md §8): coarse spans — pipeline stages,
 * pool tiles, simulator stages — are always emitted when tracing is
 * on. The *step* category (DCT1..DE2 via bm3d::ScopedTimer, once per
 * tile row in the BM3D tile loops and per reference patch in V-BM3D)
 * multiplies event counts by the row or reference count, so it
 * additionally requires IDEAL_TRACE_STEPS=1; use it on small images.
 *
 * Threading: events append to per-thread buffers (one uncontended
 * mutex each), merged at flush. name/cat/argKey must be string
 * literals (stored by pointer, never copied).
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace ideal {
namespace obs {

namespace detail {
/// Mirrors the *global* tracer's enabled state so Span's fast path is
/// one relaxed load without touching the singleton.
extern std::atomic<bool> g_trace_enabled;
/// Set when the per-step fine-grained category is requested too.
extern std::atomic<bool> g_trace_steps;
} // namespace detail

/** One buffered trace event. Pointers must outlive the tracer. */
struct TraceEvent
{
    const char *name = nullptr;
    const char *cat = nullptr;
    char phase = 'B';           ///< 'B', 'E', 'C' or 'I'
    double tsUs = 0.0;          ///< microseconds since tracer start
    const char *argKey = nullptr; ///< optional single numeric arg
    double argValue = 0.0;
};

/**
 * Collects events and writes them as Chrome trace JSON. One global
 * instance serves the instrumentation macros/spans; tests may create
 * private tracers with their own sink files.
 */
class Tracer
{
  public:
    Tracer();
    ~Tracer(); ///< stop()s, flushing any active sink

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /**
     * The process-wide tracer. Initialized at program start (so the
     * enabled flag is accurate from the first span); starts recording
     * immediately when IDEAL_TRACE names a sink path.
     */
    static Tracer &global();

    /** True when the *global* tracer is recording (Span fast path). */
    static bool
    globalEnabled()
    {
        return detail::g_trace_enabled.load(std::memory_order_relaxed);
    }

    /** True when per-step spans (ScopedTimer) should be emitted. */
    static bool
    stepTracingEnabled()
    {
        return detail::g_trace_enabled.load(std::memory_order_relaxed) &&
               detail::g_trace_steps.load(std::memory_order_relaxed);
    }

    /** True when this tracer is recording. */
    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

    /**
     * Begin recording into @p path (flushes and replaces any previous
     * sink). Time zero is reset to now.
     */
    void start(const std::string &path);

    /** Flush buffered events to the sink and disable recording. */
    void stop();

    /** Toggle the fine-grained per-step category (global tracer only). */
    void setStepTracing(bool on);

    /** Current sink path (empty when disabled). */
    std::string path() const;

    /** Number of buffered events (test introspection). */
    size_t eventCount() const;

    // Event emission. No-ops when not enabled.
    void begin(const char *name, const char *cat,
               const char *argKey = nullptr, double argValue = 0.0);
    void end(const char *name, const char *cat);
    void counter(const char *name, double value);
    void instant(const char *name, const char *cat);

    /// Per-thread event buffer; defined in trace.cc (public only so
    /// the file-scope thread-local cache can name it).
    struct Buffer;

  private:
    Buffer &localBuffer();
    void record(const TraceEvent &event);
    void flushLocked(); ///< caller holds mutex_

    const uint64_t id_; ///< process-unique, keys the thread-local cache
    const bool isGlobal_;
    std::atomic<bool> enabled_{false};
    std::chrono::steady_clock::time_point epoch_;

    mutable std::mutex mutex_; ///< guards sink_ + buffers_ (the list)
    std::string sink_;
    std::vector<std::unique_ptr<Buffer>> buffers_;

    struct GlobalTag
    {
    };
    explicit Tracer(GlobalTag);
};

/**
 * RAII duration span against the global tracer. When tracing is off
 * the constructor is a relaxed load + branch and the destructor a
 * null check.
 */
class Span
{
  public:
    explicit Span(const char *name, const char *cat = "ideal")
    {
        if (Tracer::globalEnabled())
            open(name, cat, nullptr, 0.0);
    }

    /** Span with one numeric arg (e.g. {"index": 42}). */
    Span(const char *name, const char *cat, const char *argKey,
         double argValue)
    {
        if (Tracer::globalEnabled())
            open(name, cat, argKey, argValue);
    }

    /**
     * Span against an explicit tracer (tests). @p name may be nullptr
     * for an inert span.
     */
    Span(Tracer &tracer, const char *name, const char *cat = "ideal");

    ~Span()
    {
        if (tracer_ != nullptr)
            close();
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    void open(const char *name, const char *cat, const char *argKey,
              double argValue);
    void close();

    Tracer *tracer_ = nullptr;
    const char *name_ = nullptr;
    const char *cat_ = nullptr;
};

/**
 * Span for the fine-grained per-step category: inert unless both
 * IDEAL_TRACE and IDEAL_TRACE_STEPS are active.
 */
class StepSpan
{
  public:
    explicit StepSpan(const char *name)
    {
        if (Tracer::stepTracingEnabled()) {
            name_ = name;
            Tracer::global().begin(name, "step");
        }
    }

    ~StepSpan()
    {
        if (name_ != nullptr)
            Tracer::global().end(name_, "step");
    }

    StepSpan(const StepSpan &) = delete;
    StepSpan &operator=(const StepSpan &) = delete;

  private:
    const char *name_ = nullptr;
};

} // namespace obs
} // namespace ideal

#endif // IDEAL_OBS_TRACE_H_
