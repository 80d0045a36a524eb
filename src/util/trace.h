// Tracing + metrics for the compiler pipeline.
//
// The paper's evaluation (Figures 8-10, Table 1) is a set of latency and
// compile-time breakdowns; this layer is how the pipeline produces them.
// Three pieces:
//
//   * RAII spans. `Tracer::span("grape 2q", "qoc")` stamps a begin time and,
//     when the returned object dies, an end time plus the worker thread that
//     ran the region. Each block's synthesis / GRAPE work therefore shows up
//     as its own slice under its worker's row in the exported timeline.
//   * Named monotonic counters. `add_counter("qoc.grape_runs", n)` aggregates
//     order-independently (a plain sum), so totals are bit-identical across
//     thread counts whenever the underlying work is (which the single-flight
//     caches guarantee).
//   * Export. `TraceReport::to_chrome_json()` emits Chrome trace_event JSON
//     ("X" duration events + "C" counter samples) loadable in chrome://tracing
//     and Perfetto; `summary()` is a flat text digest for terminals.
//
// Overhead contract: a disabled tracer does one relaxed atomic load per
// span/counter call and touches nothing else — no locks, no allocation, no
// clock reads. Enabled-path recording takes a mutex per event, which is
// negligible next to the multi-millisecond GRAPE/QSearch regions it brackets;
// perfbench's `trace_overhead` metric measures it as the traced/untraced
// wall-clock ratio on each workload.
//
// Determinism contract (PR 1): tracing must never perturb the compiled
// artifact. Spans are sorted by (begin, end, name, tid) on snapshot so the
// export is reproducible given identical timings; counters are plain sums,
// identical across thread counts.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace epoc::util {

/// One completed span. Times are nanoseconds since the tracer's epoch (its
/// construction or last reset). `tid` is a small dense id: 0 for the first
/// thread that recorded an event, 1 for the second, and so on.
struct TraceEvent {
    std::string name;
    std::string category;
    std::uint64_t begin_ns = 0;
    std::uint64_t end_ns = 0;
    int tid = 0;
};

/// Immutable snapshot of a tracer: spans (sorted) + counters (name-ordered).
/// Cheap to copy around on EpocResult; empty when tracing was disabled.
struct TraceReport {
    bool enabled = false;
    std::vector<TraceEvent> spans;
    std::vector<std::pair<std::string, std::uint64_t>> counters;

    /// Value of a counter, 0 if absent.
    std::uint64_t counter(const std::string& name) const;
    /// True if some span with this exact name was recorded.
    bool has_span(const std::string& name) const;

    /// Chrome trace_event JSON (the {"traceEvents":[...]} object form).
    /// Loadable in chrome://tracing and Perfetto. Span times become
    /// microsecond "X" events; counters become one "C" sample each.
    std::string to_chrome_json() const;
    /// Flat text summary: per-name span count/total time, then counters.
    std::string summary() const;
};

class Tracer {
public:
    explicit Tracer(bool enabled = false);

    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
    /// Enabling mid-run is safe; spans already in flight on other threads
    /// record iff the tracer was enabled when they were opened.
    void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

    /// RAII span handle. Inactive handles (disabled tracer) are inert.
    class Span {
    public:
        Span() = default;
        Span(Tracer* tracer, std::string name, std::string category);
        ~Span();
        Span(Span&& other) noexcept;
        Span& operator=(Span&& other) noexcept;
        Span(const Span&) = delete;
        Span& operator=(const Span&) = delete;
        /// Close early (idempotent); the destructor then does nothing.
        void end();

    private:
        Tracer* tracer_ = nullptr; ///< null when inert
        std::string name_;
        std::string category_;
        std::uint64_t begin_ns_ = 0;
    };

    /// Open a span; record it when the handle dies (or `end()` is called).
    Span span(std::string name, std::string category = std::string());

    /// Add `delta` to the named counter. No-op when disabled.
    void add_counter(const std::string& name, std::uint64_t delta = 1);
    /// Overwrite the named counter (for folding in externally-accumulated
    /// totals like cache hit/miss stats). No-op when disabled.
    void set_counter(const std::string& name, std::uint64_t value);

    /// Snapshot everything recorded since construction / the last reset.
    TraceReport report() const;

    /// Drop all spans and counters and restart the time epoch.
    void reset();

private:
    friend class Span;
    std::uint64_t now_ns() const;
    int tid_of(std::thread::id id);
    void record(TraceEvent ev);

    std::atomic<bool> enabled_;
    std::uint64_t epoch_ns_ = 0; ///< steady_clock origin, guarded by mutex_ on write

    mutable std::mutex mutex_;
    std::vector<TraceEvent> events_;
    std::map<std::string, std::uint64_t> counters_;
    std::map<std::thread::id, int> thread_ids_;
};

} // namespace epoc::util
