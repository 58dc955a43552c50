// Low-overhead structured tracing for the whole pipeline.
//
// A Span is an RAII scope: construction stamps a start time, destruction
// records one completed event (name, thread, start, duration, nesting
// depth) into the calling thread's buffer. Buffers are single-producer:
// the owning thread appends without taking a lock (chunk storage comes
// from a per-thread Arena, so the hot path never calls malloc), and
// readers walk the chunks through atomics, so a live server can be
// summarized — or a crash handler can dump — while threads keep
// recording.
//
// The one span store has two retention modes. Full mode (enable(), used
// by `--trace`) keeps every chunk. Ring mode (set_ring_mode(), used by
// the flight recorder and the serve slow-query log) keeps each thread's
// two newest chunks and reuses the older one, so it holds at most two
// 8 KiB chunks (16,416 bytes) per registered thread until reset().
// Full wins while both modes are on.
//
// The process-wide Tracer is off by default; a disabled Span costs one
// relaxed atomic load and a branch. Defining GPUMINE_TRACING=0 compiles
// Span bodies out entirely. When enabled, the recording cost is bounded
// by span granularity — instrumentation sits at task/chunk level, never
// per row or per tree node — keeping overhead within the 2% budget.
//
// Export targets the Chrome trace-event JSON format ("X" complete
// events), loadable in Perfetto / chrome://tracing, plus a collapsed
// per-span-name summary whose rows are sorted by name so `--stats`
// output stays deterministic at any thread count.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.hpp"

#ifndef GPUMINE_TRACING
#define GPUMINE_TRACING 1
#endif

namespace gpumine {

/// One completed span as drained from the buffers. `tid` is a small
/// sequential id assigned at thread registration (stable within a run),
/// `start_ns` is relative to the Tracer epoch, `depth` is the nesting
/// level on the recording thread (0 = outermost).
struct TraceEvent {
  const char* name = nullptr;  // static-storage string literal
  std::uint64_t start_ns = 0;
  std::uint64_t duration_ns = 0;
  std::uint32_t tid = 0;
  std::uint32_t depth = 0;
};

/// Collapsed per-name aggregate across all threads.
struct SpanSummary {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;  // sum of durations (nested spans overlap)
  std::uint64_t max_ns = 0;    // longest single span
};

namespace trace_detail {
struct ThreadBuffer;
}  // namespace trace_detail

/// Process-wide trace collector. Thread buffers register lazily on first
/// record and live until reset(); recording is wait-free for the owning
/// thread. enable()/reset() must not race with in-flight spans (the CLI
/// enables before the pipeline runs and exports after it finishes; the
/// server enables at startup and exports at shutdown) — collect(),
/// summarize() and for_each_recent_event() may run concurrently with
/// recording.
class Tracer {
 public:
  /// Events per chunk (32 bytes each, plus a 16-byte chunk header).
  static constexpr std::size_t kChunkEvents = 256;

  static Tracer& instance() {
    static Tracer tracer;
    return tracer;
  }

  /// Full mode: keep every recorded chunk (`--trace`).
  void enable();
  void disable();
  [[nodiscard]] bool enabled() const {
    return (modes_.load(std::memory_order_relaxed) & kModeFull) != 0;
  }

  /// Ring mode: keep each thread's two newest chunks (`--flight-dump`,
  /// `--slow-query-ms`). Independent of enable().
  void set_ring_mode(bool on);

  /// True when either mode is on — the Span fast-path check.
  [[nodiscard]] bool active() const {
    return modes_.load(std::memory_order_relaxed) != 0;
  }

  /// Drops all recorded events and thread registrations. Requires
  /// quiescence: no spans in flight on any thread, no concurrent reader.
  void reset();

  /// Nanoseconds since the tracer epoch (steady clock).
  [[nodiscard]] std::uint64_t now_ns() const;

  /// Records one completed event on the calling thread's buffer.
  void record(const char* name, std::uint64_t start_ns,
              std::uint64_t duration_ns, std::uint32_t depth);

  /// Snapshot of every retained event, sorted by (tid, start, -duration)
  /// so parents precede their children deterministically.
  [[nodiscard]] std::vector<TraceEvent> collect() const;

  /// Events in the *calling* thread's two newest chunks that started at
  /// or after `since_ns`, in completion order (the slow-query log).
  [[nodiscard]] std::vector<TraceEvent> thread_spans_since(
      std::uint64_t since_ns) const;

  /// Calls `visit(event, context)` on each thread's two newest chunks,
  /// newest first. Async-signal-safe (no lock, no malloc), for the crash
  /// dump; an event whose chunk is recycled mid-read is skipped.
  void for_each_recent_event(void (*visit)(const TraceEvent&, void*),
                             void* context) const;

  /// Per-name aggregates, sorted by name.
  [[nodiscard]] std::vector<SpanSummary> summarize() const;

  /// Human-readable summary table (aligned columns, name-sorted).
  [[nodiscard]] std::string summary_table() const;

  /// JSON array of per-name aggregates, name-sorted:
  /// [{"name":...,"count":...,"total_ms":...,"max_ms":...},...]
  [[nodiscard]] std::string summary_json() const;

  /// Writes the Chrome trace-event JSON document to `out`.
  void export_chrome_trace(std::ostream& out) const;

  /// Writes the Chrome trace-event JSON document to `path`.
  [[nodiscard]] Result<bool> export_chrome_trace_file(
      const std::string& path) const;

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

 private:
  static constexpr std::uint32_t kModeFull = 1u;
  static constexpr std::uint32_t kModeRing = 2u;

  Tracer() = default;

  trace_detail::ThreadBuffer& buffer_for_this_thread();

  std::atomic<std::uint32_t> modes_{0};
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  // Registration and reset; readers walk `buffers_` without it.
  std::mutex registry_mutex_;
  // Newest registration first, linked through ThreadBuffer::next.
  std::atomic<trace_detail::ThreadBuffer*> buffers_{nullptr};
  // Bumped by reset(); a thread whose cached buffer carries an older
  // generation re-registers on its next record.
  std::atomic<std::uint64_t> generation_{0};
};

/// Validates a Chrome trace-event file written by the exporter: the
/// document parses as JSON, holds a non-empty `traceEvents` array of "X"
/// events with numeric ts/dur/pid/tid, and per-thread spans are
/// well-formed (properly nested, never partially overlapping). Returns
/// the number of events on success.
[[nodiscard]] Result<std::size_t> validate_chrome_trace_file(
    const std::string& path);

/// Same validation over an in-memory document (for tests).
[[nodiscard]] Result<std::size_t> validate_chrome_trace_text(
    const std::string& text);

#if GPUMINE_TRACING
/// RAII scope: records one event on destruction if the tracer was
/// enabled at construction. `name` must be a string literal (stored by
/// pointer). Spans nest: a thread-local depth counter tags each event.
class Span {
 public:
  explicit Span(const char* name) {
    Tracer& tracer = Tracer::instance();
    if (tracer.active()) {
      name_ = name;
      start_ns_ = tracer.now_ns();
      depth_ = depth_counter()++;
    }
  }

  ~Span() {
    if (name_ != nullptr) {
      Tracer& tracer = Tracer::instance();
      --depth_counter();
      tracer.record(name_, start_ns_, tracer.now_ns() - start_ns_, depth_);
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  static std::uint32_t& depth_counter() {
    thread_local std::uint32_t depth = 0;
    return depth;
  }

  const char* name_ = nullptr;  // null => tracer was disabled at entry
  std::uint64_t start_ns_ = 0;
  std::uint32_t depth_ = 0;
};
#else
class Span {
 public:
  explicit Span(const char* /*name*/) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};
#endif

#define GPUMINE_SPAN_CONCAT_IMPL(a, b) a##b
#define GPUMINE_SPAN_CONCAT(a, b) GPUMINE_SPAN_CONCAT_IMPL(a, b)
/// Declares an anonymous RAII span for the rest of the enclosing scope.
#define GPUMINE_SPAN(name) \
  ::gpumine::Span GPUMINE_SPAN_CONCAT(gpumine_trace_span_, __LINE__)(name)

}  // namespace gpumine
