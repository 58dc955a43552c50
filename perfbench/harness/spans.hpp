// The benchmark's own span store. Spans are taken from outside the
// program, around each call into a layer's public functions, so the
// traced run can attribute wall time to layers without instrumenting
// the program itself.
//
// Naming: a span called "<layer>.<what>" (prep.csv, core.mine,
// serve.engine_build, ...) belongs to that layer; spans called
// "op.<what>" are the benchmark's root operations (one pipeline, one
// request, the serve set-up). Each span records name, start, end, its
// parent span and the request id it was taken for. Spans are kept in
// memory and written out once, as a Chrome trace-event file, when the
// run ends.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanEvent {
  const char* name = "";  // string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   // 0 = root
  std::uint64_t request = 0;  // 0 = not tied to one request
  std::uint32_t tid = 0;
};

class SpanRecorder {
 public:
  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Call before any thread records spans.
  void enable() { enabled_ = true; }

  void record(const SpanEvent& event);
  [[nodiscard]] std::uint64_t next_id();

  /// Durations (ms) of spans with this name whose root operation is
  /// named `root` ("op.pipeline", ...), in recording order.
  [[nodiscard]] std::vector<double> durations_ms_under(
      const std::string& name, const std::string& root) const;
  /// Self time (span minus the time its child spans cover), summed per
  /// layer prefix ("prep", "core", "op", ...), in ms.
  [[nodiscard]] std::map<std::string, double> self_ms_by_layer() const;
  /// Share of root-operation wall time covered by layer spans: the sum
  /// of the children of every root span named in `roots` over the sum
  /// of those root spans.
  [[nodiscard]] double attribution(const std::vector<std::string>& roots) const;
  [[nodiscard]] std::size_t size() const;
  /// Writes every span as a Chrome trace-event ("X" phase) document.
  [[nodiscard]] bool write_chrome_trace(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mutex_;
  std::vector<SpanEvent> events_;  // guarded by mutex_
  std::uint64_t last_id_ = 0;      // guarded by mutex_
};

/// RAII span. Does nothing when the recorder is disabled. Nests through
/// a thread-local parent, so child spans need no explicit wiring; a
/// non-zero `request` tags this span and its children.
class Span {
 public:
  Span(SpanRecorder& recorder, const char* name, std::uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder& recorder_;
  SpanEvent event_;
  std::uint64_t saved_request_ = 0;
};

}  // namespace perfbench
