// Always-affordable flight recorder: a fixed ring of the last structured
// log lines, and a crash-dump writer that pairs them with the spans the
// tracer keeps in ring mode (Tracer::for_each_recent_event — the store
// `--trace` exports and the serve slow-query log reads). The crash
// handler writes a Chrome-trace + log bundle with async-signal-safe
// calls only (write/clock_gettime; no lock, no malloc, no stdio), then
// restores the default disposition and re-raises.
#pragma once

#include <cstddef>
#include <string>

#include "common/result.hpp"

namespace gpumine {

class FlightRecorder {
 public:
  /// Structured log lines retained process-wide.
  static constexpr std::size_t kLogRingSize = 128;
  /// Max bytes per retained log line (longer lines are dropped and
  /// counted, never truncated into invalid JSON).
  static constexpr std::size_t kLogLineBytes = 384;

  static FlightRecorder& instance();

  /// Retains one complete JSON-object log line (the logger mirrors every
  /// emitted line here). Lines longer than kLogLineBytes are dropped.
  void record_log(const char* line, std::size_t len);

  /// Pre-opens `path` and installs SIGSEGV/SIGABRT/SIGBUS handlers that
  /// dump the recent spans and log lines there. Also turns on the
  /// tracer's ring mode (a crash dump without spans would be useless).
  [[nodiscard]] Result<bool> arm_crash_dump(const std::string& path);

  /// Restores the previous signal dispositions and closes the dump fd.
  void disarm_crash_dump();

  /// Writes the bundle (the same document the crash handler emits, with
  /// `crash_signal` 0) from a normal context.
  [[nodiscard]] Result<bool> dump_file(const std::string& path) const;

  /// Clears the log ring. Test-only.
  void reset_for_tests();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

 private:
  FlightRecorder() = default;
};

}  // namespace gpumine
