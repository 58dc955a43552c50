#include "common/flight.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>

#include "common/trace.hpp"

namespace gpumine {
namespace {

// Log storage is static, so the crash handler never allocates and every
// pointer it touches is valid wherever the crash happened.

struct LogSlot {
  // 0 while (re)writing; the final byte length once published.
  std::atomic<std::uint32_t> len{0};
  char data[FlightRecorder::kLogLineBytes];
};

LogSlot g_log[FlightRecorder::kLogRingSize];
std::atomic<std::uint64_t> g_log_count{0};
std::atomic<std::uint64_t> g_log_dropped{0};

// --- crash-dump plumbing ----------------------------------------------------

std::atomic<int> g_dump_fd{-1};
std::atomic<bool> g_armed{false};
std::atomic<bool> g_dumping{false};
struct sigaction g_old_segv, g_old_abrt, g_old_bus;

/// Buffered writer over a raw fd using only async-signal-safe calls.
struct FdWriter {
  explicit FdWriter(int fd_in) : fd(fd_in) {}
  int fd;
  char buf[1024];
  std::size_t n = 0;

  void flush() {
    std::size_t off = 0;
    while (off < n) {
      const ssize_t w = ::write(fd, buf + off, n - off);
      if (w <= 0) break;
      off += static_cast<std::size_t>(w);
    }
    n = 0;
  }
  void put(char c) {
    if (n == sizeof(buf)) flush();
    buf[n++] = c;
  }
  void str(const char* s) {
    while (*s != '\0') put(*s++);
  }
  void u64(std::uint64_t v) {
    char tmp[20];
    int i = 0;
    do {
      tmp[i++] = static_cast<char>('0' + v % 10);
      v /= 10;
    } while (v != 0);
    while (i > 0) put(tmp[--i]);
  }
  /// Nanoseconds as microseconds with exactly three decimals — matches
  /// the regular exporter's precision without touching floating point.
  void us_from_ns(std::uint64_t ns) {
    u64(ns / 1000);
    put('.');
    const std::uint64_t r = ns % 1000;
    put(static_cast<char>('0' + r / 100));
    put(static_cast<char>('0' + (r / 10) % 10));
    put(static_cast<char>('0' + r % 10));
  }
  /// JSON string contents; control characters become '?' so the
  /// handler never needs \u escapes.
  void escaped(const char* s) {
    for (; *s != '\0'; ++s) {
      const char c = *s;
      if (c == '"' || c == '\\') {
        put('\\');
        put(c);
      } else if (static_cast<unsigned char>(c) < 0x20) {
        put('?');
      } else {
        put(c);
      }
    }
  }
};

// Tracer::for_each_recent_event callback: one Chrome "X" event and its
// trailing comma (the dump marker always follows the last one).
void write_span(const TraceEvent& ev, void* context) {
  FdWriter& w = *static_cast<FdWriter*>(context);
  w.str("\n{\"name\":\"");
  w.escaped(ev.name);
  w.str("\",\"ph\":\"X\",\"ts\":");
  w.us_from_ns(ev.start_ns);
  w.str(",\"dur\":");
  w.us_from_ns(ev.duration_ns);
  w.str(",\"pid\":1,\"tid\":");
  w.u64(ev.tid);
  w.str(",\"args\":{\"depth\":");
  w.u64(ev.depth);
  w.str("}},");
}

/// The whole dump, using only async-signal-safe calls. Also the body of
/// the normal-context dump_file().
void write_dump_to_fd(int fd, int sig) {
  FdWriter w(fd);
  w.str("{\"displayTimeUnit\":\"ms\",\"crash_signal\":");
  w.u64(static_cast<std::uint64_t>(sig));
  w.str(",\"traceEvents\":[");
  const Tracer& tracer = Tracer::instance();
  tracer.for_each_recent_event(write_span, &w);
  // A synthetic marker span on its own tid, stamped on the tracer clock
  // after every retained span has been read: traceEvents is never
  // empty, and the dump moment sits at the end of the timeline.
  w.str("\n{\"name\":\"flight/dump\",\"ph\":\"X\",\"ts\":");
  w.us_from_ns(tracer.now_ns());
  w.str(",\"dur\":0,\"pid\":1,\"tid\":9999,\"args\":{\"depth\":0}}");
  w.str("\n],\"log\":[");

  const std::uint64_t log_count = g_log_count.load(std::memory_order_acquire);
  const std::uint64_t log_avail =
      std::min<std::uint64_t>(log_count, FlightRecorder::kLogRingSize);
  bool first = true;
  for (std::uint64_t i = log_count - log_avail; i < log_count; ++i) {
    const LogSlot& slot = g_log[i % FlightRecorder::kLogRingSize];
    const std::uint32_t len = slot.len.load(std::memory_order_acquire);
    if (len == 0 || len > FlightRecorder::kLogLineBytes) continue;
    if (slot.data[0] != '{' || slot.data[len - 1] != '}') continue;
    if (!first) w.put(',');
    first = false;
    w.put('\n');
    for (std::uint32_t b = 0; b < len; ++b) w.put(slot.data[b]);
  }
  const std::uint64_t dropped = g_log_dropped.load(std::memory_order_relaxed);
  if (dropped != 0) {
    if (!first) w.put(',');
    w.str("\n{\"flight_dropped_logs\":");
    w.u64(dropped);
    w.put('}');
  }
  w.str("\n]}\n");
  w.flush();
}

void crash_handler(int sig) {
  // One dump per process: a fault inside the handler (or a second
  // signal on another thread) must not recurse into the writer.
  if (!g_dumping.exchange(true, std::memory_order_acq_rel)) {
    const int fd = g_dump_fd.load(std::memory_order_acquire);
    if (fd >= 0) {
      write_dump_to_fd(fd, sig);
      ::fsync(fd);
    }
  }
  struct sigaction dfl;
  std::memset(&dfl, 0, sizeof(dfl));
  dfl.sa_handler = SIG_DFL;
  ::sigaction(sig, &dfl, nullptr);
  ::raise(sig);
}

}  // namespace

FlightRecorder& FlightRecorder::instance() {
  static FlightRecorder recorder;
  return recorder;
}

void FlightRecorder::record_log(const char* line, std::size_t len) {
  if (len == 0 || len > kLogLineBytes) {
    g_log_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::uint64_t n = g_log_count.fetch_add(1, std::memory_order_relaxed);
  LogSlot& slot = g_log[n % kLogRingSize];
  slot.len.store(0, std::memory_order_release);
  std::memcpy(slot.data, line, len);
  slot.len.store(static_cast<std::uint32_t>(len), std::memory_order_release);
}

Result<bool> FlightRecorder::arm_crash_dump(const std::string& path) {
  disarm_crash_dump();
  const int fd =
      ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Error{path, "cannot open flight-recorder dump file"};
  }
  g_dump_fd.store(fd, std::memory_order_release);
  g_dumping.store(false, std::memory_order_relaxed);

  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = crash_handler;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGSEGV, &sa, &g_old_segv);
  ::sigaction(SIGABRT, &sa, &g_old_abrt);
  ::sigaction(SIGBUS, &sa, &g_old_bus);
  g_armed.store(true, std::memory_order_release);

  Tracer::instance().set_ring_mode(true);
  return true;
}

void FlightRecorder::disarm_crash_dump() {
  if (g_armed.exchange(false, std::memory_order_acq_rel)) {
    ::sigaction(SIGSEGV, &g_old_segv, nullptr);
    ::sigaction(SIGABRT, &g_old_abrt, nullptr);
    ::sigaction(SIGBUS, &g_old_bus, nullptr);
  }
  const int fd = g_dump_fd.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) ::close(fd);
}

Result<bool> FlightRecorder::dump_file(const std::string& path) const {
  const int fd =
      ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Error{path, "cannot open flight-recorder dump file"};
  }
  write_dump_to_fd(fd, 0);
  if (::close(fd) != 0) {
    return Error{path, "error writing flight-recorder dump"};
  }
  return true;
}

void FlightRecorder::reset_for_tests() {
  for (LogSlot& slot : g_log) slot.len.store(0, std::memory_order_release);
  g_log_count.store(0, std::memory_order_release);
  g_log_dropped.store(0, std::memory_order_relaxed);
  g_dumping.store(false, std::memory_order_relaxed);
}

}  // namespace gpumine
