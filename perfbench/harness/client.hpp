// Loopback HTTP/1.1 client and open-loop load generator.
//
// The client honours the server's Connection header: it keeps a
// connection when the server leaves it open and opens one per request
// otherwise, so a server that adds keep-alive shows its gain here
// without a benchmark edit.
//
// The generator fixes the whole send schedule before the phase starts
// and times every request from the moment it was due, so a stall also
// charges the requests queued behind it. How late each send actually
// left is recorded as the generator's lag.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "spans.hpp"

namespace perfbench {

struct HttpReply {
  bool transport_ok = false;  // false: connect/send/recv/parse failed
  int status = 0;
  std::string body;
  std::string error;
};

class HttpClient {
 public:
  explicit HttpClient(std::uint16_t port) : port_(port) {}
  ~HttpClient();
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  [[nodiscard]] HttpReply request(std::string_view method,
                                  std::string_view target);
  [[nodiscard]] std::uint64_t connections_opened() const {
    return connections_opened_;
  }

 private:
  bool open();
  void close_connection();
  HttpReply exchange(std::string_view wire, bool* retry_on_fresh);

  std::uint16_t port_;
  int fd_ = -1;
  std::uint64_t connections_opened_ = 0;
};

/// One request the generator may send, with the response it must get
/// back. `body` points into storage owned by the caller.
struct Target {
  enum class Kind { kQuery, kSupport, kHealth, kReload };
  Kind kind = Kind::kQuery;
  std::string method = "GET";
  std::string target;
  int status = 200;
  const std::string* body = nullptr;
};

struct Planned {
  std::int64_t due_ns = 0;  // offset from the phase start
  std::uint32_t target = 0;
};

struct Outcome {
  bool sent = false;
  bool replied = false;  // a full HTTP response came back
  bool ok = false;       // ... and it matched the target's expectation
  bool traced = false;
  int status = 0;
  std::int64_t due_ns = 0;   // absolute steady-clock time
  std::int64_t sent_ns = 0;  // absolute
  std::int64_t done_ns = 0;  // absolute
  [[nodiscard]] double latency_us() const {
    return static_cast<double>(done_ns - due_ns) / 1e3;
  }
  [[nodiscard]] double lag_us() const {
    return static_cast<double>(sent_ns - due_ns) / 1e3;
  }
  [[nodiscard]] double service_us() const {
    return static_cast<double>(done_ns - sent_ns) / 1e3;
  }
};

struct PhaseConfig {
  /// Sends not started by phase start + this are abandoned (unsent).
  std::int64_t send_deadline_ns = 0;
  /// Request ids are first_request_id + index into the plan.
  std::uint64_t first_request_id = 1;
  /// When > 0 and spans are on, requests due in even periods of this
  /// length run without spans, so one traced run can measure what the
  /// spans cost.
  std::int64_t untraced_period_ns = 0;
};

struct PhaseResult {
  std::vector<Outcome> outcomes;  // parallel to the plan
  std::uint64_t connections = 0;
  std::vector<std::string> first_errors;  // a few, for diagnostics
};

/// Runs `plan` open loop against 127.0.0.1:`port` from 2 sender
/// threads: request i goes to sender i % 2, and each sender owns one
/// connection at a time.
/// `start_ns` is the absolute phase start.
[[nodiscard]] PhaseResult run_open_loop(std::uint16_t port,
                                        const std::vector<Target>& targets,
                                        const std::vector<Planned>& plan,
                                        std::int64_t start_ns,
                                        const PhaseConfig& config,
                                        SpanRecorder& spans);

/// True when a reply matches what the target expects.
[[nodiscard]] bool reply_matches(const Target& target, const HttpReply& reply);

}  // namespace perfbench
