// Server-side observability: per-endpoint request counters and latency
// histograms, cheap enough to update on every request from any thread.
//
// ServerMetrics owns one MetricsRegistry and registers its series in it
// once, at construction: per-endpoint request and error counters and
// log2-nanosecond latency histograms (common/metrics.hpp), and reload
// counters by result. A request is recorded straight into those
// instruments — relaxed atomics, no locks. A scrape adds the uptime and
// loaded-snapshot gauges. /metrics renders the registry; /stats reads the same
// instruments through snapshot(), whose individual counters are exact
// (cross-counter skew is bounded by in-flight requests). The exported
// series set is fixed by the endpoint list, hence byte-identical across
// worker-thread counts.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.hpp"

namespace gpumine::serve {

/// The endpoints the handler distinguishes. Liveness probes (kHealth)
/// and scrapes (kMetrics) get their own buckets so cheap machine-driven
/// traffic does not skew kOther's latency percentiles or error counts.
enum class Endpoint : std::size_t {
  kQuery = 0,
  kSupport,
  kStats,
  kReload,
  kHealth,
  kMetrics,
  kOther,
};
inline constexpr std::size_t kNumEndpoints = 7;

[[nodiscard]] const char* endpoint_name(Endpoint endpoint);

/// Point-in-time copy of one endpoint's counters.
struct EndpointSnapshot {
  std::string name;
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;  // non-2xx responses
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  // Exact (not bucket-quantized) latency aggregates.
  double mean_us = 0.0;
  double min_us = 0.0;
  double max_us = 0.0;
  std::uint64_t sum_ns = 0;
};

struct MetricsSnapshot {
  std::vector<EndpointSnapshot> endpoints;
  std::uint64_t total_requests = 0;
  std::uint64_t reloads = 0;
  std::uint64_t reload_failures = 0;
  double uptime_seconds = 0.0;
  double qps = 0.0;  // total_requests / uptime

  /// Single-line JSON object (the /stats payload embeds it).
  [[nodiscard]] std::string to_json() const;
};

/// Shape of the currently loaded rule snapshot, exported as gauges.
struct SnapshotShape {
  std::uint64_t db_size = 0;
  std::uint64_t items = 0;
  std::uint64_t itemsets = 0;
  std::uint64_t rules = 0;
  std::uint64_t keywords_with_rules = 0;
  double engine_build_seconds = 0.0;  // the current engine's build
};

/// Content type for the /metrics response.
inline constexpr const char* kPrometheusContentType =
    "text/plain; version=0.0.4; charset=utf-8";

class ServerMetrics {
 public:
  ServerMetrics();

  /// Records one finished request: endpoint, HTTP status, wall time.
  void record(Endpoint endpoint, int status, std::uint64_t nanos);

  void record_reload(bool ok);

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// The /metrics body (text exposition format 0.0.4): every registered
  /// series, with the uptime and `shape` gauges set at scrape time.
  [[nodiscard]] std::string render_prometheus(const SnapshotShape& shape);

 private:
  struct PerEndpoint {
    Counter* requests = nullptr;
    Counter* errors = nullptr;  // non-2xx responses
    Histogram* latency = nullptr;
  };

  MetricsRegistry registry_;
  std::chrono::steady_clock::time_point start_;
  std::array<PerEndpoint, kNumEndpoints> endpoints_{};
  Counter* reloads_ok_ = nullptr;
  Counter* reloads_failed_ = nullptr;
  std::mutex scrape_mutex_;  // one scrape sets the gauges and renders
};

}  // namespace gpumine::serve
