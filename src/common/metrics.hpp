// Unified metrics registry with Prometheus text exposition.
//
// Instruments are the hot path: a Counter is one relaxed fetch_add, a
// Gauge one relaxed store, a Histogram one bucket fetch_add plus relaxed
// updates of its exact sum, min and max — no locks anywhere on the
// recording side. Registration (cold) takes a mutex and returns a
// reference that stays valid for the registry's lifetime, so call sites
// register once and cache the reference.
//
// A registry is an instantiable object: the serve layer's ServerMetrics
// owns one and records into it on every request; the CLI builds one from
// MiningMetrics for `--metrics-out`.
//
// snapshot() is deterministic: families sorted by name, series sorted
// by their rendered label string — the series *set* of two registries
// fed the same registrations is byte-identical regardless of thread
// count or registration order. to_prometheus() renders text exposition
// format 0.0.4 (`# HELP` / `# TYPE` before samples, histograms as
// cumulative `_bucket`/`_sum`/`_count` with an explicit `+Inf` le).
// validate_prometheus_text() is the matching self-contained lint used
// by tests, `serve --check`, and the `metrics-check` subcommand.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.hpp"

namespace gpumine {

enum class MetricType { kCounter, kGauge, kHistogram };

[[nodiscard]] const char* to_string(MetricType type);

/// Label set for one series; keys are sorted (and checked unique) at
/// registration so identical label sets always compare equal.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// Monotone event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Lock-free log2-bucket histogram of nanosecond durations. Bucket i
/// counts values with bit_width(ns) == i, i.e. the range [2^(i-1), 2^i),
/// and the top bucket saturates; each bucket is an independent relaxed
/// atomic, so recording is one fetch_add plus the exact sum, min and
/// max. Percentiles read back as the upper bound of the bucket holding
/// the requested rank: an estimate within 2x of the true value. The
/// exposition renders bucket i as `le` = (2^i - 1) ns in seconds and the
/// top bucket as +Inf, with the exact sum as `_sum`.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 48;  // up to ~78 hours

  void record(std::uint64_t nanos) {
    std::size_t bucket = std::bit_width(nanos);
    if (bucket >= kBuckets) bucket = kBuckets - 1;
    buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(nanos, std::memory_order_relaxed);
    update_min(nanos);
    update_max(nanos);
  }

  /// Inclusive upper bound of bucket i, in nanoseconds: 2^i - 1.
  [[nodiscard]] static constexpr std::uint64_t bucket_upper_ns(std::size_t i) {
    return i == 0 ? 0 : (std::uint64_t{1} << i) - 1;
  }

  [[nodiscard]] std::uint64_t total() const {
    std::uint64_t sum = 0;
    for (const auto& b : buckets_) sum += b.load(std::memory_order_relaxed);
    return sum;
  }

  /// Exact sum of all recorded values, in nanoseconds.
  [[nodiscard]] std::uint64_t sum_ns() const {
    return sum_.load(std::memory_order_relaxed);
  }
  /// Exact smallest recorded value; 0 when nothing has been recorded.
  [[nodiscard]] std::uint64_t min_ns() const {
    const std::uint64_t v = min_.load(std::memory_order_relaxed);
    return v == kNoMin ? 0 : v;
  }
  /// Exact largest recorded value; 0 when nothing has been recorded.
  [[nodiscard]] std::uint64_t max_ns() const {
    return max_.load(std::memory_order_relaxed);
  }

  /// Raw (non-cumulative) count of bucket i.
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Upper bound (in nanoseconds) of the bucket holding the p-quantile
  /// observation, p in [0, 1]. 0 when nothing has been recorded.
  [[nodiscard]] std::uint64_t percentile_ns(double p) const;

 private:
  static constexpr std::uint64_t kNoMin = ~std::uint64_t{0};

  void update_min(std::uint64_t nanos) {
    std::uint64_t cur = min_.load(std::memory_order_relaxed);
    while (nanos < cur && !min_.compare_exchange_weak(
                              cur, nanos, std::memory_order_relaxed,
                              std::memory_order_relaxed)) {
    }
  }
  void update_max(std::uint64_t nanos) {
    std::uint64_t cur = max_.load(std::memory_order_relaxed);
    while (nanos > cur && !max_.compare_exchange_weak(
                              cur, nanos, std::memory_order_relaxed,
                              std::memory_order_relaxed)) {
    }
  }

  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{kNoMin};
  std::atomic<std::uint64_t> max_{0};
};

/// Point-in-time copy of one histogram series.
struct HistogramSnapshot {
  std::vector<std::uint64_t> cumulative;  // kBuckets entries, last = count
  double sum = 0.0;                       // seconds
  std::uint64_t count = 0;
};

struct SeriesSnapshot {
  MetricLabels labels;          // key-sorted
  double value = 0.0;           // counter / gauge
  HistogramSnapshot histogram;  // histogram only
};

struct FamilySnapshot {
  std::string name;
  std::string help;
  MetricType type = MetricType::kGauge;
  std::vector<SeriesSnapshot> series;  // label-sorted
};

struct RegistrySnapshot {
  std::vector<FamilySnapshot> families;  // name-sorted

  /// Prometheus text exposition format 0.0.4.
  [[nodiscard]] std::string to_prometheus() const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registers (or finds) the series; the reference stays valid for the
  /// registry's lifetime. Re-registering the same (name, labels) with a
  /// different type or a conflicting label schema is a caller bug
  /// (GPUMINE_ENSURE). Names must match [a-zA-Z_:][a-zA-Z0-9_:]*.
  Counter& counter(std::string_view name, std::string_view help,
                   MetricLabels labels = {});
  Gauge& gauge(std::string_view name, std::string_view help,
               MetricLabels labels = {});
  Histogram& histogram(std::string_view name, std::string_view help,
                       MetricLabels labels = {});

  /// Deterministic copy: families name-sorted, series label-sorted.
  [[nodiscard]] RegistrySnapshot snapshot() const;

  /// snapshot().to_prometheus().
  [[nodiscard]] std::string render_prometheus() const;

 private:
  struct Series {
    MetricLabels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    MetricType type = MetricType::kGauge;
    std::string help;
    std::vector<std::unique_ptr<Series>> series;
  };

  Series& series_for(std::string_view name, std::string_view help,
                     MetricType type, MetricLabels&& labels);

  mutable std::mutex mutex_;
  std::map<std::string, Family, std::less<>> families_;
};

/// Lints a text exposition document the way `promtool check metrics`
/// would: every sample's family declares `# HELP` and `# TYPE` first,
/// metric and label names are well-formed, no series appears twice,
/// families are not interleaved, counter samples are finite and
/// non-negative, and each histogram carries a `+Inf` bucket with
/// cumulative (monotone) bucket counts that agree with `_count`.
/// Returns the number of distinct series on success.
[[nodiscard]] Result<std::size_t> validate_prometheus_text(
    const std::string& text);

/// Same check over a file on disk.
[[nodiscard]] Result<std::size_t> validate_prometheus_file(
    const std::string& path);

}  // namespace gpumine
