// Small measurement helpers shared by the benchmark workloads: clocks,
// order statistics, digests and the result record every workload
// returns.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// steady_clock in nanoseconds since an arbitrary epoch.
[[nodiscard]] std::int64_t now_ns();

/// Sleeps until the steady clock reads `deadline_ns`.
void sleep_until_ns(std::int64_t deadline_ns);

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample;
/// 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// FNV-1a 64-bit digest, rendered as 16 hex digits.
[[nodiscard]] std::string fnv1a_hex(std::string_view bytes);

/// Percent-encodes everything outside the unreserved set, as the
/// `gpumine query` client does for item names.
[[nodiscard]] std::string percent_encode(std::string_view text);

/// What one workload run reports. `metrics` maps a metric name to its
/// value and unit; `info` carries human-readable extras printed before
/// the result line.
struct Report {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double setup_s = 0.0;
  std::map<std::string, Metric> metrics;
  std::map<std::string, Metric> info;  // printed, not a declared metric
  std::map<std::string, std::string> digests;
  std::vector<std::string> problems;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void note(const std::string& name, double value, const std::string& unit) {
    info[name] = {value, unit};
  }
  /// Records a failed correctness check; the run then reports
  /// correct=false and exits non-zero.
  void fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
  [[nodiscard]] std::string to_json() const;
};

}  // namespace perfbench
