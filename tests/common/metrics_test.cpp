// Metrics registry + Prometheus exposition: instrument semantics (the
// log2-nanosecond Histogram included), deterministic snapshots under
// concurrent registration, and the self-contained exposition lint that
// serve --check / metrics-check run.
#include "common/metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace gpumine {
namespace {

TEST(Counter, AddsMonotonically) {
  MetricsRegistry registry;
  Counter& c = registry.counter("test_total", "help");
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, LastWriteWins) {
  MetricsRegistry registry;
  Gauge& g = registry.gauge("test_gauge", "help");
  g.set(1.5);
  g.set(-2.5);
  EXPECT_DOUBLE_EQ(g.value(), -2.5);
}

TEST(LatencyHistogram, EmptyReportsZero) {
  Histogram histogram;
  EXPECT_EQ(histogram.total(), 0u);
  EXPECT_EQ(histogram.percentile_ns(0.5), 0u);
  EXPECT_EQ(histogram.percentile_ns(0.99), 0u);
}

TEST(LatencyHistogram, PercentileIsTheBucketUpperBound) {
  Histogram histogram;
  histogram.record(1000);  // bit_width 10 -> bucket upper bound 1023
  EXPECT_EQ(histogram.total(), 1u);
  EXPECT_EQ(histogram.percentile_ns(0.5), 1023u);
  EXPECT_EQ(histogram.percentile_ns(1.0), 1023u);
}

TEST(LatencyHistogram, TailLandsInTheSlowBucket) {
  Histogram histogram;
  for (int i = 0; i < 90; ++i) histogram.record(100);    // ub 127
  for (int i = 0; i < 10; ++i) histogram.record(900000); // ub 1048575
  EXPECT_EQ(histogram.total(), 100u);
  EXPECT_EQ(histogram.percentile_ns(0.50), 127u);
  EXPECT_EQ(histogram.percentile_ns(0.90), 127u);
  EXPECT_EQ(histogram.percentile_ns(0.95), 1048575u);
  EXPECT_EQ(histogram.percentile_ns(0.99), 1048575u);
}

TEST(LatencyHistogram, ExtremeValuesClampToTheLastBucket) {
  Histogram histogram;
  histogram.record(0);
  EXPECT_EQ(histogram.percentile_ns(0.5), 0u);
  histogram.record(~std::uint64_t{0});
  EXPECT_EQ(histogram.percentile_ns(1.0),
            (std::uint64_t{1} << (Histogram::kBuckets - 1)) - 1);
}

TEST(LatencyHistogram, TracksExactSumMinMax) {
  Histogram histogram;
  EXPECT_EQ(histogram.sum_ns(), 0u);
  EXPECT_EQ(histogram.min_ns(), 0u);  // empty: min reports 0
  EXPECT_EQ(histogram.max_ns(), 0u);
  histogram.record(700);
  histogram.record(100);
  histogram.record(900000);
  EXPECT_EQ(histogram.sum_ns(), 900800u);
  EXPECT_EQ(histogram.min_ns(), 100u);
  EXPECT_EQ(histogram.max_ns(), 900000u);
}

TEST(LatencyHistogram, SingleSampleSumEqualsValue) {
  Histogram histogram;
  histogram.record(12345);
  EXPECT_EQ(histogram.sum_ns(), 12345u);
  EXPECT_EQ(histogram.min_ns(), 12345u);
  EXPECT_EQ(histogram.max_ns(), 12345u);
}

TEST(LatencyHistogram, BucketCountsExposeTheRawDistribution) {
  Histogram histogram;
  histogram.record(100);  // bit_width 7 -> bucket 7
  histogram.record(100);
  histogram.record(~std::uint64_t{0});  // clamps to the top bucket
  EXPECT_EQ(histogram.bucket_count(7), 2u);
  EXPECT_EQ(histogram.bucket_count(Histogram::kBuckets - 1), 1u);
}

TEST(LatencyHistogram, ConcurrentRecordsAllLand) {
  Histogram histogram;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) histogram.record(500);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(histogram.total(), 4000u);
}

TEST(RegistryHistogram, EmptyRendersZeroCountAndSum) {
  MetricsRegistry registry;
  registry.histogram("test_seconds", "help");
  const std::string text = registry.render_prometheus();
  EXPECT_NE(text.find("test_seconds_count 0"), std::string::npos) << text;
  EXPECT_NE(text.find("test_seconds_sum 0"), std::string::npos) << text;
  EXPECT_NE(text.find("test_seconds_bucket{le=\"+Inf\"} 0"),
            std::string::npos)
      << text;
  EXPECT_TRUE(validate_prometheus_text(text).ok());
}

TEST(RegistryHistogram, SingleSampleLandsInItsBucketAndAllAbove) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("test_seconds", "help");
  h.record(500);  // bit_width 9 -> bucket upper bound 511 ns
  EXPECT_EQ(h.total(), 1u);
  EXPECT_EQ(h.sum_ns(), 500u);
  const std::string text = registry.render_prometheus();
  EXPECT_NE(text.find("test_seconds_bucket{le=\"2.55e-07\"} 0"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("test_seconds_bucket{le=\"5.11e-07\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("test_seconds_bucket{le=\"1.023e-06\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("test_seconds_sum 5e-07"), std::string::npos) << text;
  EXPECT_NE(text.find("test_seconds_bucket{le=\"+Inf\"} 1"),
            std::string::npos)
      << text;
}

TEST(RegistryHistogram, BoundIsLeInclusive) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("test_seconds", "help");
  h.record(Histogram::bucket_upper_ns(10));  // exactly a bound: le-inclusive
  EXPECT_EQ(h.bucket_count(10), 1u);
  EXPECT_EQ(h.bucket_count(11), 0u);
  h.record(Histogram::bucket_upper_ns(10) + 1);
  EXPECT_EQ(h.bucket_count(11), 1u);
}

TEST(RegistryHistogram, OverflowSaturatesIntoTheInfBucket) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("test_seconds", "help");
  h.record(std::uint64_t{1} << 50);
  h.record(std::uint64_t{1} << 50);
  EXPECT_EQ(h.bucket_count(Histogram::kBuckets - 1), 2u);  // the +Inf slot
  const std::string text = registry.render_prometheus();
  // The highest finite bound, (2^46 - 1) ns.
  EXPECT_NE(text.find("test_seconds_bucket{le=\"70368.744177663\"} 0"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("test_seconds_bucket{le=\"+Inf\"} 2"),
            std::string::npos)
      << text;
  EXPECT_TRUE(validate_prometheus_text(text).ok());
}

TEST(MetricsRegistry, SameSeriesIsReturnedForSameNameAndLabels) {
  MetricsRegistry registry;
  Counter& a = registry.counter("t_total", "h", {{"k", "v"}});
  Counter& b = registry.counter("t_total", "h", {{"k", "v"}});
  EXPECT_EQ(&a, &b);
  Counter& c = registry.counter("t_total", "h", {{"k", "w"}});
  EXPECT_NE(&a, &c);
}

TEST(MetricsRegistry, LabelOrderDoesNotSplitSeries) {
  MetricsRegistry registry;
  Counter& a = registry.counter("t_total", "h", {{"a", "1"}, {"b", "2"}});
  Counter& b = registry.counter("t_total", "h", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&a, &b);
}

// The determinism bar from the issue: 8 threads registering overlapping
// families in racing order must yield the same rendered series set as a
// single thread doing the same work.
TEST(MetricsRegistry, ConcurrentRegistrationRendersDeterministically) {
  const auto exercise = [](MetricsRegistry& registry, int t) {
    for (int i = 0; i < 16; ++i) {
      registry
          .counter("det_total", "racing counter",
                   {{"worker", std::to_string((t + i) % 8)}})
          .add();
      registry
          .gauge("det_gauge", "racing gauge",
                 {{"worker", std::to_string((t * 3 + i) % 8)}})
          .set(1.0);
      registry
          .histogram("det_seconds", "racing histogram",
                     {{"worker", std::to_string(i % 8)}})
          .record(250);
    }
  };

  MetricsRegistry parallel;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&parallel, t, &exercise] { exercise(parallel, t); });
  }
  for (auto& thread : threads) thread.join();

  MetricsRegistry serial;
  for (int t = 0; t < 8; ++t) exercise(serial, t);

  const std::string a = parallel.render_prometheus();
  const std::string b = serial.render_prometheus();
  EXPECT_EQ(a, b);
  const auto linted = validate_prometheus_text(a);
  ASSERT_TRUE(linted.ok()) << linted.error().to_string();
  // 8 counters + 8 gauges + 8 histograms x (48 buckets + sum + count).
  EXPECT_EQ(linted.value(), 416u);
}

TEST(PrometheusLint, AcceptsARenderedRegistry) {
  MetricsRegistry registry;
  registry.counter("ok_total", "a counter", {{"kind", "x"}}).add(3);
  registry.gauge("ok_gauge", "a gauge").set(1.25);
  registry.histogram("ok_seconds", "a histogram").record(200000);
  const auto linted = validate_prometheus_text(registry.render_prometheus());
  ASSERT_TRUE(linted.ok()) << linted.error().to_string();
  // Histogram samples count per line: 48 buckets + sum + count.
  EXPECT_EQ(linted.value(), 52u);
}

TEST(PrometheusLint, RejectsSamplesWithoutHelpOrType) {
  EXPECT_FALSE(validate_prometheus_text("no_meta_total 1\n").ok());
  EXPECT_FALSE(validate_prometheus_text("# HELP x_total h\nx_total 1\n").ok());
  EXPECT_FALSE(
      validate_prometheus_text("# TYPE x_total counter\nx_total 1\n").ok());
}

TEST(PrometheusLint, RejectsDuplicateSeries) {
  const std::string text =
      "# HELP x_total h\n"
      "# TYPE x_total counter\n"
      "x_total{k=\"v\"} 1\n"
      "x_total{k=\"v\"} 2\n";
  const auto linted = validate_prometheus_text(text);
  ASSERT_FALSE(linted.ok());
  EXPECT_NE(linted.error().to_string().find("duplicate"), std::string::npos);
}

TEST(PrometheusLint, RejectsInterleavedFamilies) {
  const std::string text =
      "# HELP a_total h\n"
      "# TYPE a_total counter\n"
      "a_total 1\n"
      "# HELP b_total h\n"
      "# TYPE b_total counter\n"
      "b_total 1\n"
      "a_total{k=\"v\"} 2\n";
  EXPECT_FALSE(validate_prometheus_text(text).ok());
}

TEST(PrometheusLint, RejectsNegativeAndNonFiniteCounters) {
  const std::string negative =
      "# HELP x_total h\n# TYPE x_total counter\nx_total -1\n";
  EXPECT_FALSE(validate_prometheus_text(negative).ok());
  const std::string nan =
      "# HELP x_total h\n# TYPE x_total counter\nx_total NaN\n";
  EXPECT_FALSE(validate_prometheus_text(nan).ok());
}

TEST(PrometheusLint, RejectsHistogramWithoutInfBucket) {
  const std::string text =
      "# HELP h_seconds h\n"
      "# TYPE h_seconds histogram\n"
      "h_seconds_bucket{le=\"1\"} 1\n"
      "h_seconds_sum 0.5\n"
      "h_seconds_count 1\n";
  const auto linted = validate_prometheus_text(text);
  ASSERT_FALSE(linted.ok());
  EXPECT_NE(linted.error().to_string().find("+Inf"), std::string::npos);
}

TEST(PrometheusLint, RejectsNonCumulativeHistogramBuckets) {
  const std::string text =
      "# HELP h_seconds h\n"
      "# TYPE h_seconds histogram\n"
      "h_seconds_bucket{le=\"1\"} 2\n"
      "h_seconds_bucket{le=\"+Inf\"} 1\n"
      "h_seconds_sum 0.5\n"
      "h_seconds_count 1\n";
  EXPECT_FALSE(validate_prometheus_text(text).ok());
}

TEST(PrometheusLint, RejectsCountDisagreeingWithInfBucket) {
  const std::string text =
      "# HELP h_seconds h\n"
      "# TYPE h_seconds histogram\n"
      "h_seconds_bucket{le=\"+Inf\"} 2\n"
      "h_seconds_sum 0.5\n"
      "h_seconds_count 3\n";
  EXPECT_FALSE(validate_prometheus_text(text).ok());
}

TEST(PrometheusLint, RejectsMalformedNamesAndEmptyDocuments) {
  EXPECT_FALSE(validate_prometheus_text("").ok());
  EXPECT_FALSE(
      validate_prometheus_text("# HELP 9bad h\n# TYPE 9bad gauge\n9bad 1\n")
          .ok());
}

TEST(PrometheusLint, CountsDistinctSeries) {
  const std::string text =
      "# HELP a_total h\n"
      "# TYPE a_total counter\n"
      "a_total{k=\"1\"} 1\n"
      "a_total{k=\"2\"} 1\n"
      "# HELP b_gauge h\n"
      "# TYPE b_gauge gauge\n"
      "b_gauge -0.5\n";
  const auto linted = validate_prometheus_text(text);
  ASSERT_TRUE(linted.ok()) << linted.error().to_string();
  EXPECT_EQ(linted.value(), 3u);
}

TEST(PrometheusRender, EscapesLabelValues) {
  MetricsRegistry registry;
  registry.gauge("esc_gauge", "h", {{"k", "a\"b\\c\nd"}}).set(1.0);
  const std::string text = registry.render_prometheus();
  EXPECT_NE(text.find("k=\"a\\\"b\\\\c\\nd\""), std::string::npos) << text;
  EXPECT_TRUE(validate_prometheus_text(text).ok());
}

}  // namespace
}  // namespace gpumine
