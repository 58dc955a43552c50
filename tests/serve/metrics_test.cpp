#include "serve/metrics.hpp"

#include <gtest/gtest.h>

#include <string>

namespace gpumine::serve {
namespace {

TEST(ServerMetrics, CountsRequestsErrorsAndReloads) {
  ServerMetrics metrics;
  metrics.record(Endpoint::kQuery, 200, 1000);
  metrics.record(Endpoint::kQuery, 404, 2000);
  metrics.record(Endpoint::kSupport, 200, 500);
  metrics.record_reload(true);
  metrics.record_reload(false);

  const MetricsSnapshot snapshot = metrics.snapshot();
  EXPECT_EQ(snapshot.total_requests, 3u);
  EXPECT_EQ(snapshot.reloads, 2u);
  EXPECT_EQ(snapshot.reload_failures, 1u);
  EXPECT_GT(snapshot.uptime_seconds, 0.0);
  ASSERT_EQ(snapshot.endpoints.size(), kNumEndpoints);
  EXPECT_EQ(snapshot.endpoints[0].name, "query");
  EXPECT_EQ(snapshot.endpoints[0].requests, 2u);
  EXPECT_EQ(snapshot.endpoints[0].errors, 1u);
  EXPECT_GT(snapshot.endpoints[0].p99_us, 0.0);
  EXPECT_EQ(snapshot.endpoints[1].name, "support");
  EXPECT_EQ(snapshot.endpoints[1].requests, 1u);
  EXPECT_EQ(snapshot.endpoints[1].errors, 0u);
  // Exact aggregates for the query endpoint: 1000ns and 2000ns samples.
  EXPECT_EQ(snapshot.endpoints[0].sum_ns, 3000u);
  EXPECT_DOUBLE_EQ(snapshot.endpoints[0].mean_us, 1.5);
  EXPECT_DOUBLE_EQ(snapshot.endpoints[0].min_us, 1.0);
  EXPECT_DOUBLE_EQ(snapshot.endpoints[0].max_us, 2.0);
}

TEST(ServerMetrics, JsonCarriesEveryEndpoint) {
  ServerMetrics metrics;
  metrics.record(Endpoint::kStats, 200, 100);
  const std::string json = metrics.snapshot().to_json();
  for (const char* name : {"query", "support", "stats", "reload", "health",
                           "metrics", "other"}) {
    EXPECT_NE(json.find("\"name\":\"" + std::string(name) + "\""),
              std::string::npos)
        << json;
  }
  EXPECT_NE(json.find("\"total_requests\":1"), std::string::npos);
  EXPECT_NE(json.find("\"mean_us\":"), std::string::npos);
  EXPECT_NE(json.find("\"min_us\":"), std::string::npos);
  EXPECT_NE(json.find("\"max_us\":"), std::string::npos);
}

TEST(EndpointNames, AreStable) {
  EXPECT_STREQ(endpoint_name(Endpoint::kQuery), "query");
  EXPECT_STREQ(endpoint_name(Endpoint::kReload), "reload");
  EXPECT_STREQ(endpoint_name(Endpoint::kHealth), "health");
  EXPECT_STREQ(endpoint_name(Endpoint::kMetrics), "metrics");
  EXPECT_STREQ(endpoint_name(Endpoint::kOther), "other");
}

}  // namespace
}  // namespace gpumine::serve
