// Golden /metrics and /stats bodies for a fixed sequence of recorded
// requests and reloads. The sequence covers a 0 ns latency, one that
// saturates the top log2 bucket, non-2xx statuses and a failed reload.
// Only the clock-derived values (uptime, qps, engine build time) are
// masked; every other byte must match the files under
// tests/serve/golden/.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <regex>
#include <sstream>
#include <string>

#include "serve/handler.hpp"
#include "serve_test_util.hpp"

namespace gpumine::serve {
namespace {

std::string read_golden(const std::string& name) {
  std::ifstream in(std::string(GPUMINE_SERVE_GOLDEN_DIR) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in) << "missing golden file " << name;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// A fresh handler over the deterministic fixture snapshot, fed the same
// record sequence every time. The request that reads the body back is
// recorded only after its response is rendered, so it never shows up.
std::unique_ptr<RequestHandler> recorded_handler() {
  auto handler = std::make_unique<RequestHandler>(
      std::make_shared<const QueryEngine>(testutil::snapshot_fixture()), "");
  ServerMetrics& m = handler->metrics();
  m.record(Endpoint::kQuery, 200, 1000);
  m.record(Endpoint::kQuery, 404, 2000);
  m.record(Endpoint::kQuery, 200, 0);
  m.record(Endpoint::kSupport, 200, 500);
  m.record(Endpoint::kSupport, 400, 4095);
  m.record(Endpoint::kStats, 200, 123456);
  m.record(Endpoint::kReload, 200, 7000000);
  m.record(Endpoint::kReload, 500, 3000000);
  m.record(Endpoint::kHealth, 200, 250);
  m.record(Endpoint::kOther, 404, std::uint64_t{1} << 50);  // top bucket
  m.record_reload(true);
  m.record_reload(false);
  return handler;
}

TEST(ServerMetricsGolden, MetricsExpositionIsByteStable) {
  const auto handler = recorded_handler();
  const HttpResponse response = handler->handle("GET", "/metrics");
  ASSERT_EQ(response.status, 200);
  std::string body = std::regex_replace(
      response.body,
      std::regex("(\ngpumine_server_uptime_seconds )[^\n]*"), "$1<uptime>");
  body = std::regex_replace(
      body, std::regex("(\ngpumine_snapshot_engine_build_seconds )[^\n]*"),
      "$1<build>");
  EXPECT_EQ(body, read_golden("server_metrics.prom"));
}

TEST(ServerMetricsGolden, StatsBodyIsByteStable) {
  const auto handler = recorded_handler();
  const HttpResponse response = handler->handle("GET", "/stats");
  ASSERT_EQ(response.status, 200);
  std::string body = std::regex_replace(
      response.body, std::regex("(\"uptime_seconds\":)[^,]*"), "$1<uptime>");
  body = std::regex_replace(body, std::regex("(\"qps\":)[^,]*"), "$1<qps>");
  body = std::regex_replace(body, std::regex("(\"engine_build_ms\":)[^}]*"),
                            "$1<build>");
  EXPECT_EQ(body + "\n", read_golden("server_stats.json"));
}

}  // namespace
}  // namespace gpumine::serve
