#include "serve/metrics.hpp"

#include <cstdio>

namespace gpumine::serve {
namespace {

double to_us(std::uint64_t nanos) {
  return static_cast<double>(nanos) * 1e-3;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

const char* endpoint_name(Endpoint endpoint) {
  switch (endpoint) {
    case Endpoint::kQuery:
      return "query";
    case Endpoint::kSupport:
      return "support";
    case Endpoint::kStats:
      return "stats";
    case Endpoint::kReload:
      return "reload";
    case Endpoint::kHealth:
      return "health";
    case Endpoint::kMetrics:
      return "metrics";
    case Endpoint::kOther:
      return "other";
  }
  return "unknown";
}

ServerMetrics::ServerMetrics() : start_(std::chrono::steady_clock::now()) {
  for (std::size_t i = 0; i < kNumEndpoints; ++i) {
    const MetricLabels label{{"endpoint",
                              endpoint_name(static_cast<Endpoint>(i))}};
    PerEndpoint& e = endpoints_[i];
    e.requests = &registry_.counter("gpumine_server_requests_total",
                                    "Requests handled, by endpoint", label);
    e.errors = &registry_.counter("gpumine_server_errors_total",
                                  "Non-2xx responses, by endpoint", label);
    e.latency = &registry_.histogram("gpumine_server_request_latency_seconds",
                                     "Request wall time, by endpoint", label);
  }
  reloads_ok_ = &registry_.counter("gpumine_server_reloads_total",
                                   "Snapshot reload attempts, by result",
                                   {{"result", "ok"}});
  reloads_failed_ = &registry_.counter("gpumine_server_reloads_total",
                                       "Snapshot reload attempts, by result",
                                       {{"result", "error"}});
}

void ServerMetrics::record(Endpoint endpoint, int status,
                           std::uint64_t nanos) {
  PerEndpoint& e = endpoints_[static_cast<std::size_t>(endpoint)];
  e.requests->add();
  if (status < 200 || status >= 300) e.errors->add();
  e.latency->record(nanos);
}

void ServerMetrics::record_reload(bool ok) {
  (ok ? reloads_ok_ : reloads_failed_)->add();
}

MetricsSnapshot ServerMetrics::snapshot() const {
  MetricsSnapshot out;
  out.uptime_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  for (std::size_t i = 0; i < kNumEndpoints; ++i) {
    const PerEndpoint& e = endpoints_[i];
    const Histogram& latency = *e.latency;
    EndpointSnapshot s;
    s.name = endpoint_name(static_cast<Endpoint>(i));
    s.requests = e.requests->value();
    s.errors = e.errors->value();
    s.p50_us = to_us(latency.percentile_ns(0.50));
    s.p95_us = to_us(latency.percentile_ns(0.95));
    s.p99_us = to_us(latency.percentile_ns(0.99));
    s.sum_ns = latency.sum_ns();
    const std::uint64_t observed = latency.total();
    s.mean_us = observed == 0 ? 0.0
                              : to_us(s.sum_ns) /
                                    static_cast<double>(observed);
    s.min_us = to_us(latency.min_ns());
    s.max_us = to_us(latency.max_ns());
    out.total_requests += s.requests;
    out.endpoints.push_back(std::move(s));
  }
  out.reload_failures = reloads_failed_->value();
  out.reloads = reloads_ok_->value() + out.reload_failures;
  out.qps = out.uptime_seconds > 0.0
                ? static_cast<double>(out.total_requests) / out.uptime_seconds
                : 0.0;
  return out;
}

std::string ServerMetrics::render_prometheus(const SnapshotShape& shape) {
  const std::lock_guard<std::mutex> lock(scrape_mutex_);
  const auto set = [this](const char* name, const char* help, double value) {
    registry_.gauge(name, help).set(value);
  };
  set("gpumine_server_uptime_seconds", "Seconds since the server started",
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count());
  set("gpumine_snapshot_db_size", "Transactions in the loaded rule snapshot",
      static_cast<double>(shape.db_size));
  set("gpumine_snapshot_items", "Items in the loaded rule snapshot",
      static_cast<double>(shape.items));
  set("gpumine_snapshot_itemsets",
      "Frequent itemsets in the loaded rule snapshot",
      static_cast<double>(shape.itemsets));
  set("gpumine_snapshot_rules", "Rules in the loaded rule snapshot",
      static_cast<double>(shape.rules));
  set("gpumine_snapshot_keywords_with_rules",
      "Keywords with at least one rule in the loaded snapshot",
      static_cast<double>(shape.keywords_with_rules));
  set("gpumine_snapshot_engine_build_seconds",
      "Wall time of the query engine build for the loaded snapshot",
      shape.engine_build_seconds);
  return registry_.render_prometheus();
}

std::string MetricsSnapshot::to_json() const {
  std::string json = "{\"uptime_seconds\":" + fmt(uptime_seconds);
  json += ",\"total_requests\":" + std::to_string(total_requests);
  json += ",\"qps\":" + fmt(qps);
  json += ",\"reloads\":" + std::to_string(reloads);
  json += ",\"reload_failures\":" + std::to_string(reload_failures);
  json += ",\"endpoints\":[";
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    if (i > 0) json += ',';
    const EndpointSnapshot& e = endpoints[i];
    json += "{\"name\":\"" + e.name + "\"";
    json += ",\"requests\":" + std::to_string(e.requests);
    json += ",\"errors\":" + std::to_string(e.errors);
    json += ",\"p50_us\":" + fmt(e.p50_us);
    json += ",\"p95_us\":" + fmt(e.p95_us);
    json += ",\"p99_us\":" + fmt(e.p99_us);
    json += ",\"mean_us\":" + fmt(e.mean_us);
    json += ",\"min_us\":" + fmt(e.min_us);
    json += ",\"max_us\":" + fmt(e.max_us);
    json += '}';
  }
  json += "]}";
  return json;
}

}  // namespace gpumine::serve
