#include "stats.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "analysis/export.hpp"

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void sleep_until_ns(std::int64_t deadline_ns) {
  const std::int64_t remaining = deadline_ns - now_ns();
  if (remaining > 0) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(remaining));
  }
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string fnv1a_hex(std::string_view bytes) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

std::string percent_encode(std::string_view text) {
  static const char* hex = "0123456789ABCDEF";
  std::string out;
  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    if ((byte >= 'A' && byte <= 'Z') || (byte >= 'a' && byte <= 'z') ||
        (byte >= '0' && byte <= '9') || c == '-' || c == '_' || c == '.' ||
        c == '~') {
      out += c;
    } else {
      out += '%';
      out += hex[byte >> 4];
      out += hex[byte & 15];
    }
  }
  return out;
}

std::string Report::to_json() const {
  using gpumine::analysis::json_escape;
  char num[64];
  const auto quoted = [](std::string& out, const std::string& text) {
    out += '"';
    out += json_escape(text);
    out += '"';
  };
  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  std::snprintf(num, sizeof(num), "%.12g", setup_s);
  out += ",\"setup_s\":";
  out += num;
  for (const auto* group : {&metrics, &info}) {
    out += group == &metrics ? ",\"metrics\":{" : "},\"info\":{";
    bool first = true;
    for (const auto& [name, metric] : *group) {
      if (!first) out += ',';
      first = false;
      quoted(out, name);
      std::snprintf(num, sizeof(num), "%.12g", metric.value);
      out += ":{\"value\":";
      out += num;
      out += ",\"unit\":";
      quoted(out, metric.unit);
      out += '}';
    }
  }
  out += "},\"digests\":{";
  bool first = true;
  for (const auto& [name, digest] : digests) {
    if (!first) out += ',';
    first = false;
    quoted(out, name);
    out += ':';
    quoted(out, digest);
  }
  out += "},\"problems\":[";
  for (std::size_t i = 0; i < problems.size(); ++i) {
    if (i > 0) out += ',';
    quoted(out, problems[i]);
  }
  out += "]}";
  return out;
}

}  // namespace perfbench
