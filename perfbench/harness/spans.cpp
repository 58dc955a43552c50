#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <unordered_map>

#include "stats.hpp"

namespace perfbench {
namespace {

thread_local std::uint64_t tl_parent = 0;
thread_local std::uint64_t tl_request = 0;

std::uint32_t this_thread_index() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

std::string layer_of(const char* name) {
  const std::string text(name);
  const std::size_t dot = text.find('.');
  return dot == std::string::npos ? text : text.substr(0, dot);
}

}  // namespace

void SpanRecorder::record(const SpanEvent& event) {
  std::lock_guard lock(mutex_);
  events_.push_back(event);
}

std::uint64_t SpanRecorder::next_id() {
  std::lock_guard lock(mutex_);
  return ++last_id_;
}

std::vector<double> SpanRecorder::durations_ms_under(
    const std::string& name, const std::string& root) const {
  std::lock_guard lock(mutex_);
  std::unordered_map<std::uint64_t, const SpanEvent*> by_id;
  for (const SpanEvent& e : events_) by_id[e.id] = &e;
  std::vector<double> out;
  for (const SpanEvent& e : events_) {
    if (name != e.name) continue;
    const SpanEvent* top = &e;
    while (top->parent != 0 && by_id.count(top->parent) != 0) {
      top = by_id[top->parent];
    }
    if (root == top->name) {
      out.push_back(static_cast<double>(e.end_ns - e.start_ns) / 1e6);
    }
  }
  return out;
}

std::map<std::string, double> SpanRecorder::self_ms_by_layer() const {
  std::lock_guard lock(mutex_);
  std::unordered_map<std::uint64_t, std::int64_t> child_ns;
  for (const SpanEvent& e : events_) {
    if (e.parent != 0) child_ns[e.parent] += e.end_ns - e.start_ns;
  }
  std::map<std::string, double> out;
  for (const SpanEvent& e : events_) {
    const std::int64_t self = e.end_ns - e.start_ns - child_ns[e.id];
    out[layer_of(e.name)] += static_cast<double>(self) / 1e6;
  }
  return out;
}

double SpanRecorder::attribution(const std::vector<std::string>& roots) const {
  std::lock_guard lock(mutex_);
  std::unordered_map<std::uint64_t, bool> is_root_op;
  std::int64_t root_ns = 0;
  for (const SpanEvent& e : events_) {
    if (e.parent == 0 &&
        std::find(roots.begin(), roots.end(), e.name) != roots.end()) {
      is_root_op[e.id] = true;
      root_ns += e.end_ns - e.start_ns;
    }
  }
  std::int64_t covered_ns = 0;
  for (const SpanEvent& e : events_) {
    if (e.parent != 0 && is_root_op.count(e.parent) != 0) {
      covered_ns += e.end_ns - e.start_ns;
    }
  }
  return root_ns == 0 ? 0.0
                      : static_cast<double>(covered_ns) /
                            static_cast<double>(root_ns);
}

std::size_t SpanRecorder::size() const {
  std::lock_guard lock(mutex_);
  return events_.size();
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::lock_guard lock(mutex_);
  std::int64_t origin = events_.empty() ? 0 : events_.front().start_ns;
  for (const SpanEvent& e : events_) origin = std::min(origin, e.start_ns);
  std::ofstream out(path, std::ios::binary);
  out << "{\"traceEvents\":[";
  char buf[512];
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const SpanEvent& e = events_[i];
    std::snprintf(
        buf, sizeof(buf),
        "%s{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,"
        "\"tid\":%u,\"args\":{\"id\":%llu,\"parent\":%llu,\"request\":%llu}}",
        i == 0 ? "" : ",\n", e.name,
        static_cast<double>(e.start_ns - origin) / 1e3,
        static_cast<double>(e.end_ns - e.start_ns) / 1e3, e.tid,
        static_cast<unsigned long long>(e.id),
        static_cast<unsigned long long>(e.parent),
        static_cast<unsigned long long>(e.request));
    out << buf;
  }
  out << "]}\n";
  out.flush();
  return static_cast<bool>(out);
}

Span::Span(SpanRecorder& recorder, const char* name, std::uint64_t request)
    : recorder_(recorder) {
  if (!recorder_.enabled()) return;
  event_.name = name;
  event_.id = recorder_.next_id();
  event_.parent = tl_parent;
  saved_request_ = tl_request;
  if (request != 0) tl_request = request;
  event_.request = tl_request;
  event_.tid = this_thread_index();
  tl_parent = event_.id;
  event_.start_ns = now_ns();
}

Span::~Span() {
  if (event_.id == 0) return;
  event_.end_ns = now_ns();
  tl_parent = event_.parent;
  tl_request = saved_request_;
  recorder_.record(event_);
}

}  // namespace perfbench
