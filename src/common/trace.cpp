#include "common/trace.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <new>
#include <ostream>
#include <sstream>
#include <utility>

#include "common/arena.hpp"

namespace gpumine {
namespace trace_detail {

// A TraceEvent stored as atomic words: a reader racing with a ring-mode
// reuse of the chunk sees old or new words, never a data race. Stores
// are release and loads acquire, so a reader that saw a new word also
// sees the chunk's moved `first`.
using Words = std::array<std::uint64_t, 4>;
using Slot = std::array<std::atomic<std::uint64_t>, 4>;
static_assert(sizeof(TraceEvent) == sizeof(Words), "32-byte events");

struct Chunk {
  // Sequence index of events[0]. A ring-mode reuse moves it forward
  // before rewriting any slot, so a reader that copied a slot checks it
  // again and drops the copy if it moved (a seqlock per chunk).
  std::atomic<std::uint64_t> first{0};
  std::atomic<Chunk*> older{nullptr};  // same thread's previous chunk
  Slot events[Tracer::kChunkEvents];
};

struct ThreadBuffer {
  explicit ThreadBuffer(ThreadBuffer* next_in) : next(next_in) {}

  ThreadBuffer* const next;  // the previously registered buffer
  const std::uint32_t tid = next == nullptr ? 0 : next->tid + 1;
  // Owner-only; its first block holds the two chunks ring mode keeps.
  Arena arena{2 * sizeof(Chunk)};
  // Events published so far; the owner's release store publishes one.
  std::atomic<std::uint64_t> count{0};
  std::atomic<Chunk*> newest{new_chunk()};

  Chunk* new_chunk() {
    return new (arena.allocate(sizeof(Chunk), alignof(Chunk))) Chunk;
  }

  void record(const char* name, std::uint64_t start_ns,
              std::uint64_t duration_ns, std::uint32_t depth, bool ring) {
    const std::uint64_t n = count.load(std::memory_order_relaxed);
    Chunk* chunk = newest.load(std::memory_order_relaxed);
    std::uint64_t first = chunk->first.load(std::memory_order_relaxed);
    if (n - first == Tracer::kChunkEvents) {
      // Ring mode recycles the older of the two newest chunks, unlinked
      // first so that walks stop at `chunk`.
      Chunk* next_chunk = chunk->older.load(std::memory_order_relaxed);
      if (ring && next_chunk != nullptr) {
        chunk->older.store(nullptr, std::memory_order_relaxed);
      } else {
        next_chunk = new_chunk();
      }
      next_chunk->first.store(n, std::memory_order_relaxed);
      next_chunk->older.store(chunk, std::memory_order_relaxed);
      newest.store(next_chunk, std::memory_order_release);
      chunk = next_chunk;
      first = n;
    }
    const auto words = std::bit_cast<Words>(
        TraceEvent{name, start_ns, duration_ns, tid, depth});
    for (std::size_t w = 0; w < words.size(); ++w) {
      chunk->events[n - first][w].store(words[w], std::memory_order_release);
    }
    count.store(n + 1, std::memory_order_release);
  }

  // Calls visit(event) on the published events of up to `max_chunks`
  // chunks, newest first. Takes no lock and never allocates; a chunk
  // reused mid-read ends the walk.
  template <typename Visit>
  void visit_newest_first(std::size_t max_chunks, Visit&& visit) const {
    const Chunk* chunk = newest.load(std::memory_order_acquire);
    // Events below `limit` are published and older than those visited.
    std::uint64_t limit = count.load(std::memory_order_acquire);
    for (; chunk != nullptr && max_chunks-- > 0;
         chunk = chunk->older.load(std::memory_order_acquire)) {
      const std::uint64_t first = chunk->first.load(std::memory_order_acquire);
      if (first > limit) return;  // recycled since the walk began
      const std::uint64_t end =
          std::min<std::uint64_t>(limit, first + Tracer::kChunkEvents);
      for (std::uint64_t i = end; i-- > first;) {
        const Slot& slot = chunk->events[i - first];
        Words words{};
        for (std::size_t w = 0; w < words.size(); ++w) {
          words[w] = slot[w].load(std::memory_order_acquire);
        }
        const auto ev = std::bit_cast<TraceEvent>(words);
        if (chunk->first.load(std::memory_order_relaxed) != first) return;
        visit(ev);
      }
      limit = first;
    }
  }
};

namespace {

struct TlsSlot {
  ThreadBuffer* buffer = nullptr;
  std::uint64_t generation = 0;
};

TlsSlot& tls_slot() {
  thread_local TlsSlot slot;
  return slot;
}

}  // namespace
}  // namespace trace_detail

void Tracer::enable() {
  modes_.fetch_or(kModeFull, std::memory_order_relaxed);
}
void Tracer::disable() {
  modes_.fetch_and(~kModeFull, std::memory_order_relaxed);
}

void Tracer::set_ring_mode(bool on) {
  if (on) {
    modes_.fetch_or(kModeRing, std::memory_order_relaxed);
  } else {
    modes_.fetch_and(~kModeRing, std::memory_order_relaxed);
  }
}

void Tracer::reset() {
  const std::lock_guard<std::mutex> lock(registry_mutex_);
  for (trace_detail::ThreadBuffer* b = buffers_.exchange(nullptr);
       b != nullptr;) {
    delete std::exchange(b, b->next);
  }
  generation_.fetch_add(1, std::memory_order_relaxed);
  epoch_ = std::chrono::steady_clock::now();
}

std::uint64_t Tracer::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

trace_detail::ThreadBuffer& Tracer::buffer_for_this_thread() {
  trace_detail::TlsSlot& slot = trace_detail::tls_slot();
  const std::lock_guard<std::mutex> lock(registry_mutex_);
  const std::uint64_t generation =
      generation_.load(std::memory_order_relaxed);
  if (slot.buffer == nullptr || slot.generation != generation) {
    slot.buffer = new trace_detail::ThreadBuffer(
        buffers_.load(std::memory_order_relaxed));
    slot.generation = generation;
    buffers_.store(slot.buffer, std::memory_order_release);
  }
  return *slot.buffer;
}

void Tracer::record(const char* name, std::uint64_t start_ns,
                    std::uint64_t duration_ns, std::uint32_t depth) {
  trace_detail::TlsSlot& slot = trace_detail::tls_slot();
  trace_detail::ThreadBuffer* buffer = slot.buffer;
  if (buffer == nullptr ||
      slot.generation != generation_.load(std::memory_order_relaxed)) {
    buffer = &buffer_for_this_thread();
  }
  buffer->record(name, start_ns, duration_ns, depth,
                 (modes_.load(std::memory_order_relaxed) & kModeFull) == 0);
}

std::vector<TraceEvent> Tracer::collect() const {
  std::vector<TraceEvent> events;
  for (const trace_detail::ThreadBuffer* b = buffers_.load(); b != nullptr;
       b = b->next) {
    b->visit_newest_first(SIZE_MAX,
                          [&](const TraceEvent& ev) { events.push_back(ev); });
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.duration_ns > b.duration_ns;  // parents first
            });
  return events;
}

std::vector<TraceEvent> Tracer::thread_spans_since(
    std::uint64_t since_ns) const {
  std::vector<TraceEvent> out;
  const trace_detail::TlsSlot& slot = trace_detail::tls_slot();
  if (slot.buffer == nullptr ||
      slot.generation != generation_.load(std::memory_order_relaxed)) {
    return out;
  }
  slot.buffer->visit_newest_first(2, [&](const TraceEvent& ev) {
    if (ev.start_ns >= since_ns) out.push_back(ev);
  });
  std::reverse(out.begin(), out.end());
  return out;
}

void Tracer::for_each_recent_event(void (*visit)(const TraceEvent&, void*),
                                   void* context) const {
  for (const trace_detail::ThreadBuffer* b = buffers_.load(); b != nullptr;
       b = b->next) {
    b->visit_newest_first(2, [&](const TraceEvent& ev) { visit(ev, context); });
  }
}

std::vector<SpanSummary> Tracer::summarize() const {
  std::map<std::string, SpanSummary> by_name;
  for (const TraceEvent& ev : collect()) {
    SpanSummary& s = by_name[ev.name];
    if (s.count == 0) s.name = ev.name;
    ++s.count;
    s.total_ns += ev.duration_ns;
    s.max_ns = std::max(s.max_ns, ev.duration_ns);
  }
  std::vector<SpanSummary> out;
  out.reserve(by_name.size());
  for (auto& [name, summary] : by_name) out.push_back(std::move(summary));
  return out;  // std::map iteration => already name-sorted
}

namespace {

double ns_to_ms(std::uint64_t ns) {
  return static_cast<double>(ns) / 1e6;
}

std::string format_ms(double ms) {
  std::array<char, 32> buf{};
  std::snprintf(buf.data(), buf.size(), "%.3f", ms);
  return std::string(buf.data());
}

}  // namespace

std::string Tracer::summary_table() const {
  const std::vector<SpanSummary> rows = summarize();
  std::size_t name_width = 4;  // "span"
  for (const SpanSummary& r : rows) {
    name_width = std::max(name_width, r.name.size());
  }
  std::ostringstream out;
  out << "  " << std::string(name_width - 4, ' ') << "span"
      << "      count   total_ms     max_ms\n";
  for (const SpanSummary& r : rows) {
    const std::string total = format_ms(ns_to_ms(r.total_ns));
    const std::string max = format_ms(ns_to_ms(r.max_ns));
    out << "  " << std::string(name_width - r.name.size(), ' ') << r.name;
    std::array<char, 64> buf{};
    std::snprintf(buf.data(), buf.size(), " %10llu %10s %10s\n",
                  static_cast<unsigned long long>(r.count), total.c_str(),
                  max.c_str());
    out << buf.data();
  }
  return out.str();
}

std::string Tracer::summary_json() const {
  std::ostringstream out;
  out << "[";
  bool first = true;
  for (const SpanSummary& r : summarize()) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"" << r.name << "\",\"count\":" << r.count
        << ",\"total_ms\":" << format_ms(ns_to_ms(r.total_ns))
        << ",\"max_ms\":" << format_ms(ns_to_ms(r.max_ns)) << "}";
  }
  out << "]";
  return out.str();
}

void Tracer::export_chrome_trace(std::ostream& out) const {
  // Span names are compile-time literals under our control, but escape
  // anyway so the exporter never emits malformed JSON.
  const auto escape = [](const char* s) {
    std::string e;
    for (; *s != '\0'; ++s) {
      const char c = *s;
      if (c == '"' || c == '\\') {
        e.push_back('\\');
        e.push_back(c);
      } else if (static_cast<unsigned char>(c) < 0x20) {
        std::array<char, 8> buf{};
        std::snprintf(buf.data(), buf.size(), "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(c)));
        e += buf.data();
      } else {
        e.push_back(c);
      }
    }
    return e;
  };
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& ev : collect()) {
    if (!first) out << ",";
    first = false;
    std::array<char, 96> num{};
    std::snprintf(num.data(), num.size(),
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u",
                  static_cast<double>(ev.start_ns) / 1e3,
                  static_cast<double>(ev.duration_ns) / 1e3, ev.tid);
    out << "\n{\"name\":\"" << escape(ev.name) << "\",\"ph\":\"X\","
        << num.data() << ",\"args\":{\"depth\":" << ev.depth << "}}";
  }
  out << "\n]}\n";
}

Result<bool> Tracer::export_chrome_trace_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return Error{path, "cannot open trace output file for writing"};
  }
  export_chrome_trace(out);
  out.flush();
  if (!out) {
    return Error{path, "error writing trace output file"};
  }
  return true;
}

// ---------------------------------------------------------------------------
// Exporter self-check: a minimal recursive-descent JSON parser (numbers,
// strings, bools, null, arrays, objects) plus structural validation of
// the trace-event document. Self-contained so the check needs no
// third-party JSON dependency.

namespace {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  [[nodiscard]] const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Result<JsonValue> parse() {
    JsonValue v;
    if (!parse_value(v)) return Error{locus(), message_};
    skip_ws();
    if (pos_ != text_.size()) return Error{locus(), "trailing characters"};
    return v;
  }

 private:
  [[nodiscard]] std::string locus() const {
    return "json offset " + std::to_string(pos_);
  }

  bool fail(const std::string& message) {
    if (message_.empty()) message_ = message;
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool parse_value(JsonValue& out) {
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return parse_object(out);
    if (c == '[') return parse_array(out);
    if (c == '"') {
      out.kind = JsonValue::Kind::kString;
      return parse_string(out.string);
    }
    if (c == 't' || c == 'f') return parse_keyword(out);
    if (c == 'n') return parse_keyword(out);
    return parse_number(out);
  }

  bool parse_keyword(JsonValue& out) {
    const auto match = [&](const char* word) {
      const std::size_t len = std::string(word).size();
      if (text_.compare(pos_, len, word) != 0) return false;
      pos_ += len;
      return true;
    };
    if (match("true")) {
      out.kind = JsonValue::Kind::kBool;
      out.boolean = true;
      return true;
    }
    if (match("false")) {
      out.kind = JsonValue::Kind::kBool;
      out.boolean = false;
      return true;
    }
    if (match("null")) {
      out.kind = JsonValue::Kind::kNull;
      return true;
    }
    return fail("invalid literal");
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    bool digits = false;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      digits = true;
      ++pos_;
    }
    if (!digits) return fail("invalid number");
    try {
      out.number = std::stod(text_.substr(start, pos_ - start));
    } catch (const std::exception&) {
      return fail("invalid number");
    }
    out.kind = JsonValue::Kind::kNumber;
    return true;
  }

  bool parse_string(std::string& out) {
    if (text_[pos_] != '"') return fail("expected string");
    ++pos_;
    out.clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_];
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return fail("unterminated escape");
        const char esc = text_[pos_];
        switch (esc) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'n': c = '\n'; break;
          case 'r': c = '\r'; break;
          case 't': c = '\t'; break;
          case 'u': {
            if (pos_ + 4 >= text_.size()) return fail("short \\u escape");
            pos_ += 4;   // validated loosely; exporter only emits ASCII
            c = '?';
            break;
          }
          default: return fail("unknown escape");
        }
      }
      out.push_back(c);
      ++pos_;
    }
    if (pos_ >= text_.size()) return fail("unterminated string");
    ++pos_;  // closing quote
    return true;
  }

  bool parse_array(JsonValue& out) {
    out.kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue element;
      if (!parse_value(element)) return false;
      out.array.push_back(std::move(element));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool parse_object(JsonValue& out) {
    out.kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (pos_ >= text_.size() || !parse_string(key)) {
        return fail("expected object key");
      }
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return fail("expected ':'");
      }
      ++pos_;
      JsonValue value;
      if (!parse_value(value)) return false;
      out.object.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::string message_;
};

}  // namespace

Result<std::size_t> validate_chrome_trace_text(const std::string& text) {
  Result<JsonValue> parsed = JsonParser(text).parse();
  if (!parsed.ok()) return parsed.error();
  const JsonValue& doc = parsed.value();
  if (doc.kind != JsonValue::Kind::kObject) {
    return Error{"trace", "top-level value is not an object"};
  }
  const JsonValue* events = doc.find("traceEvents");
  if (events == nullptr || events->kind != JsonValue::Kind::kArray) {
    return Error{"trace", "missing traceEvents array"};
  }
  if (events->array.empty()) {
    return Error{"trace", "traceEvents is empty (no spans recorded)"};
  }
  // Interval per thread to check well-formed nesting.
  struct Interval {
    double start;
    double end;
  };
  std::map<double, std::vector<Interval>> by_tid;
  for (std::size_t i = 0; i < events->array.size(); ++i) {
    const JsonValue& ev = events->array[i];
    const std::string at = "traceEvents[" + std::to_string(i) + "]";
    if (ev.kind != JsonValue::Kind::kObject) {
      return Error{at, "event is not an object"};
    }
    const JsonValue* name = ev.find("name");
    const JsonValue* ph = ev.find("ph");
    const JsonValue* ts = ev.find("ts");
    const JsonValue* dur = ev.find("dur");
    const JsonValue* pid = ev.find("pid");
    const JsonValue* tid = ev.find("tid");
    if (name == nullptr || name->kind != JsonValue::Kind::kString ||
        name->string.empty()) {
      return Error{at, "missing or empty name"};
    }
    if (ph == nullptr || ph->kind != JsonValue::Kind::kString ||
        ph->string != "X") {
      return Error{at, "phase is not a complete event (\"X\")"};
    }
    const std::array<std::pair<const JsonValue*, const char*>, 4> numeric{
        {{ts, "ts"}, {dur, "dur"}, {pid, "pid"}, {tid, "tid"}}};
    for (const auto& [field, label] : numeric) {
      if (field == nullptr || field->kind != JsonValue::Kind::kNumber) {
        return Error{at, std::string("missing numeric ") + label};
      }
    }
    if (ts->number < 0.0 || dur->number < 0.0) {
      return Error{at, "negative ts or dur"};
    }
    by_tid[tid->number].push_back({ts->number, ts->number + dur->number});
  }
  for (auto& [tid, intervals] : by_tid) {
    std::sort(intervals.begin(), intervals.end(),
              [](const Interval& a, const Interval& b) {
                if (a.start != b.start) return a.start < b.start;
                return a.end > b.end;
              });
    std::vector<Interval> stack;
    for (const Interval& iv : intervals) {
      while (!stack.empty() && iv.start >= stack.back().end) stack.pop_back();
      // Timestamps are rounded to 1ns (and exported at 1us precision), so
      // allow 2us of slack on the containment check.
      constexpr double kSlackUs = 2.0;
      if (!stack.empty() && iv.end > stack.back().end + kSlackUs) {
        return Error{"trace tid " + std::to_string(tid),
                     "spans partially overlap (not properly nested)"};
      }
      stack.push_back(iv);
    }
  }
  return events->array.size();
}

Result<std::size_t> validate_chrome_trace_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Error{path, "cannot open trace file"};
  }
  std::ostringstream contents;
  contents << in.rdbuf();
  return validate_chrome_trace_text(contents.str());
}

}  // namespace gpumine
