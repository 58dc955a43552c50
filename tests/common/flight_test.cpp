// Flight recorder over the tracer's ring mode: bounded retention with
// full tracing off, slow-query span extraction, normal-context dumps,
// and the crash path — a forked child SIGSEGVs and must leave a
// loadable Chrome-trace bundle behind.
#include "common/flight.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hpp"
#include "common/trace.hpp"

namespace gpumine {
namespace {

class FlightTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::instance().disable();
    Tracer::instance().reset();
    FlightRecorder::instance().reset_for_tests();
    Tracer::instance().set_ring_mode(true);
  }
  void TearDown() override {
    Tracer::instance().set_ring_mode(false);
    FlightRecorder::instance().reset_for_tests();
    Tracer::instance().reset();
  }

  static std::string temp_path(const std::string& name) {
    return ::testing::TempDir() + "/" + name;
  }

  static std::string slurp(const std::string& path) {
    std::ifstream file(path);
    std::ostringstream text;
    text << file.rdbuf();
    return text.str();
  }

  struct DumpedSpan {
    std::string name;
    double ts_us = 0.0;
    double dur_us = 0.0;
    long tid = 0;
  };

  // The "X" events of a dump, in file order (fields as the writer emits
  // them; log lines carry no "name" key).
  static std::vector<DumpedSpan> dumped_spans(const std::string& text) {
    std::vector<DumpedSpan> spans;
    const std::string key = "{\"name\":\"";
    for (std::size_t at = text.find(key); at != std::string::npos;
         at = text.find(key, at + 1)) {
      const std::size_t name_at = at + key.size();
      const auto number = [&](const std::string& field) {
        const std::string label = "\"" + field + "\":";
        return std::stod(text.substr(text.find(label, at) + label.size()));
      };
      spans.push_back({text.substr(name_at, text.find('"', name_at) - name_at),
                       number("ts"), number("dur"),
                       static_cast<long>(number("tid"))});
    }
    return spans;
  }
};

// There is one span store: with full tracing off, the ring mode's
// retained events are exactly what collect() returns.
TEST_F(FlightTest, RetainsSpansWithFullTracingOff) {
  ASSERT_FALSE(Tracer::instance().enabled());
  {
    Span outer("flight/outer");
    Span inner("flight/inner");
  }
  const auto events = Tracer::instance().collect();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].name, "flight/outer");
  EXPECT_STREQ(events[1].name, "flight/inner");
  const auto own = Tracer::instance().thread_spans_since(0);
  ASSERT_EQ(own.size(), 2u);
  EXPECT_STREQ(own[0].name, "flight/inner");  // completion order
  EXPECT_STREQ(own[1].name, "flight/outer");
}

TEST_F(FlightTest, ThreadSpansSinceFiltersByStartTimestamp) {
  { Span old_span("flight/old"); }
  const std::uint64_t cut = Tracer::instance().now_ns();
  { Span new_span("flight/new"); }
  const auto all = Tracer::instance().thread_spans_since(0);
  ASSERT_GE(all.size(), 2u);
  const auto recent = Tracer::instance().thread_spans_since(cut);
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_STREQ(recent[0].name, "flight/new");
  EXPECT_GE(recent[0].start_ns, cut);
}

// Ring mode keeps one to two chunks per thread: the newest events, in
// order, with the oldest recycled.
TEST_F(FlightTest, RingKeepsOnlyTheLastSpans) {
  constexpr std::size_t kChunk = Tracer::kChunkEvents;
  constexpr std::size_t kRecorded = 5 * kChunk + 50;
  std::vector<std::uint64_t> starts;
  for (std::size_t i = 0; i < kRecorded; ++i) {
    starts.push_back(Tracer::instance().now_ns());
    Span span("flight/spin");
  }
  const auto spans = Tracer::instance().collect();
  EXPECT_LE(spans.size(), 2 * kChunk);
  EXPECT_GT(spans.size(), kChunk);  // a full chunk plus the partial one
  ASSERT_FALSE(spans.empty());
  // The retained events are the last spans.size() recorded, in order.
  const std::size_t offset = kRecorded - spans.size();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_GE(spans[i].start_ns, starts[offset + i]) << i;
    if (offset + i + 1 < kRecorded) {
      EXPECT_LE(spans[i].start_ns, starts[offset + i + 1]) << i;
    }
  }
  EXPECT_EQ(Tracer::instance().thread_spans_since(0).size(), spans.size());
}

// Readers walk a ring while its owner keeps recycling chunks: every
// event they see is whole, no thread shows more than two chunks, and a
// dump taken mid-recycle still validates.
TEST_F(FlightTest, ReadersRaceRecyclingSafely) {
  std::atomic<bool> stop{false};
  std::thread writer([&stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      Span outer("flight/outer");
      Span inner("flight/inner");
    }
  });
  const std::string path = temp_path("flight_race_dump.json");
  for (int round = 0; round < 50; ++round) {
    const auto events = Tracer::instance().collect();
    EXPECT_LE(events.size(), 2 * Tracer::kChunkEvents);
    for (const TraceEvent& ev : events) {
      const std::string name = ev.name;
      EXPECT_TRUE(name == "flight/outer" || name == "flight/inner") << name;
      EXPECT_EQ(ev.depth, name == "flight/outer" ? 0u : 1u) << name;
    }
    if (round % 10 == 0) {
      EXPECT_TRUE(FlightRecorder::instance().dump_file(path).ok());
      const auto checked = validate_chrome_trace_file(path);
      EXPECT_TRUE(checked.ok()) << checked.error().to_string();
    }
  }
  // No assertion above returns early: the writer must be joined.
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

// Each thread keeps its own ring with no cap on the thread count.
TEST_F(FlightTest, DumpHoldsEveryRecordingThread) {
  constexpr std::size_t kThreads = 80;
  for (std::size_t t = 0; t < kThreads; ++t) {
    std::thread([] { Span span("flight/worker"); }).join();
  }
  const std::string path = temp_path("flight_threads_dump.json");
  ASSERT_TRUE(FlightRecorder::instance().dump_file(path).ok());
  ASSERT_TRUE(validate_chrome_trace_file(path).ok());
  std::set<long> tids;
  for (const DumpedSpan& span : dumped_spans(slurp(path))) {
    if (span.name == "flight/worker") tids.insert(span.tid);
  }
  EXPECT_EQ(tids.size(), kThreads);
}

// The dump marker is stamped on the tracer clock, after every span it
// carries and no later than a read taken once the dump returns.
TEST_F(FlightTest, DumpMarkerUsesTheTracerClock) {
  {
    Span outer("flight/outer");
    Span inner("flight/inner");
  }
  const std::string path = temp_path("flight_marker_dump.json");
  ASSERT_TRUE(FlightRecorder::instance().dump_file(path).ok());
  const double after_us =
      static_cast<double>(Tracer::instance().now_ns()) / 1e3;
  double marker_us = -1.0;
  double last_end_us = 0.0;
  std::size_t spans = 0;
  for (const DumpedSpan& span : dumped_spans(slurp(path))) {
    if (span.name == "flight/dump") {
      marker_us = span.ts_us;
    } else {
      ++spans;
      last_end_us = std::max(last_end_us, span.ts_us + span.dur_us);
    }
  }
  ASSERT_EQ(spans, 2u);
  ASSERT_GE(marker_us, 0.0);
  EXPECT_GE(marker_us, last_end_us);
  EXPECT_LE(marker_us, after_us);
}

TEST_F(FlightTest, DumpFileIsALoadableChromeTrace) {
  {
    Span outer("flight/outer");
    Span inner("flight/inner");
  }
  const std::string path = temp_path("flight_dump.json");
  ASSERT_TRUE(FlightRecorder::instance().dump_file(path).ok());
  const auto checked = validate_chrome_trace_file(path);
  ASSERT_TRUE(checked.ok()) << checked.error().to_string();
  EXPECT_GE(checked.value(), 3u);  // outer + inner + the dump marker
  const std::string text = slurp(path);
  EXPECT_NE(text.find("\"crash_signal\":0"), std::string::npos);
  EXPECT_NE(text.find("flight/outer"), std::string::npos);
}

TEST_F(FlightTest, DumpCarriesRecentLogLines) {
  // Park the log sink in a scratch file; the flight ring gets a mirror
  // of every emitted line regardless of sink.
  ASSERT_TRUE(
      Logger::instance().open_file(temp_path("flight_scratch.jsonl")).ok());
  Logger::instance().set_level(LogLevel::kDebug);
  log_warn("flight", "something odd", {{"attempt", 3}});
  Logger::instance().reset_for_tests();
  const std::string path = temp_path("flight_log_dump.json");
  ASSERT_TRUE(FlightRecorder::instance().dump_file(path).ok());
  const std::string text = slurp(path);
  EXPECT_NE(text.find("\"log\":["), std::string::npos);
  EXPECT_NE(text.find("something odd"), std::string::npos) << text;
}

// The acceptance bar from the issue: a process that SIGSEGVs with an
// armed flight recorder leaves a loadable Chrome-trace dump behind.
TEST_F(FlightTest, CrashDumpSurvivesSigsegv) {
  const std::string path = temp_path("flight_crash_dump.json");
  std::remove(path.c_str());
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: arm, do some traced work, then die the hard way. Nothing
    // after the raise runs — the dump comes from the signal handler.
    if (!FlightRecorder::instance().arm_crash_dump(path).ok()) _exit(3);
    {
      Span outer("crash/outer");
      Span inner("crash/inner");
    }
    ::raise(SIGSEGV);
    _exit(4);  // unreachable
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exited " << status;
  EXPECT_EQ(WTERMSIG(status), SIGSEGV);
  const auto checked = validate_chrome_trace_file(path);
  ASSERT_TRUE(checked.ok()) << checked.error().to_string();
  EXPECT_GE(checked.value(), 3u);
  const std::string text = slurp(path);
  EXPECT_NE(text.find("\"crash_signal\":11"), std::string::npos);
  EXPECT_NE(text.find("crash/outer"), std::string::npos);
}

TEST_F(FlightTest, DisarmRestoresPriorDisposition) {
  // Compare against the disposition captured before arming rather than
  // literal SIG_DFL: sanitizer runtimes (TSan/ASan) interpose their own
  // SIGSEGV handler, so the pre-arm state is the only portable baseline.
  struct sigaction before;
  ASSERT_EQ(::sigaction(SIGSEGV, nullptr, &before), 0);
  const std::string path = temp_path("flight_disarm.json");
  ASSERT_TRUE(FlightRecorder::instance().arm_crash_dump(path).ok());
  struct sigaction armed;
  ASSERT_EQ(::sigaction(SIGSEGV, nullptr, &armed), 0);
  EXPECT_NE(armed.sa_sigaction, before.sa_sigaction);
  FlightRecorder::instance().disarm_crash_dump();
  struct sigaction current;
  ASSERT_EQ(::sigaction(SIGSEGV, nullptr, &current), 0);
  EXPECT_EQ(current.sa_sigaction, before.sa_sigaction);
}

}  // namespace
}  // namespace gpumine
