// pai-mine and philly-mine: repeated `gpumine mine --keyword K --format
// json` pipelines over one generated trace, K alternating between the
// paper's two keywords. Untraced, each pipeline is the CLI's own code
// path (mine_json); a traced run interleaves pairs of those with pairs
// of the same pipeline split at layer boundaries under spans.
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "workloads.hpp"

namespace perfbench {
namespace {

const std::vector<std::string> kKeywords{"Failed", "SM Util = 0%"};
constexpr std::size_t kThreads = 2;
// Traced runs only: a short open-loop burst over both keywords serves
// the answers over loopback, for the serve.* figures every traced run
// reports.
constexpr std::size_t kServerWorkers = 2;
constexpr double kBurstRate = 500.0;
constexpr double kBurstSeconds = 1.5;
// Request ids of the burst start here, clear of pipeline ops.
constexpr std::uint64_t kBurstFirstRequestId = 1'000'000'000;

MineFlags flags_for(const std::string& workload) {
  if (workload == "pai-mine") return {{"Status"}, {"User", "Group"}, kThreads};
  if (workload == "philly-mine") return {{"Status"}, {"User"}, kThreads};
  throw std::invalid_argument("not a batch workload: " + workload);
}

// The split pipeline, CSV path to rendered JSON, under an op.pipeline
// root span.
KeywordAnswer split_pipeline(const Options& options, const MineFlags& flags,
                             const std::string& keyword, SpanRecorder& spans) {
  Span op(spans, "op.pipeline");
  const MinedTrace trace = mine_csv(options.csv, flags, spans);
  return answer_keyword(trace, keyword, spans);
}

double seconds_since(std::int64_t begin_ns) {
  return static_cast<double>(now_ns() - begin_ns) / 1e9;
}

// Checks the split pipeline's counters against what `gpumine mine
// --stats` printed for the same trace and keyword.
void check_cli_stats(const std::string& stats, const MinedTrace& trace,
                     const KeywordAnswer& answer, const std::string& keyword,
                     Report& report) {
  unsigned long long rows = 0, distinct = 0, kept = 0;
  double ratio = 0.0;
  const std::size_t at = stats.find("transactions:");
  const std::size_t pruning = stats.find("pruning:");
  if (at == std::string::npos || pruning == std::string::npos ||
      std::sscanf(stats.c_str() + at,
                  "transactions: %llu -> %llu distinct (ratio %lf)", &rows,
                  &distinct, &ratio) != 3 ||
      std::sscanf(stats.c_str() + pruning, "pruning: kept %llu", &kept) != 1) {
    report.fail("cannot read `gpumine mine --stats` output for " + keyword);
    return;
  }
  const double expected_ratio = static_cast<double>(trace.rows) /
                                static_cast<double>(trace.distinct_rows);
  if (rows != trace.rows || distinct != trace.distinct_rows ||
      std::abs(ratio - expected_ratio) > 1e-4 * expected_ratio) {
    report.fail("dedup_ratio != rows / distinct rows for " + keyword);
  }
  if (kept != answer.prune.kept ||
      kept != answer.cause_rows + answer.characteristic_rows) {
    report.fail("rules_kept != cause + characteristic rows for " + keyword);
  }
}

// Traced runs: serves `answers` from `engine` over loopback and adds the
// serve.* figures; every reply must equal the pipeline's bytes.
void serve_answers(std::shared_ptr<const gpumine::serve::QueryEngine> engine,
                   const std::string& snap_path,
                   const std::vector<std::string>& answers, SpanRecorder& spans,
                   Report& report) {
  Published published;
  {
    Span op(spans, "op.check");
    published = start_serving(std::move(engine), snap_path, kServerWorkers,
                              spans);
  }
  report.attempted += 1;
  if (!published.healthy) {
    report.failed += 1;
    report.fail("first GET /healthz did not answer 200 ok");
  }
  std::vector<Target> targets;
  for (std::size_t k = 0; k < kKeywords.size(); ++k) {
    targets.push_back({Target::Kind::kQuery, "GET",
                       "/query?keyword=" + percent_encode(kKeywords[k]), 200,
                       &answers[k]});
  }
  std::vector<Planned> plan(
      static_cast<std::size_t>(kBurstRate * kBurstSeconds));
  for (std::size_t i = 0; i < plan.size(); ++i) {
    plan[i].due_ns = static_cast<std::int64_t>(static_cast<double>(i) * 1e9 /
                                               kBurstRate);
    plan[i].target = static_cast<std::uint32_t>(i % targets.size());
  }
  const LoadStats load = run_load(
      published, targets, plan, {},
      static_cast<std::int64_t>((kBurstSeconds + 1.0) * 1e9),
      kBurstFirstRequestId, spans);
  report.attempted += load.attempted;
  report.failed += load.failed;
  if (load.wrong != 0) report.fail("served answers differ from the pipeline");
  report.problems.insert(report.problems.end(), load.errors.begin(),
                         load.errors.end());
  const std::pair<double, double> handler_us =
      handler_latency_us(published, targets, plan, plan.size(), spans);
  published.server->stop();
  reconcile_counters(*published.handler, load.counts, 1, report);
  add_serve_layer_metrics(published, load, handler_us, report);
}

}  // namespace

double cold_batch_setup(const Options& options) {
  const std::int64_t begin = now_ns();
  static_cast<void>(
      mine_json(options.csv, flags_for(options.workload), kKeywords[0]));
  return seconds_since(begin);
}

Report run_batch(const Options& options) {
  Report report;
  const MineFlags flags = flags_for(options.workload);
  SpanRecorder spans;
  if (options.trace) spans.enable();

  // Set-up: the cold first pipeline.
  std::vector<std::string> answers(kKeywords.size());
  std::vector<std::uint64_t> pipelines_per_keyword(kKeywords.size(), 0);
  {
    const std::int64_t begin = now_ns();
    answers[0] = mine_json(options.csv, flags, kKeywords[0]);
    report.setup_s = seconds_since(begin);
    pipelines_per_keyword[0] = 1;
  }
  report.attempted = 1;

  // Measured pipelines. A traced run alternates pairs of CLI pipelines
  // with pairs of split pipelines under spans: what the split and its
  // spans cost against the program's own path is the tracing overhead.
  std::vector<double> all_ms, traced_ms, untraced_ms;
  std::uint64_t mismatched = 0;
  const std::int64_t begin = now_ns();
  const auto deadline =
      begin + static_cast<std::int64_t>(options.seconds * 1e9);
  for (std::size_t i = 0; now_ns() < deadline || i < 4; ++i) {
    const std::size_t k = i % kKeywords.size();
    const bool traced = options.trace && (i / 2) % 2 == 1;
    const std::int64_t start = now_ns();
    const std::string json =
        traced ? split_pipeline(options, flags, kKeywords[k], spans).json
               : mine_json(options.csv, flags, kKeywords[k]);
    const double ms = static_cast<double>(now_ns() - start) / 1e6;
    all_ms.push_back(ms);
    (traced ? traced_ms : untraced_ms).push_back(ms);
    ++pipelines_per_keyword[k];
    if (answers[k].empty()) answers[k] = json;
    if (json != answers[k]) ++mismatched;
  }
  const double measured_s = seconds_since(begin);
  const double rss_mb = peak_rss_mb();
  report.attempted += all_ms.size();
  report.failed += mismatched;
  if (mismatched != 0) report.fail("pipeline answers changed between runs");

  // Every answer must equal the 1-thread CLI run, byte for byte.
  std::vector<std::string> cli_stats(kKeywords.size());
  for (std::size_t k = 0; k < kKeywords.size(); ++k) {
    MineFlags one_thread = flags;
    one_thread.threads = 1;
    std::vector<std::string> args{"mine",   "--csv",    options.csv,
                                  "--keyword", kKeywords[k], "--format",
                                  "json",   "--stats"};
    const std::vector<std::string> extra = one_thread.cli_args();
    args.insert(args.end(), extra.begin(), extra.end());
    cli_stats[k] = run_cli(args);
    const std::string& out = cli_stats[k];
    const std::size_t json_at = out.rfind("\n{");
    const std::string cli_json =
        json_at == std::string::npos
            ? std::string()
            : out.substr(json_at + 1, out.size() - json_at - 2);
    if (cli_json != answers[k]) {
      report.fail("answer for '" + kKeywords[k] +
                  "' differs from the 1-thread `gpumine mine` output");
      report.failed += pipelines_per_keyword[k];
    }
    report.digests[kKeywords[k]] = fnv1a_hex(answers[k]);
  }

  // Second code path: the trace mined through the split pipeline, its
  // counters checked against `gpumine mine --stats`, published as a
  // snapshot and answered by QueryEngine::query_json.
  const std::string snap_path =
      options.work_dir + "/" + options.workload + ".snap";
  std::shared_ptr<const gpumine::serve::QueryEngine> engine;
  {
    Span op(spans, "op.check");
    MinedTrace mined = mine_csv(options.csv, flags, spans);
    const KeywordAnswer answer = answer_keyword(mined, kKeywords[0], spans);
    check_cli_stats(cli_stats[0], mined, answer, kKeywords[0], report);
    if (options.trace) {
      add_mining_counts(mined, report);
      add_answer_counts(answer, report);
    }
    save_snapshot(std::move(mined), snap_path, spans);
    engine = load_engine(snap_path, spans);
  }
  for (std::size_t k = 0; k < kKeywords.size(); ++k) {
    const std::string* json = engine->query_json(kKeywords[k]);
    if (json == nullptr || *json != answers[k]) {
      report.fail("QueryEngine::query_json differs from the pipeline for '" +
                  kKeywords[k] + "'");
    }
  }

  report.note("pipeline_ms_p50", quantile(all_ms, 0.5), "ms");
  report.note("pipeline_ms_p90", quantile(all_ms, 0.9), "ms");
  report.note("pipelines", static_cast<double>(all_ms.size()), "count");
  report.note("pipelines_per_s",
              static_cast<double>(all_ms.size()) / measured_s, "1/s");
  for (std::size_t k = 0; k < kKeywords.size(); ++k) {
    report.note("response_bytes[" + kKeywords[k] + "]",
                static_cast<double>(answers[k].size()), "bytes");
  }

  if (!options.trace) {
    report.set("op_ms_p50", quantile(all_ms, 0.5), "ms");
    report.set("peak_rss_mb", rss_mb, "MB");
    return report;
  }
  serve_answers(std::move(engine), snap_path, answers, spans, report);
  add_layer_timings(spans, {"op.pipeline", "op.check"}, report);
  finish_trace(spans, {"op.pipeline"}, overhead_pct(traced_ms, untraced_ms),
               options.work_dir + "/trace-" + options.workload + ".json",
               report);
  return report;
}

}  // namespace perfbench
