#include "cli/commands.hpp"

#include "analysis/compare.hpp"
#include "analysis/drilldown.hpp"
#include "analysis/summarize.hpp"
#include "core/negative.hpp"
#include "core/significance.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <thread>

#include "analysis/report.hpp"
#include "analysis/workflow.hpp"
#include "cli/args.hpp"
#include "common/flight.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "analysis/classifier.hpp"
#include "analysis/export.hpp"
#include "core/closed.hpp"
#include "core/metrics_export.hpp"
#include "core/serialize.hpp"
#include "core/snapshot.hpp"
#include "prep/csv.hpp"
#include "serve/handler.hpp"
#include "serve/query_engine.hpp"
#include "serve/server.hpp"
#include "trace/rng.hpp"
#include "synth/pai.hpp"
#include "synth/philly.hpp"
#include "synth/supercloud.hpp"

namespace gpumine::cli {
namespace {

std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  std::string token;
  std::istringstream stream(csv);
  while (std::getline(stream, token, ',')) {
    if (!token.empty()) out.push_back(token);
  }
  return out;
}

std::vector<Flag> join(std::initializer_list<std::vector<Flag>> groups) {
  std::vector<Flag> out;
  for (const auto& group : groups) {
    out.insert(out.end(), group.begin(), group.end());
  }
  return out;
}

// The trace loader's flags (load_trace). --csv comes first: it is the
// flag that selects this group where it is one of a command's sources.
const std::vector<Flag> kTraceFlags = {
    {"csv", FlagKind::kText, "trace.csv", "", true},
    {"min-support", FlagKind::kDouble, "F", "0.05"},
    {"max-length", FlagKind::kUint, "K", "5"},
    {"categorical", FlagKind::kText, "col,..", "job_id"},
    {"drop", FlagKind::kText, "col,..", "job_id"},
    {"bare", FlagKind::kText, "col,.."},
    {"group", FlagKind::kText, "col,.."},
};

// The worker count, which every trace loader reads, and the rule and
// pruning thresholds (read_rule_flags), which only the commands that
// generate rules take: `predict` reads --min-lift but never prunes.
const Flag kThreadsFlag = {"threads", FlagKind::kUint, "N", "1"};
const Flag kMinLiftFlag = {"min-lift", FlagKind::kDouble, "F", "1.5"};
const std::vector<Flag> kRuleFlags = {
    kThreadsFlag,
    kMinLiftFlag,
    {"c-lift", FlagKind::kDouble, "F", "1.5"},
    {"c-supp", FlagKind::kDouble, "F", "1.5"},
};

// The observability group (class Observability); `query` takes only
// its --trace.
const Flag kTraceFileFlag = {"trace", FlagKind::kText, "FILE"};
const std::vector<Flag> kObservabilityFlags = {
    kTraceFileFlag,
    {"stats-json", FlagKind::kText, "FILE"},
    {"metrics-out", FlagKind::kText, "FILE"},
    {"flight-dump", FlagKind::kText, "FILE"},
    {"log-level", FlagKind::kChoice, "debug|info|warn|warning|error|off|none"},
    {"log-file", FlagKind::kText, "FILE"},
};

struct RuleFlags {
  core::RuleParams rules;     // --min-lift; --threads sets num_threads
  core::PruneParams pruning;  // --c-lift, --c-supp
};

RuleFlags read_rule_flags(const Args& args) {
  RuleFlags flags;
  flags.rules.min_lift = args.number("min-lift");
  flags.rules.num_threads = static_cast<std::size_t>(args.uint("threads"));
  flags.pruning.c_lift = args.number("c-lift");
  flags.pruning.c_supp = args.number("c-supp");
  return flags;
}

// Shared CSV -> WorkflowConfig assembly for the commands that mine a trace.
struct LoadedTrace {
  prep::Table table;
  analysis::WorkflowConfig config;
  double csv_seconds = 0.0;  // CSV parse wall time, for --stats
};

Result<LoadedTrace> load_trace(const Args& args) {
  // --threads drives the CSV parser's chunking too.
  const auto threads = static_cast<std::size_t>(args.uint("threads"));

  prep::CsvParams csv;
  csv.force_categorical = split_list(args.text("categorical"));
  csv.num_threads = threads;
  const auto csv_begin = std::chrono::steady_clock::now();
  auto parsed = prep::read_csv_file(args.text("csv"), csv);
  if (!parsed.ok()) return parsed.error();

  LoadedTrace loaded{std::move(parsed).value(), {}, 0.0};
  loaded.csv_seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - csv_begin)
                           .count();
  analysis::WorkflowConfig& config = loaded.config;

  config.mining.min_support = args.number("min-support");
  config.mining.max_length = static_cast<std::size_t>(args.uint("max-length"));
  // Mining, rule generation and the prep stages share one worker count.
  config.mining.num_threads = threads;
  config.prep_threads = threads;
  config.rules.num_threads = threads;

  config.drop_columns = split_list(args.text("drop"));
  config.encoder.bare_label_columns = split_list(args.text("bare"));
  for (const std::string& column : split_list(args.text("group"))) {
    prep::ShareGroupingParams grouping;
    grouping.top_label = "Freq " + column;
    grouping.middle_label = "Regular " + column;
    grouping.bottom_label = "New " + column;
    config.groupings.push_back({column, grouping});
  }

  // Default: bin every numeric column with paper-style parameters.
  for (std::size_t c = 0; c < loaded.table.num_columns(); ++c) {
    const std::string& name = loaded.table.column_name(c);
    if (loaded.table.is_numeric(name)) {
      config.binnings.push_back({name, prep::BinningParams{}});
    }
  }
  return loaded;
}

// `--trace FILE`: arms the process tracer for the span of one command.
// finish() exports the Chrome trace-event file, runs the exporter's
// self-check on what it just wrote, and reports the span count; it
// returns false (after printing why) if either step fails.
class TraceSession {
 public:
  explicit TraceSession(std::string path) : path_(std::move(path)) {
    if (!path_.empty()) {
      Tracer::instance().reset();
      Tracer::instance().enable();
    }
  }

  [[nodiscard]] bool active() const { return !path_.empty(); }

  bool finish(std::ostream& out, std::ostream& err) {
    if (path_.empty()) return true;
    Tracer& tracer = Tracer::instance();
    tracer.disable();
    const auto written = tracer.export_chrome_trace_file(path_);
    if (!written.ok()) {
      err << written.error().to_string() << "\n";
      return false;
    }
    const auto checked = validate_chrome_trace_file(path_);
    if (!checked.ok()) {
      err << "trace self-check failed: " << checked.error().to_string()
          << "\n";
      return false;
    }
    out << "wrote trace: " << checked.value() << " spans to " << path_
        << "\n";
    return true;
  }

 private:
  std::string path_;
};

// A missing or unreadable input file is a usage error (exit 2), as it
// is for every --csv reader; a file that opens but fails to load or
// validate is a runtime failure (exit 1).
bool input_readable(const std::string& path, std::ostream& err) {
  if (std::ifstream(path, std::ios::binary)) return true;
  err << Error{path, "cannot open file"}.to_string() << "\n";
  return false;
}

bool write_text_file(const std::string& path, const std::string& text,
                     std::ostream& err) {
  std::ofstream file(path, std::ios::binary);
  file << text << "\n";
  file.flush();
  if (!file) {
    err << path << ": cannot write file\n";
    return false;
  }
  return true;
}

// Writes a Prometheus exposition document for `--metrics-out`, running
// the in-repo lint on it first so a malformed export fails loudly at
// the producer instead of at the scraper.
bool write_metrics_file(const std::string& path, const std::string& text,
                        std::ostream& out, std::ostream& err) {
  const auto checked = validate_prometheus_text(text);
  if (!checked.ok()) {
    err << "metrics self-check failed: " << checked.error().to_string()
        << "\n";
    return false;
  }
  if (!write_text_file(path, text, err)) return false;
  out << "wrote metrics: " << checked.value() << " series to " << path
      << "\n";
  return true;
}

// The observability flags of `mine` and `serve`. start() applies
// --log-level and --log-file, arms the --flight-dump crash handler and
// starts the --trace session; at exit write_reports() writes
// --stats-json and --metrics-out and finish() exports the trace. The
// destructor writes an ordinary flight dump to the same path (so the
// file is always a loadable trace bundle, crash or not) and disarms,
// keeping in-process callers (tests) free of leftover signal handlers.
class Observability {
 public:
  explicit Observability(const Args& args) : args_(args) {}
  Observability(const Observability&) = delete;
  Observability& operator=(const Observability&) = delete;
  ~Observability() {
    if (flight_path_.empty()) return;
    FlightRecorder& recorder = FlightRecorder::instance();
    (void)recorder.dump_file(flight_path_);
    recorder.disarm_crash_dump();
  }

  // Returns false (after printing why) on an unwritable file.
  bool start(std::ostream& err) {
    if (args_.has("log-level")) {
      const auto level = parse_log_level(args_.text("log-level"));
      if (!level.ok()) {
        err << level.error().to_string() << "\n";
        return false;
      }
      Logger::instance().set_level(level.value());
    }
    if (const std::string& path = args_.text("log-file"); !path.empty()) {
      const auto opened = Logger::instance().open_file(path);
      if (!opened.ok()) {
        err << opened.error().to_string() << "\n";
        return false;
      }
    }
    if (const std::string& path = args_.text("flight-dump"); !path.empty()) {
      const auto armed = FlightRecorder::instance().arm_crash_dump(path);
      if (!armed.ok()) {
        err << armed.error().to_string() << "\n";
        return false;
      }
      flight_path_ = path;
    }
    trace_.emplace(args_.text("trace"));
    return true;
  }

  [[nodiscard]] bool tracing() const { return trace_ && trace_->active(); }

  // Each document is rendered only if its flag was given.
  bool write_reports(const std::function<std::string()>& stats_json,
                     const std::function<std::string()>& metrics,
                     std::ostream& out, std::ostream& err) const {
    const std::string& stats_path = args_.text("stats-json");
    const std::string& metrics_path = args_.text("metrics-out");
    return (stats_path.empty() ||
            write_text_file(stats_path, stats_json(), err)) &&
           (metrics_path.empty() ||
            write_metrics_file(metrics_path, metrics(), out, err));
  }

  bool finish(std::ostream& out, std::ostream& err) {
    return !trace_ || trace_->finish(out, err);
  }

 private:
  const Args& args_;
  std::string flight_path_;
  std::optional<TraceSession> trace_;
};

// Splices the name-sorted span summary into a metrics JSON object, so
// `--stats-json` files carry a `trace_spans` key. It is an empty array
// unless the run was traced with `--trace`: a ring-mode tracer
// (`--flight-dump`) holds only the newest chunks, not a whole run.
std::string with_trace_spans(std::string metrics_json, bool traced) {
  GPUMINE_ENSURE(!metrics_json.empty() && metrics_json.back() == '}',
                 "metrics JSON must be an object");
  metrics_json.pop_back();
  metrics_json += ",\"trace_spans\":" +
                  (traced ? Tracer::instance().summary_json() : "[]") + "}";
  return metrics_json;
}

// SIGINT/SIGTERM flag for `gpumine serve` (async-signal-safe type).
volatile std::sig_atomic_t g_serve_stop = 0;
extern "C" void handle_serve_signal(int) { g_serve_stop = 1; }

// Percent-encodes everything outside the unreserved set, so item names
// with spaces, '%', '&' or '=' survive the query-string round trip.
std::string percent_encode(const std::string& text) {
  static const char* hex = "0123456789ABCDEF";
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    const bool unreserved = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                            (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                            c == '.' || c == '~';
    if (unreserved) {
      out += c;
    } else {
      const auto byte = static_cast<unsigned char>(c);
      out += '%';
      out += hex[byte >> 4];
      out += hex[byte & 0xF];
    }
  }
  return out;
}

int run_synth(const Args& args, std::ostream& out, std::ostream& err) {
  const std::string& which = args.text("trace");
  const std::string& path = args.text("out");
  const std::uint64_t jobs = args.uint("jobs");
  const std::uint64_t seed = args.uint("seed");
  prep::Table table;
  if (which == "pai") {
    synth::PaiConfig config;
    config.num_jobs = jobs;
    config.seed = seed;
    table = synth::generate_pai(config).merged();
  } else if (which == "supercloud") {
    synth::SuperCloudConfig config;
    config.num_jobs = jobs;
    config.seed = seed;
    table = synth::generate_supercloud(config).merged();
  } else {
    synth::PhillyConfig config;
    config.num_jobs = jobs;
    config.seed = seed;
    table = synth::generate_philly(config).merged();
  }
  const auto written = prep::write_csv_file(table, path);
  if (!written.ok()) {
    err << written.error().to_string() << "\n";
    return 1;
  }
  out << "wrote " << table.num_rows() << " jobs x " << table.num_columns()
      << " features to " << path << "\n";
  return 0;
}

int run_itemsets(const Args& args, std::ostream& out, std::ostream& err) {
  auto loaded = load_trace(args);
  if (!loaded.ok()) {
    err << loaded.error().to_string() << "\n";
    return 2;
  }
  const std::string& family = args.text("family");
  const std::string& save_path = args.text("save");

  LoadedTrace trace = std::move(loaded).value();
  auto mined = analysis::mine(std::move(trace.table), trace.config);
  mined.mined.metrics.prep_stage.csv_seconds = trace.csv_seconds;
  if (args.has("stats")) out << mined.mined.metrics.summary();
  if (family == "closed") {
    mined.mined.itemsets = core::closed_itemsets(mined.mined);
  } else if (family == "maximal") {
    mined.mined.itemsets = core::maximal_itemsets(mined.mined);
  }
  if (!save_path.empty()) {
    const auto saved = core::save_mining_result_file(
        mined.mined, mined.prepared.catalog, save_path);
    if (!saved.ok()) {
      err << saved.error().to_string() << "\n";
      return 1;
    }
    out << "saved itemsets to " << save_path << "\n";
  }
  out << mined.mined.itemsets.size() << " frequent itemsets over "
      << mined.prepared.catalog.size() << " items\n";
  // Largest-support first for the "top" listing.
  auto itemsets = mined.mined.itemsets;
  std::sort(itemsets.begin(), itemsets.end(),
            [](const core::FrequentItemset& a, const core::FrequentItemset& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.items < b.items;
            });
  const std::size_t n =
      std::min<std::size_t>(itemsets.size(), args.uint("top"));
  for (std::size_t i = 0; i < n; ++i) {
    out << "  [" << itemsets[i].count << "] "
        << mined.prepared.catalog.render(itemsets[i].items) << "\n";
  }
  return 0;
}

int run_mine(const Args& args, std::ostream& out, std::ostream& err) {
  const std::string& keyword = args.text("keyword");
  const std::string& format = args.text("format");
  const std::uint64_t max_rows = args.uint("max-rows");
  const bool stats = args.has("stats");
  Observability observability(args);
  if (!observability.start(err)) return 2;

  // Mining input: either a raw CSV (mined now) or a saved itemset file
  // (from `itemsets --save`).
  core::MiningResult result;
  core::ItemCatalog catalog;
  analysis::WorkflowConfig config;
  if (const std::string& load_path = args.text("load"); !load_path.empty()) {
    auto loaded = core::load_mining_result_file(load_path);
    if (!loaded.ok()) {
      err << loaded.error().to_string() << "\n";
      return 2;
    }
    core::LoadedMiningResult archive = std::move(loaded).value();
    result = std::move(archive.result);
    catalog = std::move(archive.catalog);
    if (stats) {
      out << "no mining stats: --load replays saved itemsets without "
             "mining\n";
    }
  } else {
    auto loaded = load_trace(args);
    if (!loaded.ok()) {
      err << loaded.error().to_string() << "\n";
      return 2;
    }
    LoadedTrace trace = std::move(loaded).value();
    config = trace.config;
    auto mined = analysis::mine(std::move(trace.table), config);
    result = std::move(mined.mined);
    result.metrics.prep_stage.csv_seconds = trace.csv_seconds;
    catalog = std::move(mined.prepared.catalog);
    if (stats) out << result.metrics.summary();
  }
  // Rule/pruning thresholds apply to saved itemsets as to a fresh trace.
  const RuleFlags flags = read_rule_flags(args);
  config.rules = flags.rules;
  config.pruning = flags.pruning;

  const auto keyword_id = catalog.find(keyword);
  if (!keyword_id) {
    err << "keyword '" << keyword << "' is not an encoded item\n";
    return 1;
  }
  const auto analysis = core::analyze_keyword(result, *keyword_id,
                                              config.rules, config.pruning);
  if (stats) out << analysis.stage.summary();
  if (stats && observability.tracing()) {
    out << "trace spans (per name, sorted):\n"
        << Tracer::instance().summary_table();
  }
  result.metrics.rule_stage = analysis.stage;
  if (!observability.write_reports(
          [&] {
            return with_trace_spans(result.metrics.to_json(),
                                    observability.tracing());
          },
          [&] { return core::render_prometheus(result.metrics); }, out,
          err)) {
    return 1;
  }
  if (format == "table") {
    analysis::RuleTableOptions options;
    options.max_cause = max_rows;
    options.max_characteristic = max_rows;
    out << analysis::render_rule_table(analysis, catalog, options);
  } else if (format == "csv") {
    out << analysis::rules_to_csv(analysis, catalog);
  } else if (format == "json") {
    out << analysis::rules_to_json(analysis, catalog) << "\n";
  } else {
    out << analysis::rules_to_markdown(analysis, catalog, max_rows);
  }
  return observability.finish(out, err) ? 0 : 1;
}

int run_predict(const Args& args, std::ostream& out, std::ostream& err) {
  const std::string& target = args.text("target");
  const double holdout = args.number("holdout");
  if (holdout <= 0.0 || holdout >= 1.0) {
    err << "--holdout must be in (0, 1)\n";
    return 2;
  }
  auto loaded = load_trace(args);
  if (!loaded.ok()) {
    err << loaded.error().to_string() << "\n";
    return 2;
  }

  LoadedTrace trace = std::move(loaded).value();
  analysis::WorkflowConfig& config = trace.config;
  config.rules.min_lift = args.number("min-lift");

  // Deterministic random holdout split.
  trace::Rng rng(args.uint("seed"));
  const std::size_t rows = trace.table.num_rows();
  std::vector<bool> is_train(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    is_train[r] = !rng.bernoulli(holdout);
  }
  std::vector<bool> is_test = is_train;
  is_test.flip();

  auto train = analysis::mine(trace.table.filter_rows(is_train), config);
  const auto target_id = train.prepared.catalog.find(target);
  if (!target_id) {
    err << "target '" << target << "' is not an encoded item\n";
    return 1;
  }
  const auto rules = core::generate_keyword_rules(
      train.mined, config.rules, core::SupportIndex(train.mined), *target_id);
  const auto cause =
      core::filter_keyword(rules, *target_id, core::KeywordSide::kConsequent);
  analysis::ClassifierParams clf_params;
  clf_params.min_confidence = args.number("min-confidence");
  const analysis::RuleClassifier classifier(cause, *target_id, clf_params);

  // Encode the held-out rows and remap them into the training vocabulary.
  auto test = analysis::prepare(trace.table.filter_rows(is_test), config);
  core::TransactionDb remapped;
  for (std::size_t t = 0; t < test.db.size(); ++t) {
    core::Itemset txn;
    for (core::ItemId id : test.db[t]) {
      if (const auto mapped =
              train.prepared.catalog.find(test.catalog.name(id))) {
        txn.push_back(*mapped);
      }
    }
    remapped.add(std::move(txn));
  }
  const analysis::Evaluation eval = analysis::evaluate(classifier, remapped);

  out << "train rows: " << train.prepared.db.size()
      << ", test rows: " << remapped.size()
      << ", classifier rules: " << classifier.rules().size() << "\n";
  out << "accuracy=" << eval.accuracy() << " precision=" << eval.precision()
      << " recall=" << eval.recall() << " f1=" << eval.f1() << "\n";
  const std::size_t top =
      std::min<std::size_t>(classifier.rules().size(), 5);
  for (std::size_t i = 0; i < top; ++i) {
    out << "  rule[" << i << "] "
        << analysis::render_rule(classifier.rules()[i],
                                 train.prepared.catalog)
        << "\n";
  }
  return 0;
}

int run_report(const Args& args, std::ostream& out, std::ostream& err) {
  analysis::TableDrilldownSpec spec;
  spec.principal_column = args.text("principal");
  spec.runtime_column = args.text("runtime");
  spec.gpus_column = args.text("gpus");
  spec.sm_util_column = args.text("sm-util");
  spec.status_column = args.text("status");
  spec.failed_label = args.text("failed-label");
  spec.killed_label = args.text("killed-label");

  analysis::DrilldownParams params;
  params.top_k = args.uint("top");
  const std::string& sort = args.text("sort");
  if (sort == "idle") {
    params.sort = analysis::DrilldownSort::kIdleGpuHours;
  } else if (sort == "failed") {
    params.sort = analysis::DrilldownSort::kFailedGpuHours;
  } else if (sort == "hours") {
    params.sort = analysis::DrilldownSort::kGpuHours;
  } else {
    params.sort = analysis::DrilldownSort::kFailureRate;
  }

  prep::CsvParams csv;
  csv.force_categorical = {"job_id", spec.principal_column};
  auto table = prep::read_csv_file(args.text("csv"), csv);
  if (!table.ok()) {
    err << table.error().to_string() << "\n";
    return 2;
  }
  auto stats =
      analysis::drilldown_from_table(table.value(), spec, params);
  if (!stats.ok()) {
    err << stats.error().to_string() << "\n";
    return 2;
  }
  out << analysis::render_drilldown(stats.value());
  return 0;
}

int run_digest(const Args& args, std::ostream& out, std::ostream& err) {
  const std::string& keyword = args.text("keyword");
  auto loaded = load_trace(args);
  if (!loaded.ok()) {
    err << loaded.error().to_string() << "\n";
    return 2;
  }

  LoadedTrace trace = std::move(loaded).value();
  analysis::WorkflowConfig& config = trace.config;
  const RuleFlags flags = read_rule_flags(args);
  config.rules = flags.rules;
  config.pruning = flags.pruning;
  auto mined = analysis::mine(std::move(trace.table), config);
  const auto& catalog = mined.prepared.catalog;
  const auto keyword_id = catalog.find(keyword);
  if (!keyword_id) {
    err << "keyword '" << keyword << "' is not an encoded item\n";
    return 1;
  }
  const auto analysis = core::analyze_keyword(mined.mined, *keyword_id,
                                              config.rules, config.pruning);

  analysis::SummarizeParams summarize;
  summarize.max_rules = args.uint("max-rules");
  const auto digest = analysis::summarize_cause_rules(
      analysis.cause, mined.prepared.db, *keyword_id, summarize);
  out << "digest (greedy coverage of '" << keyword << "' transactions):\n";
  std::vector<core::Rule> digest_rules;
  for (const auto& entry : digest) {
    out << "  " << analysis::render_rule(entry.rule, catalog)
        << "  conf=" << entry.rule.confidence << " covers " << entry.matched
        << " (+" << entry.newly_covered << " new, cum "
        << static_cast<int>(entry.cumulative_coverage * 100.0) << "%)\n";
    digest_rules.push_back(entry.rule);
  }

  const double fdr = args.number("fdr");
  const auto certified =
      core::significant_rules(digest_rules, mined.mined.db_size, fdr);
  out << "certified " << certified.size() << " of " << digest_rules.size()
      << " digest rules (Fisher exact, BH q=" << fdr << ")\n";

  core::NegativeRuleParams negative;
  negative.min_confidence = args.number("negative-confidence");
  negative.mining_min_support = config.mining.min_support;
  // Tautology guard: e.g. --exclude Terminated when the keyword is
  // Failed, so "{Terminated} => NOT Failed" does not top the list.
  for (const std::string& name : split_list(args.text("exclude"))) {
    if (const auto id = catalog.find(name)) {
      negative.excluded_antecedent_items.push_back(*id);
    }
  }
  const auto safe =
      core::generate_negative_rules(mined.mined, *keyword_id, negative);
  out << "safe patterns (X => NOT " << keyword << "): " << safe.size()
      << "\n";
  for (std::size_t i = 0; i < safe.size() && i < 5; ++i) {
    out << "  {" << catalog.render(safe[i].antecedent)
        << "}  conf=" << safe[i].confidence << " lift=" << safe[i].lift
        << "\n";
  }
  return 0;
}

int run_compare(const Args& args, std::ostream& out, std::ostream& err) {
  const std::string& keyword = args.text("keyword");
  auto loaded_a = core::load_mining_result_file(args.text("a"));
  auto loaded_b = core::load_mining_result_file(args.text("b"));
  if (!loaded_a.ok() || !loaded_b.ok()) {
    err << (!loaded_a.ok() ? loaded_a : loaded_b).error().to_string() << "\n";
    return 2;
  }
  core::LoadedMiningResult a = std::move(loaded_a).value();
  core::LoadedMiningResult b = std::move(loaded_b).value();

  core::RuleParams rule_params;
  rule_params.min_lift = args.number("min-lift");
  auto keyword_rules = [&](const core::LoadedMiningResult& archive)
      -> std::vector<core::Rule> {
    const auto id = archive.catalog.find(keyword);
    if (!id) return {};
    return core::generate_keyword_rules(archive.result, rule_params,
                                        core::SupportIndex(archive.result),
                                        *id);
  };
  const auto rules_a = keyword_rules(a);
  const auto rules_b = keyword_rules(b);
  const auto cmp =
      analysis::compare_rule_sets(rules_a, a.catalog, rules_b, b.catalog);
  out << "A: " << rules_a.size() << " keyword rules; B: " << rules_b.size()
      << "; shared: " << cmp.matched.size()
      << " (Jaccard " << cmp.jaccard_overlap() << ")\n";
  if (!cmp.matched.empty()) {
    out << "on shared rules: mean |d conf| = " << cmp.mean_abs_conf_delta()
        << ", mean |d lift| = " << cmp.mean_abs_lift_delta() << "\n";
  }
  const auto show = [&](const char* title,
                        const std::vector<core::Rule>& rules,
                        const core::ItemCatalog& catalog) {
    out << title << " (" << rules.size() << "):\n";
    for (std::size_t i = 0; i < rules.size() && i < 3; ++i) {
      out << "  " << analysis::render_rule(rules[i], catalog) << "\n";
    }
  };
  show("only in A", cmp.only_a, a.catalog);
  show("only in B", cmp.only_b, b.catalog);
  return 0;
}

int run_snapshot(const Args& args, std::ostream& out, std::ostream& err) {
  const std::string& out_path = args.text("out");
  core::RuleSnapshot snapshot;
  if (const std::string& archive_path = args.text("from-itemsets");
      !archive_path.empty()) {
    // Convert a v1 text archive (`itemsets --save`); rule and pruning
    // thresholds come from the flags, as in `mine --load`.
    auto loaded = core::load_mining_result_file(archive_path);
    if (!loaded.ok()) {
      err << loaded.error().to_string() << "\n";
      return 2;
    }
    const RuleFlags flags = read_rule_flags(args);
    core::LoadedMiningResult archive = std::move(loaded).value();
    snapshot = core::build_rule_snapshot(std::move(archive.result),
                                         std::move(archive.catalog),
                                         flags.rules, flags.pruning);
  } else {
    auto loaded = load_trace(args);
    if (!loaded.ok()) {
      err << loaded.error().to_string() << "\n";
      return 2;
    }
    LoadedTrace trace = std::move(loaded).value();
    const RuleFlags flags = read_rule_flags(args);
    auto mined = analysis::mine(std::move(trace.table), trace.config);
    snapshot = core::build_rule_snapshot(std::move(mined.mined),
                                         std::move(mined.prepared.catalog),
                                         flags.rules, flags.pruning);
  }

  const auto saved = core::save_rule_snapshot_file(snapshot, out_path);
  if (!saved.ok()) {
    err << saved.error().to_string() << "\n";
    return 1;
  }
  out << "wrote snapshot: " << snapshot.catalog.size() << " items, "
      << snapshot.result.itemsets.size() << " itemsets, "
      << snapshot.rules.size() << " rules to " << out_path << "\n";
  return 0;
}

int run_serve(const Args& args, std::ostream& out, std::ostream& err) {
  const std::string& snapshot_path = args.text("snapshot");
  const bool check_only = args.has("check");
  const double slow_query_ms = args.number("slow-query-ms");
  if (slow_query_ms < 0.0) {
    err << "--slow-query-ms must be >= 0\n";
    return 2;
  }
  if (!input_readable(snapshot_path, err)) return 2;
  Observability observability(args);
  if (!observability.start(err)) return 2;

  const auto build_begin = std::chrono::steady_clock::now();
  Result<core::RuleSnapshot> snapshot = [&] {
    GPUMINE_SPAN("serve/snapshot_load");
    return core::load_rule_snapshot_file(snapshot_path);
  }();
  if (!snapshot.ok()) {
    err << snapshot.error().to_string() << "\n";
    return 1;
  }
  auto engine = std::make_shared<const serve::QueryEngine>(
      std::move(snapshot).value());
  const double build_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    build_begin)
          .count();
  out << "loaded " << engine->num_rules() << " rules over "
      << engine->catalog().size() << " items ("
      << engine->num_keywords_with_rules() << " keywords with rules) in "
      << build_seconds << "s\n";

  serve::RequestHandler handler(std::move(engine), snapshot_path);
  if (slow_query_ms > 0.0) {
    // The slow-query log reads the request's spans from the tracer, so
    // at least ring mode must be on for the subtree to exist.
    handler.set_slow_query_ns(static_cast<std::uint64_t>(slow_query_ms * 1e6));
    Tracer::instance().set_ring_mode(true);
  }
  serve::ServerConfig config;
  config.host = args.text("host");
  config.port = static_cast<std::uint16_t>(args.uint("port"));
  config.num_threads = static_cast<std::size_t>(args.uint("threads"));
  serve::Server server(handler, config);
  const auto started = server.start();
  if (!started.ok()) {
    err << started.error().to_string() << "\n";
    return 1;
  }
  out << "serving on " << config.host << ':' << server.port() << " with "
      << config.num_threads << " threads\n";
  // --check's /metrics scrape, which --metrics-out then writes.
  std::string checked_metrics;
  if (check_only) {
    // Exercise the handler once so --check verifies the request path
    // (and a --trace session has request spans to export).
    const serve::HttpResponse health = handler.handle("GET", "/healthz");
    if (health.status != 200) {
      err << "health check failed with status " << health.status << "\n";
      server.stop();
      return 1;
    }
    // And the exposition path: scrape /metrics, then lint the document
    // the way promtool would.
    const serve::HttpResponse metrics = handler.handle("GET", "/metrics");
    if (metrics.status != 200) {
      err << "metrics check failed with status " << metrics.status << "\n";
      server.stop();
      return 1;
    }
    const auto lint = validate_prometheus_text(metrics.body);
    if (!lint.ok()) {
      err << "metrics self-check failed: " << lint.error().to_string()
          << "\n";
      server.stop();
      return 1;
    }
    out << "metrics check ok: " << lint.value() << " series\n";
    checked_metrics = metrics.body;
  } else {
    g_serve_stop = 0;
    std::signal(SIGINT, handle_serve_signal);
    std::signal(SIGTERM, handle_serve_signal);
    out.flush();
    while (g_serve_stop == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
  }
  server.stop();
  if (!observability.write_reports(
          [&] { return handler.handle("GET", "/stats").body; },
          [&] {
            return check_only ? checked_metrics
                              : handler.handle("GET", "/metrics").body;
          },
          out, err)) {
    return 1;
  }
  if (!check_only) out << "stopped\n";
  return observability.finish(out, err) ? 0 : 1;
}

int run_query(const Args& args, std::ostream& out, std::ostream& err) {
  const std::string& keyword = args.text("keyword");
  const std::string& items = args.text("items");
  TraceSession session(args.text("trace"));

  std::string method = "GET";
  std::string target;
  if (!keyword.empty()) {
    target = "/query?keyword=" + percent_encode(keyword);
  } else if (!items.empty()) {
    // Commas separate items server-side; encode each name around them.
    target = "/support?items=";
    bool first = true;
    for (const std::string& name : split_list(items)) {
      if (!first) target += ',';
      first = false;
      target += percent_encode(name);
    }
  } else if (args.has("stats")) {
    target = "/stats";
  } else if (args.has("reload")) {
    method = "POST";
    target = "/reload";
  } else {
    target = "/healthz";
  }

  const auto response = [&] {
    GPUMINE_SPAN("client/request");
    return serve::http_request(args.text("host"),
                               static_cast<std::uint16_t>(args.uint("port")),
                               method, target);
  }();
  if (!response.ok()) {
    err << response.error().to_string() << "\n";
    return 1;
  }
  out << response.value().body;
  if (response.value().body.empty() || response.value().body.back() != '\n') {
    out << "\n";
  }
  if (!session.finish(out, err)) return 1;
  return response.value().status >= 200 && response.value().status < 300 ? 0
                                                                         : 1;
}

int run_trace_check(const Args& args, std::ostream& out, std::ostream& err) {
  const std::string& file = args.text("file");
  if (!input_readable(file, err)) return 2;
  const auto checked = validate_chrome_trace_file(file);
  if (!checked.ok()) {
    err << "invalid trace: " << checked.error().to_string() << "\n";
    return 1;
  }
  out << "ok: " << checked.value() << " well-formed spans in " << file
      << "\n";
  return 0;
}

int run_metrics_check(const Args& args, std::ostream& out, std::ostream& err) {
  const std::string& file = args.text("file");
  if (!input_readable(file, err)) return 2;
  const auto checked = validate_prometheus_file(file);
  if (!checked.ok()) {
    err << "invalid metrics: " << checked.error().to_string() << "\n";
    return 1;
  }
  out << "ok: " << checked.value() << " well-formed series in " << file
      << "\n";
  return 0;
}

struct Command {
  std::string_view name;
  Usage usage;
  int (*run)(const Args&, std::ostream&, std::ostream&);
};

// Every command's flags, declared once; parsing and `gpumine help` both
// read this table.
const std::vector<Command>& commands() {
  using K = FlagKind;
  static const std::vector<Command> table = {
      {"synth",
       {{{"trace", K::kChoice, "pai|supercloud|philly", "", true},
         {"out", K::kText, "trace.csv", "", true},
         {"jobs", K::kUint, "N", "20000"},
         {"seed", K::kUint, "S", "42"}}},
       run_synth},
      {"itemsets",
       {join({kTraceFlags,
              {kThreadsFlag,
               {"top", K::kUint, "N", "25"},
               {"save", K::kText, "FILE"},
               {"family", K::kChoice, "all|closed|maximal", "all"},
               {"stats", K::kSwitch}}})},
       run_itemsets},
      {"mine",
       {join({{{"keyword", K::kText, "ITEM", "", true}}, kRuleFlags,
              {{"format", K::kChoice, "table|csv|json|md", "table"},
               {"max-rows", K::kUint, "N", "10"},
               {"stats", K::kSwitch}},
              kObservabilityFlags}),
        {kTraceFlags, {{"load", K::kText, "FILE"}}}},
       run_mine},
      {"predict",
       {join({kTraceFlags,
              {kThreadsFlag,
               kMinLiftFlag,
               {"target", K::kText, "ITEM", "", true},
               {"holdout", K::kDouble, "F", "0.3"},
               {"min-confidence", K::kDouble, "F", "0.7"},
               {"seed", K::kUint, "N", "1"}}})},
       run_predict},
      {"report",
       {{{"csv", K::kText, "trace.csv", "", true},
         {"principal", K::kText, "COL", "User"},
         {"runtime", K::kText, "COL", "Runtime"},
         {"sm-util", K::kText, "COL", "SM Util"},
         {"status", K::kText, "COL", "Status"},
         {"gpus", K::kText, "COL"},
         {"failed-label", K::kText, "L", "Failed"},
         {"killed-label", K::kText, "L", "Killed"},
         {"sort", K::kChoice, "idle|failed|hours|rate", "idle"},
         {"top", K::kUint, "N", "10"}}},
       run_report},
      {"digest",
       {join({kTraceFlags, kRuleFlags,
              {{"keyword", K::kText, "ITEM", "", true},
               {"max-rules", K::kUint, "N", "6"},
               {"fdr", K::kDouble, "Q", "0.01"},
               {"negative-confidence", K::kDouble, "F", "0.7"},
               {"exclude", K::kText, "A,B"}}})},
       run_digest},
      {"compare",
       {{{"a", K::kText, "x.itemsets", "", true},
         {"b", K::kText, "y.itemsets", "", true},
         {"keyword", K::kText, "ITEM", "", true},
         {"min-lift", K::kDouble, "F", "1.5"}}},
       run_compare},
      {"snapshot",
       {join({{{"out", K::kText, "FILE", "", true}}, kRuleFlags}),
        {kTraceFlags, {{"from-itemsets", K::kText, "FILE"}}}},
       run_snapshot},
      {"serve",
       {join({{{"snapshot", K::kText, "FILE", "", true},
               {"host", K::kText, "H", "127.0.0.1"},
               {"port", K::kPort, "P", "8080"},
               {"threads", K::kUint, "N", "4"},
               {"check", K::kSwitch},
               {"slow-query-ms", K::kDouble, "F", "0"}},
              kObservabilityFlags})},
       run_serve},
      {"query",
       {{{"host", K::kText, "H", "127.0.0.1"},
         {"port", K::kPort, "P", "8080"},
         kTraceFileFlag},
        {{{"keyword", K::kText, "ITEM"}},
         {{"items", K::kText, "A,B"}},
         {{"stats", K::kSwitch}},
         {{"reload", K::kSwitch}},
         {{"health", K::kSwitch}}}},
       run_query},
      {"trace-check",
       {{{"file", K::kText, "trace.json", "", true}}},
       run_trace_check},
      {"metrics-check",
       {{{"file", K::kText, "metrics.prom", "", true}}},
       run_metrics_check},
  };
  return table;
}

int run_help(std::ostream& out) {
  out << "gpumine - interpretable GPU-cluster trace analysis via "
         "association rule mining\n\n"
         "usage:\n";
  for (const Command& command : commands()) {
    out << render_usage(command.name, command.usage);
  }
  out << "  gpumine help\n";
  return 0;
}

}  // namespace

std::vector<std::pair<std::string_view, const Usage*>> command_usages() {
  std::vector<std::pair<std::string_view, const Usage*>> out;
  for (const Command& command : commands()) {
    out.emplace_back(command.name, &command.usage);
  }
  return out;
}

int run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err) {
  if (args.empty() || args[0] == "help" || args[0] == "--help") {
    return run_help(out);
  }
  for (const Command& command : commands()) {
    if (command.name != args[0]) continue;
    const auto parsed = Args::parse(
        command.usage, std::vector<std::string>(args.begin() + 1, args.end()));
    if (!parsed.ok()) {
      err << parsed.error().to_string() << "\n";
      return 2;
    }
    return command.run(parsed.value(), out, err);
  }
  err << "unknown command '" << args[0] << "' (try: gpumine help)\n";
  return 2;
}

}  // namespace gpumine::cli
