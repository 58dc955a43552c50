#include "pipeline.hpp"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "analysis/export.hpp"
#include "analysis/workflow.hpp"
#include "cli/commands.hpp"
#include "core/pruning.hpp"
#include "core/rules.hpp"
#include "core/support_index.hpp"
#include "prep/csv.hpp"

namespace perfbench {
namespace {

std::string join(const std::vector<std::string>& parts) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += ',';
    out += parts[i];
  }
  return out;
}

// Mirrors the CLI's flag handling for the flags in MineFlags. Every
// other setting keeps its WorkflowConfig default, which is also the
// CLI's default (min support 5%, max length 5, min lift 1.5, C_lift =
// C_supp = 1.5, FP-Growth, direct engine, dedup on); the CLI also drops
// job_id and bins every numeric column unless told otherwise.
gpumine::analysis::WorkflowConfig workflow_config(
    const gpumine::prep::Table& table, const MineFlags& flags) {
  gpumine::analysis::WorkflowConfig config;
  config.mining.num_threads = flags.threads;
  config.rules.num_threads = flags.threads;
  config.prep_threads = flags.threads;
  config.drop_columns = {"job_id"};
  config.encoder.bare_label_columns = flags.bare;
  for (const std::string& column : flags.group) {
    gpumine::prep::ShareGroupingParams grouping;
    grouping.top_label = "Freq " + column;
    grouping.middle_label = "Regular " + column;
    grouping.bottom_label = "New " + column;
    config.groupings.push_back({column, grouping});
  }
  for (std::size_t c = 0; c < table.num_columns(); ++c) {
    const std::string& name = table.column_name(c);
    if (table.is_numeric(name)) {
      config.binnings.push_back({name, gpumine::prep::BinningParams{}});
    }
  }
  return config;
}

}  // namespace

std::vector<std::string> MineFlags::cli_args() const {
  std::vector<std::string> args{"--threads", std::to_string(threads)};
  if (!bare.empty()) {
    args.insert(args.end(), {"--bare", join(bare)});
  }
  if (!group.empty()) {
    args.insert(args.end(), {"--group", join(group)});
  }
  return args;
}

MinedTrace mine_csv(const std::string& csv_path, const MineFlags& flags,
                    SpanRecorder& spans) {
  gpumine::prep::Table table;
  {
    Span span(spans, "prep.csv");
    gpumine::prep::CsvParams csv;
    csv.force_categorical = {"job_id"};
    csv.num_threads = flags.threads;
    auto parsed = gpumine::prep::read_csv_file(csv_path, csv);
    if (!parsed.ok()) throw std::runtime_error(parsed.error().to_string());
    table = std::move(parsed).value();
  }
  MinedTrace out;
  const gpumine::analysis::WorkflowConfig config =
      workflow_config(table, flags);
  out.rules = config.rules;
  out.pruning = config.pruning;
  gpumine::analysis::PreparedTrace prepared;
  {
    Span span(spans, "prep.prepare");
    prepared = gpumine::analysis::prepare(std::move(table), config);
  }
  out.rows = prepared.db.size();
  gpumine::core::TransactionDb deduped;
  {
    Span span(spans, "core.dedup");
    deduped = prepared.db.dedup();
  }
  out.distinct_rows = deduped.size();
  {
    Span span(spans, "core.mine");
    out.mined = gpumine::core::mine_frequent(deduped, config.mining,
                                             config.algorithm);
  }
  out.catalog = std::move(prepared.catalog);
  return out;
}

KeywordAnswer answer_keyword(const MinedTrace& trace,
                             const std::string& keyword, SpanRecorder& spans) {
  using namespace gpumine::core;
  const auto id = trace.catalog.find(keyword);
  if (!id) {
    throw std::invalid_argument("keyword '" + keyword +
                                "' is not an encoded item");
  }
  KeywordAnalysis analysis;
  analysis.keyword = *id;
  std::vector<Rule> all;
  {
    Span span(spans, "core.rules");
    const SupportIndex index(trace.mined);
    all = generate_rules(trace.mined, trace.rules, index, &analysis.stage);
  }
  {
    Span span(spans, "core.prune");
    const std::vector<Rule> keyed = filter_keyword(all, *id);
    const std::vector<Rule> pruned =
        prune_rules(keyed, *id, trace.pruning, &analysis.prune_stats);
    analysis.cause = filter_keyword(pruned, *id, KeywordSide::kConsequent);
    analysis.characteristic =
        filter_keyword(pruned, *id, KeywordSide::kAntecedent);
  }
  KeywordAnswer answer;
  {
    Span span(spans, "analysis.render");
    answer.json = gpumine::analysis::rules_to_json(analysis, trace.catalog);
  }
  answer.stage = analysis.stage;
  answer.prune = analysis.prune_stats;
  answer.cause_rows = analysis.cause.size();
  answer.characteristic_rows = analysis.characteristic.size();
  return answer;
}

std::string mine_json(const std::string& csv_path, const MineFlags& flags,
                      const std::string& keyword) {
  std::vector<std::string> args{"mine",    "--csv",  csv_path, "--keyword",
                                keyword,   "--format", "json"};
  const std::vector<std::string> extra = flags.cli_args();
  args.insert(args.end(), extra.begin(), extra.end());
  std::string out = run_cli(args);
  if (!out.empty() && out.back() == '\n') out.pop_back();
  return out;
}

std::string run_cli(const std::vector<std::string>& args) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = gpumine::cli::run(args, out, err);
  if (code != 0) {
    throw std::runtime_error("gpumine " + args.front() + " exited " +
                             std::to_string(code) + ": " + err.str());
  }
  return out.str();
}

}  // namespace perfbench
