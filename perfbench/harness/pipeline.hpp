// The CLI pipeline, two ways.
//
// mine_json() runs `gpumine mine` through the CLI's own entry point, in
// process: this is the code path the untraced runs time. mine_csv() and
// answer_keyword() run the same pipeline split at layer boundaries:
// `gpumine mine` calls prep::read_csv_file -> analysis::mine ->
// core::analyze_keyword -> analysis::rules_to_json, and those wrappers
// hide the layers, so the split calls the public functions they are
// made of (analysis::prepare, TransactionDb::dedup, core::mine_frequent,
// core::generate_rules, core::filter_keyword, core::prune_rules, ...)
// with one span around each. The traced run times the split; every run
// checks that both give byte-identical answers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/item_catalog.hpp"
#include "core/miner.hpp"
#include "spans.hpp"

namespace perfbench {

/// The `gpumine mine` / `gpumine snapshot` flags the workloads use.
struct MineFlags {
  std::vector<std::string> bare;   // --bare
  std::vector<std::string> group;  // --group
  std::size_t threads = 1;         // --threads

  /// The same settings as CLI arguments (after the subcommand name).
  [[nodiscard]] std::vector<std::string> cli_args() const;
};

struct MinedTrace {
  gpumine::core::ItemCatalog catalog;
  gpumine::core::MiningResult mined;
  gpumine::core::RuleParams rules;
  gpumine::core::PruneParams pruning;
  std::uint64_t rows = 0;
  std::uint64_t distinct_rows = 0;
};

/// CSV path -> frequent itemsets: spans prep.csv, prep.prepare,
/// core.dedup, core.mine. Throws std::runtime_error on a bad CSV.
[[nodiscard]] MinedTrace mine_csv(const std::string& csv_path,
                                  const MineFlags& flags, SpanRecorder& spans);

struct KeywordAnswer {
  std::string json;  // analysis::rules_to_json bytes
  gpumine::core::RuleStageMetrics stage;
  gpumine::core::PruneStats prune;
  std::size_t cause_rows = 0;
  std::size_t characteristic_rows = 0;
};

/// Mined trace -> rendered keyword answer: spans core.rules,
/// core.prune, analysis.render. Throws std::invalid_argument when the
/// keyword is not an encoded item.
[[nodiscard]] KeywordAnswer answer_keyword(const MinedTrace& trace,
                                           const std::string& keyword,
                                           SpanRecorder& spans);

/// `gpumine mine --csv CSV --keyword K --format json` with `flags`,
/// through the CLI's entry point: the rendered JSON (no trailing
/// newline).
[[nodiscard]] std::string mine_json(const std::string& csv_path,
                                    const MineFlags& flags,
                                    const std::string& keyword);

/// Runs a `gpumine` subcommand in process through the CLI's own entry
/// point; returns its stdout, or throws with its stderr on a non-zero
/// exit.
[[nodiscard]] std::string run_cli(const std::vector<std::string>& args);

}  // namespace perfbench
