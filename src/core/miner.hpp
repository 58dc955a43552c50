// Facade over the frequent-itemset miner plus the full
// itemsets -> rules -> pruned-rules pipeline of Sec. III.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/frequent.hpp"
#include "core/pruning.hpp"
#include "core/rules.hpp"
#include "core/support_index.hpp"
#include "core/transaction_db.hpp"

namespace gpumine::core {

// Single-valued: kept only because perfbench/harness/pipeline.cpp passes it.
enum class Algorithm {
  kFpGrowth,  // paper's choice (Sec. III-C)
};

/// Mines frequent itemsets with FP-Growth (Sec. III-C). `algorithm`
/// has one value and selects nothing.
[[nodiscard]] MiningResult mine_frequent(const TransactionDb& db,
                                         const MiningParams& params,
                                         Algorithm algorithm = Algorithm::kFpGrowth);

/// One keyword analysis = the paper's unit of study: all surviving cause
/// rules (keyword in consequent) and characteristic rules (keyword in
/// antecedent) after Conditions 1-4.
struct KeywordAnalysis {
  ItemId keyword;
  std::vector<Rule> cause;           // "C" rows
  std::vector<Rule> characteristic;  // "A" rows
  PruneStats prune_stats;            // over the combined keyword rule set
  RuleStageMetrics stage;            // generation + pruning observability
};

/// The pruning half of analyze_keyword, for rules generated once and
/// shared: prunes `rules[i]` for i in `keyed` (the rules that mention
/// `analysis.keyword`) and splits the survivors into cause and
/// characteristic rules. Fills `analysis`'s cause, characteristic,
/// prune_stats and the pruning fields of its stage.
void prune_keyword(const std::vector<Rule>& rules,
                   std::span<const std::size_t> keyed,
                   const PruneParams& prune_params, KeywordAnalysis& analysis);

/// Runs keyword rule generation + pruning over an existing mining
/// result. Builds a throwaway SupportIndex; prefer the overload
/// below when analyzing several keywords from one mining result.
[[nodiscard]] KeywordAnalysis analyze_keyword(const MiningResult& mined,
                                              ItemId keyword,
                                              const RuleParams& rule_params,
                                              const PruneParams& prune_params);

/// Same, reusing a prebuilt support index (which must have been built
/// from `mined`) — the index is read-only, so one instance serves any
/// number of keyword analyses and rule-generation threads.
[[nodiscard]] KeywordAnalysis analyze_keyword(const MiningResult& mined,
                                              const SupportIndex& index,
                                              ItemId keyword,
                                              const RuleParams& rule_params,
                                              const PruneParams& prune_params);

}  // namespace gpumine::core
