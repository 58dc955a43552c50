#include "core/miner.hpp"

#include <chrono>
#include <numeric>
#include <utility>

#include "core/fpgrowth.hpp"

namespace gpumine::core {

MiningResult mine_frequent(const TransactionDb& db, const MiningParams& params,
                           Algorithm /*algorithm*/) {
  return mine_fpgrowth(db, params);
}

KeywordAnalysis analyze_keyword(const MiningResult& mined, ItemId keyword,
                                const RuleParams& rule_params,
                                const PruneParams& prune_params) {
  const SupportIndex index(mined);
  return analyze_keyword(mined, index, keyword, rule_params, prune_params);
}

void prune_keyword(const std::vector<Rule>& rules,
                   std::span<const std::size_t> keyed,
                   const PruneParams& prune_params, KeywordAnalysis& analysis) {
  const ItemId keyword = analysis.keyword;
  const auto prune_begin = std::chrono::steady_clock::now();
  std::vector<Rule> pruned = prune_rules(rules, keyed, keyword, prune_params,
                                         &analysis.prune_stats);
  RuleStageMetrics& stage = analysis.stage;
  stage.prune_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - prune_begin)
                            .count();
  stage.rules_kept = analysis.prune_stats.kept;
  for (std::size_t c = 0; c < 4; ++c) {
    stage.pruned_by_condition[c] = analysis.prune_stats.pruned_by[c];
  }
  stage.prune_buckets = analysis.prune_stats.num_buckets;
  stage.prune_max_bucket = analysis.prune_stats.max_bucket;
  stage.prune_pair_comparisons = analysis.prune_stats.pair_comparisons;

  for (Rule& rule : pruned) {
    if (contains(rule.consequent, keyword)) {
      analysis.cause.push_back(std::move(rule));
    } else if (contains(rule.antecedent, keyword)) {
      analysis.characteristic.push_back(std::move(rule));
    }
  }
}

KeywordAnalysis analyze_keyword(const MiningResult& mined,
                                const SupportIndex& index, ItemId keyword,
                                const RuleParams& rule_params,
                                const PruneParams& prune_params) {
  KeywordAnalysis analysis;
  analysis.keyword = keyword;
  const std::vector<Rule> keyed = generate_keyword_rules(
      mined, rule_params, index, keyword, &analysis.stage);
  std::vector<std::size_t> all(keyed.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  prune_keyword(keyed, all, prune_params, analysis);
  return analysis;
}

}  // namespace gpumine::core
