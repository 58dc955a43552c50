// Keyword-centric rule pruning (paper Sec. III-D).
//
// The analyst picks a *keyword* item K (e.g. "SM Util = 0%" or "Failed").
// Rules with K in the consequent support cause analysis; K in the
// antecedent, characteristic analysis. Four redundancy conditions then
// remove rules that a shorter or more informative sibling dominates,
// controlled by the slack factors C_lift and C_supp (both >= 1; paper
// uses 1.5):
//
//  Cond 1 (cause, nested antecedents Xi ⊂ Xj, same consequent Y ∋ K):
//    keep the shorter rule if its lift is within C_lift of the longer
//    one; otherwise drop the shorter rule if the longer one also has
//    support within C_supp.
//  Cond 2 (characteristic, same antecedent X ∋ K, nested consequents
//    Yi ⊂ Yj): prefer the more specific consequent when its lift and
//    support are close; drop it when the shorter rule clearly wins on
//    lift.
//  Cond 3 (cause, same antecedent, nested consequents both containing
//    K): prefer the concise consequent when lifts are close.
//  Cond 4 (characteristic, nested antecedents both containing K, same
//    consequent): prefer the shorter antecedent when lifts are close.
//
// Every condition compares two rules that share one side exactly (the
// consequent for Conds 1/4, the antecedent for Conds 2/3) and nest on
// the other, so the implementation never scans all pairs: rules are
// bucketed by the shared side, restricted to the keyword side each
// condition needs (Cond 1 only fires inside buckets whose consequent
// holds K; Conds 3/4 only between rules holding K on the nested side),
// and each bucket is walked in increasing nested-side length so only
// strictly-shorter-vs-longer pairs are subset-tested. PruneStats
// records the bucket shape (count, max size, pair tests) next to the
// per-condition attribution; docs/RULES.md walks through the scheme.
//
// Pruning decisions are evaluated against the *input* rule set (a pruned
// rule can still disqualify another), which makes the result independent
// of rule ordering — an invariant the property tests rely on and one the
// bucketed pass preserves: bucketing only narrows which pairs are
// *examined*, never which conditions *fire*.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "core/itemset.hpp"
#include "core/rules.hpp"

namespace gpumine::core {

struct PruneParams {
  double c_lift = 1.5;  // lift slack (>= 1)
  double c_supp = 1.5;  // support slack (>= 1)

  void validate() const;
};

enum class KeywordSide {
  kAntecedent,  // characteristic analysis ("A" rows in the paper tables)
  kConsequent,  // cause analysis ("C" rows)
};

struct PruneStats {
  std::size_t input = 0;
  std::size_t kept = 0;
  /// Rules removed by condition i (index i-1), attributed per *firing*:
  /// a rule dominated by several siblings, or caught by more than one
  /// condition, increments every slot whose condition fired — so the
  /// slots can sum to more than input - kept. `kept` is authoritative.
  std::array<std::size_t, 4> pruned_by{0, 0, 0, 0};
  /// Shape of the candidate index: total buckets across the
  /// shared-consequent and shared-antecedent passes, the largest single
  /// bucket, and the shorter-vs-longer subset tests actually performed
  /// (the bucketed stand-in for the old all-pairs n^2).
  std::size_t num_buckets = 0;
  std::size_t max_bucket = 0;
  std::size_t pair_comparisons = 0;
};

/// Rules that contain `keyword` on the given side.
[[nodiscard]] std::vector<Rule> filter_keyword(const std::vector<Rule>& rules,
                                               ItemId keyword,
                                               KeywordSide side);

/// Rules that contain `keyword` anywhere.
[[nodiscard]] std::vector<Rule> filter_keyword(const std::vector<Rule>& rules,
                                               ItemId keyword);

/// Applies Conditions 1-4 to the rules `rules[i]` for i in `subset`
/// (which should already be restricted to rules mentioning `keyword`;
/// rules not mentioning it pass through untouched since no condition
/// applies). Returns survivors in the deterministic sort_rules order.
/// Only survivors are copied, so a caller holding one shared rule list
/// prunes any keyword's slice of it through an index list.
[[nodiscard]] std::vector<Rule> prune_rules(const std::vector<Rule>& rules,
                                            std::span<const std::size_t> subset,
                                            ItemId keyword,
                                            const PruneParams& params,
                                            PruneStats* stats = nullptr);

/// The same over all of `rules`.
[[nodiscard]] std::vector<Rule> prune_rules(const std::vector<Rule>& rules,
                                            ItemId keyword,
                                            const PruneParams& params,
                                            PruneStats* stats = nullptr);

}  // namespace gpumine::core
