#include "core/pruning.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <unordered_map>

#include "common/ensure.hpp"
#include "common/trace.hpp"

namespace gpumine::core {
namespace {

using BucketMap =
    std::unordered_map<Itemset, std::vector<std::size_t>, ItemsetHash,
                       ItemsetEq>;

}  // namespace

void PruneParams::validate() const {
  GPUMINE_CHECK_ARG(c_lift >= 1.0, "c_lift must be >= 1");
  GPUMINE_CHECK_ARG(c_supp >= 1.0, "c_supp must be >= 1");
}

std::vector<Rule> filter_keyword(const std::vector<Rule>& rules,
                                 ItemId keyword, KeywordSide side) {
  std::vector<Rule> out;
  for (const Rule& r : rules) {
    const Itemset& where =
        side == KeywordSide::kAntecedent ? r.antecedent : r.consequent;
    if (contains(where, keyword)) out.push_back(r);
  }
  return out;
}

std::vector<Rule> filter_keyword(const std::vector<Rule>& rules,
                                 ItemId keyword) {
  std::vector<Rule> out;
  for (const Rule& r : rules) {
    if (contains(r.antecedent, keyword) || contains(r.consequent, keyword)) {
      out.push_back(r);
    }
  }
  return out;
}

std::vector<Rule> prune_rules(const std::vector<Rule>& all,
                              std::span<const std::size_t> subset,
                              ItemId keyword, const PruneParams& params,
                              PruneStats* stats) {
  GPUMINE_SPAN("rules/prune");
  params.validate();
  const double cl = params.c_lift;
  const double cs = params.c_supp;
  const std::size_t n = subset.size();
  // Everything below works on positions 0..n-1 of `subset`.
  const auto rules = [&](std::size_t i) -> const Rule& {
    return all[subset[i]];
  };
  std::vector<bool> pruned(n, false);
  std::array<std::size_t, 4> by{0, 0, 0, 0};

  auto mark = [&](std::size_t idx, std::size_t condition) {
    pruned[idx] = true;
    ++by[condition - 1];
  };

  // Keyword-side membership, computed once per rule instead of once per
  // candidate pair.
  std::vector<char> kw_in_antecedent(n);
  std::vector<char> kw_in_consequent(n);
  for (std::size_t i = 0; i < n; ++i) {
    kw_in_antecedent[i] =
        contains(rules(i).antecedent, keyword) ? char{1} : char{0};
    kw_in_consequent[i] =
        contains(rules(i).consequent, keyword) ? char{1} : char{0};
  }

  // Conditions 1 and 4 compare rules with identical consequents;
  // conditions 2 and 3 compare rules with identical antecedents. Bucket
  // by the shared side, keyed additionally by keyword relevance: a rule
  // that holds the keyword on neither side can neither fire nor suffer
  // any condition, so it never enters a bucket (and passes through, as
  // the header contract promises). This takes the pass from O(n^2) over
  // all rules to the sum of bucket^2 over keyword-relevant buckets.
  BucketMap by_consequent;
  BucketMap by_antecedent;
  for (std::size_t i = 0; i < n; ++i) {
    if (kw_in_consequent[i] != 0 || kw_in_antecedent[i] != 0) {
      by_consequent[rules(i).consequent].push_back(i);
      by_antecedent[rules(i).antecedent].push_back(i);
    }
  }

  std::size_t max_bucket = 0;
  std::size_t pair_comparisons = 0;

  // Walks one bucket: orders its rules by the length of the nested side
  // (`nested` selects it), then subset-tests each rule only against the
  // strictly longer ones — equal lengths can never nest, and the ordered
  // scan visits exactly the (shorter, longer) pairs the old all-pairs
  // loop found. `apply(i, j)` receives a nested pair. The scan reads
  // each nested side's length and a one-bit-per-item (id mod 64)
  // signature from flat arrays: a ⊂ b needs every bit of a set in b, so
  // most non-nested pairs are rejected without reading either itemset.
  std::vector<std::size_t> lengths;
  std::vector<std::uint64_t> signatures;
  auto scan_bucket = [&](std::vector<std::size_t>& bucket,
                         const Itemset Rule::* nested, auto&& apply) {
    max_bucket = std::max(max_bucket, bucket.size());
    if (bucket.size() < 2) return;
    std::sort(bucket.begin(), bucket.end(),
              [&](std::size_t x, std::size_t y) {
                return (rules(x).*nested).size() < (rules(y).*nested).size();
              });
    lengths.clear();
    signatures.clear();
    for (const std::size_t i : bucket) {
      const Itemset& side = rules(i).*nested;
      std::uint64_t bits = 0;
      for (const ItemId item : side) bits |= std::uint64_t{1} << (item % 64);
      lengths.push_back(side.size());
      signatures.push_back(bits);
    }
    std::size_t longer = 0;  // first position with a longer nested side
    for (std::size_t p = 0; p < bucket.size(); ++p) {
      while (longer < bucket.size() && lengths[longer] <= lengths[p]) {
        ++longer;
      }
      for (std::size_t q = longer; q < bucket.size(); ++q) {
        ++pair_comparisons;
        if ((signatures[p] & ~signatures[q]) != 0) continue;
        const std::size_t i = bucket[p];  // shorter rule
        const std::size_t j = bucket[q];  // longer rule
        if (!is_subset(rules(i).*nested, rules(j).*nested)) continue;
        apply(i, j);
      }
    }
  };

  // Same consequent, nested antecedents: Conditions 1 and 4.
  for (auto& [consequent, bucket] : by_consequent) {
    const bool kw_in_shared = contains(consequent, keyword);
    scan_bucket(bucket, &Rule::antecedent, [&](std::size_t i, std::size_t j) {
      const Rule& a = rules(i);  // shorter antecedent
      const Rule& b = rules(j);  // longer antecedent

      // Condition 1: cause analysis, keyword in the shared consequent.
      if (kw_in_shared) {
        if (cl * a.lift >= b.lift) {
          mark(j, 1);  // shorter rule generalizes: drop the longer one
        } else if (cs * b.support >= a.support) {
          mark(i, 1);  // longer rule is stronger and well supported
        }
      }

      // Condition 4: characteristic analysis, keyword in both
      // antecedents.
      if (kw_in_antecedent[i] != 0 && kw_in_antecedent[j] != 0) {
        if (cl * a.lift >= b.lift) {
          mark(j, 4);  // shorter antecedent generalizes
        }
      }
    });
  }

  // Same antecedent, nested consequents: Conditions 2 and 3.
  for (auto& [antecedent, bucket] : by_antecedent) {
    const bool kw_in_shared = contains(antecedent, keyword);
    scan_bucket(bucket, &Rule::consequent, [&](std::size_t i, std::size_t j) {
      const Rule& a = rules(i);  // shorter consequent
      const Rule& b = rules(j);  // longer consequent

      // Condition 2: characteristic analysis, keyword in the shared
      // antecedent.
      if (kw_in_shared) {
        if (cl * b.lift >= a.lift && cs * b.support >= a.support) {
          mark(i, 2);  // specific consequent is nearly as strong
        } else if (cl * b.lift < a.lift) {
          mark(j, 2);  // shorter rule clearly stronger
        }
      }

      // Condition 3: cause analysis, keyword in both consequents.
      if (kw_in_consequent[i] != 0 && kw_in_consequent[j] != 0) {
        if (cl * a.lift >= b.lift) {
          mark(j, 3);  // concise consequent suffices for cause analysis
        }
      }
    });
  }

  std::vector<Rule> survivors;
  for (std::size_t i = 0; i < n; ++i) {
    if (!pruned[i]) survivors.push_back(rules(i));
  }
  sort_rules(survivors);

  if (stats != nullptr) {
    stats->input = n;
    stats->kept = survivors.size();
    stats->pruned_by = by;
    stats->num_buckets = by_consequent.size() + by_antecedent.size();
    stats->max_bucket = max_bucket;
    stats->pair_comparisons = pair_comparisons;
  }
  return survivors;
}

std::vector<Rule> prune_rules(const std::vector<Rule>& rules, ItemId keyword,
                              const PruneParams& params, PruneStats* stats) {
  std::vector<std::size_t> all(rules.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  return prune_rules(rules, all, keyword, params, stats);
}

}  // namespace gpumine::core
