// Tests for the four keyword pruning conditions of Sec. III-D.
//
// Rules are built with exact counts so lift/support land on chosen
// values; the keyword item is 9 throughout. C_lift = C_supp = 1.5
// (the paper's setting) unless stated.
#include "core/pruning.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "core/fpgrowth.hpp"
#include "mining_test_util.hpp"

namespace gpumine::core {
namespace {

constexpr ItemId kKeyword = 9;
constexpr std::uint64_t kN = 1000;

Rule rule(Itemset x, Itemset y, std::uint64_t joint, std::uint64_t sx,
          std::uint64_t sy) {
  return make_rule(std::move(x), std::move(y), joint, sx, sy, kN);
}

bool survives(const std::vector<Rule>& out, const Itemset& x,
              const Itemset& y) {
  return std::any_of(out.begin(), out.end(), [&](const Rule& r) {
    return r.antecedent == x && r.consequent == y;
  });
}

// ---- Condition 1: cause analysis, nested antecedents, shared consequent.

TEST(PruneCondition1, ShorterRuleGeneralizesDropLonger) {
  // lift(R1) = 1.5, lift(R2) = 1.5: C_lift * lift(R1) >= lift(R2).
  const std::vector<Rule> rules = {
      rule({1}, {kKeyword}, 30, 100, 200),     // R1: conf .3, lift 1.5
      rule({1, 2}, {kKeyword}, 15, 50, 200),   // R2: conf .3, lift 1.5
  };
  const auto out = prune_rules(rules, kKeyword, PruneParams{});
  EXPECT_TRUE(survives(out, {1}, {kKeyword}));
  EXPECT_FALSE(survives(out, {1, 2}, {kKeyword}));
}

TEST(PruneCondition1, LongerRuleStrongerAndSupportedDropShorter) {
  // lift(R2) = 2.5 > 1.5 * lift(R1) = 2.25; supp(R2)*1.5 >= supp(R1).
  const std::vector<Rule> rules = {
      rule({1}, {kKeyword}, 30, 100, 200),    // R1: lift 1.5, supp .030
      rule({1, 2}, {kKeyword}, 25, 50, 200),  // R2: lift 2.5, supp .025
  };
  const auto out = prune_rules(rules, kKeyword, PruneParams{});
  EXPECT_FALSE(survives(out, {1}, {kKeyword}));
  EXPECT_TRUE(survives(out, {1, 2}, {kKeyword}));
}

TEST(PruneCondition1, StrongButRareLongerRuleKeepsBoth) {
  // lift(R2) beats the slack but its support is too small to oust R1.
  const std::vector<Rule> rules = {
      rule({1}, {kKeyword}, 30, 100, 200),    // R1: lift 1.5, supp .030
      rule({1, 2}, {kKeyword}, 15, 30, 200),  // R2: lift 2.5, supp .015
  };
  const auto out = prune_rules(rules, kKeyword, PruneParams{});
  EXPECT_TRUE(survives(out, {1}, {kKeyword}));
  EXPECT_TRUE(survives(out, {1, 2}, {kKeyword}));
}

TEST(PruneCondition1, RequiresSharedConsequent) {
  const std::vector<Rule> rules = {
      rule({1}, {kKeyword}, 30, 100, 200),
      rule({1, 2}, {3, kKeyword}, 15, 50, 100),  // different consequent
  };
  const auto out = prune_rules(rules, kKeyword, PruneParams{});
  EXPECT_EQ(out.size(), 2u);
}

// ---- Condition 2: characteristic analysis, shared antecedent with the
// keyword, nested consequents.

TEST(PruneCondition2, SpecificConsequentPreferredWhenClose) {
  // lifts equal, supports equal-ish: the longer consequent wins.
  const std::vector<Rule> rules = {
      rule({kKeyword}, {1}, 60, 100, 300),     // R1: lift 2.0, supp .06
      rule({kKeyword}, {1, 2}, 50, 100, 250),  // R2: lift 2.0, supp .05
  };
  const auto out = prune_rules(rules, kKeyword, PruneParams{});
  EXPECT_FALSE(survives(out, {kKeyword}, {1}));
  EXPECT_TRUE(survives(out, {kKeyword}, {1, 2}));
}

TEST(PruneCondition2, ShortRuleClearlyStrongerDropsLongOne) {
  // lift(R1) = 3.0 > 1.5 * lift(R2) = 1.5 * 1.6 = 2.4.
  const std::vector<Rule> rules = {
      rule({kKeyword}, {1}, 90, 100, 300),     // R1: conf .9, lift 3.0
      rule({kKeyword}, {1, 2}, 40, 100, 250),  // R2: conf .4, lift 1.6
  };
  const auto out = prune_rules(rules, kKeyword, PruneParams{});
  EXPECT_TRUE(survives(out, {kKeyword}, {1}));
  EXPECT_FALSE(survives(out, {kKeyword}, {1, 2}));
}

TEST(PruneCondition2, MiddleGroundKeepsBoth) {
  // lift close (no prune of long) but support of the long rule too low
  // to oust the short one.
  const std::vector<Rule> rules = {
      rule({kKeyword}, {1}, 90, 100, 300),     // lift 3.0, supp .090
      rule({kKeyword}, {1, 2}, 25, 100, 100),  // lift 2.5, supp .025
  };
  const auto out = prune_rules(rules, kKeyword, PruneParams{});
  EXPECT_EQ(out.size(), 2u);
}

// ---- Condition 3: cause analysis, nested consequents both holding the
// keyword, shared antecedent.

TEST(PruneCondition3, ConciseConsequentWins) {
  const std::vector<Rule> rules = {
      rule({1}, {kKeyword}, 60, 100, 300),     // lift 2.0
      rule({1}, {2, kKeyword}, 50, 100, 250),  // lift 2.0
  };
  const auto out = prune_rules(rules, kKeyword, PruneParams{});
  EXPECT_TRUE(survives(out, {1}, {kKeyword}));
  EXPECT_FALSE(survives(out, {1}, {2, kKeyword}));
}

TEST(PruneCondition3, LongerKeptWhenClearlyStronger) {
  // lift(R2) = 3.2 > 1.5 * lift(R1) = 3.0: no prune from condition 3.
  // (Condition 2 does not apply: keyword not in the antecedent.)
  const std::vector<Rule> rules = {
      rule({1}, {kKeyword}, 60, 100, 300),     // lift 2.0
      rule({1}, {2, kKeyword}, 80, 100, 250),  // lift 3.2
  };
  const auto out = prune_rules(rules, kKeyword, PruneParams{});
  EXPECT_EQ(out.size(), 2u);
}

// ---- Condition 4: characteristic analysis, nested antecedents both
// holding the keyword, shared consequent.

TEST(PruneCondition4, ShorterAntecedentGeneralizes) {
  const std::vector<Rule> rules = {
      rule({kKeyword}, {1}, 60, 100, 300),     // lift 2.0
      rule({2, kKeyword}, {1}, 30, 50, 300),   // lift 2.0
  };
  const auto out = prune_rules(rules, kKeyword, PruneParams{});
  EXPECT_TRUE(survives(out, {kKeyword}, {1}));
  EXPECT_FALSE(survives(out, {2, kKeyword}, {1}));
}

TEST(PruneCondition4, LongerKeptWhenClearlyStronger) {
  const std::vector<Rule> rules = {
      rule({kKeyword}, {1}, 60, 100, 300),    // lift 2.0
      rule({2, kKeyword}, {1}, 50, 50, 300),  // lift ~3.33 > 1.5 * 2.0
  };
  const auto out = prune_rules(rules, kKeyword, PruneParams{});
  EXPECT_EQ(out.size(), 2u);
}

// ---- Cross-cutting behaviour.

TEST(PruneRules, RulesWithoutKeywordPassThrough) {
  const std::vector<Rule> rules = {
      rule({1}, {2}, 60, 100, 300),
      rule({1, 3}, {2}, 30, 50, 300),  // nested, but keyword absent
  };
  const auto out = prune_rules(rules, kKeyword, PruneParams{});
  EXPECT_EQ(out.size(), 2u);
}

TEST(PruneRules, OrderIndependence) {
  std::vector<Rule> rules = {
      rule({1}, {kKeyword}, 30, 100, 200),
      rule({1, 2}, {kKeyword}, 25, 50, 200),
      rule({1, 3}, {kKeyword}, 15, 50, 200),
      rule({kKeyword}, {4}, 60, 100, 300),
      rule({kKeyword}, {4, 5}, 50, 100, 250),
      rule({2}, {kKeyword}, 40, 120, 200),
  };
  const auto baseline = prune_rules(rules, kKeyword, PruneParams{});
  std::mt19937 shuffler(123);
  for (int trial = 0; trial < 10; ++trial) {
    std::shuffle(rules.begin(), rules.end(), shuffler);
    const auto out = prune_rules(rules, kKeyword, PruneParams{});
    ASSERT_EQ(out.size(), baseline.size()) << "trial " << trial;
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i].antecedent, baseline[i].antecedent);
      EXPECT_EQ(out[i].consequent, baseline[i].consequent);
    }
  }
}

// Scaled variant exercising the bucketed pass: four rule families (one
// per condition) built over every non-empty subset of a five-item pool,
// plus keyword-less pass-through rules — ~130 rules in dozens of
// buckets. The survivor set must not depend on input order, and the
// bucket stats must show the scan actually narrowed below all-pairs.
TEST(PruneRules, OrderIndependenceAtScaleBucketed) {
  std::mt19937 gen(7);
  auto count_between = [&](std::uint64_t lo, std::uint64_t hi) {
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(gen);
  };
  const std::vector<ItemId> pool = {1, 2, 3, 4, 5};
  std::vector<Rule> rules;
  for (std::uint32_t mask = 1; mask < (1u << pool.size()); ++mask) {
    Itemset side;
    for (std::size_t b = 0; b < pool.size(); ++b) {
      if ((mask >> b) & 1) side.push_back(pool[b]);
    }
    Itemset with_kw = side;
    with_kw.push_back(kKeyword);  // pool ids < kKeyword: stays canonical
    const std::uint64_t joint = count_between(10, 50);
    const std::uint64_t sx = count_between(60, 200);
    // Condition 1 family: nested antecedents, shared consequent {K}.
    rules.push_back(rule(side, {kKeyword}, joint, sx, 250));
    // Condition 4 family: nested antecedents holding K, shared {7}.
    rules.push_back(rule(with_kw, {7}, joint, sx, 300));
    // Condition 2 family: shared antecedent {K}, nested consequents.
    rules.push_back(rule({kKeyword}, side, joint, 220, sx));
    // Condition 3 family: shared antecedent {6}, nested consequents
    // holding K.
    rules.push_back(rule({6}, with_kw, joint, 180, sx));
    // Keyword-less pass-through (only for a few masks).
    if (mask % 8 == 0) rules.push_back(rule(side, {8}, joint, sx, 150));
  }

  PruneStats baseline_stats;
  const auto baseline =
      prune_rules(rules, kKeyword, PruneParams{}, &baseline_stats);
  EXPECT_GT(baseline_stats.num_buckets, 4u);
  EXPECT_GE(baseline_stats.max_bucket, 2u);
  EXPECT_GT(baseline_stats.pair_comparisons, 0u);
  // The bucketed scan must examine far fewer pairs than n * (n-1) / 2.
  const std::size_t n = rules.size();
  EXPECT_LT(baseline_stats.pair_comparisons, n * (n - 1) / 2);
  EXPECT_LT(baseline_stats.kept, baseline_stats.input);

  std::mt19937 shuffler(123);
  for (int trial = 0; trial < 10; ++trial) {
    std::shuffle(rules.begin(), rules.end(), shuffler);
    PruneStats stats;
    const auto out = prune_rules(rules, kKeyword, PruneParams{}, &stats);
    ASSERT_EQ(out.size(), baseline.size()) << "trial " << trial;
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i].antecedent, baseline[i].antecedent);
      EXPECT_EQ(out[i].consequent, baseline[i].consequent);
    }
    // Firing is order-independent, so the attribution counters are too.
    EXPECT_EQ(stats.pruned_by, baseline_stats.pruned_by)
        << "trial " << trial;
  }
}

// Pruning a keyword's slice through an index list over the shared rule
// list (the query engine's path) equals pruning a copy of that slice.
TEST(PruneRules, IndexSubsetMatchesCopiedSubset) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto db = testutil::random_db(seed, /*num_txns=*/150,
                                        /*num_items=*/8);
    MiningParams mp;
    mp.min_support = 0.05;
    RuleParams rp;
    rp.min_lift = 0.0;
    const auto all = generate_rules(mine_fpgrowth(db, mp), rp);
    for (ItemId k = 0; k < 8; ++k) {
      std::vector<std::size_t> subset;
      for (std::size_t i = 0; i < all.size(); ++i) {
        if (contains(all[i].antecedent, k) || contains(all[i].consequent, k)) {
          subset.push_back(i);
        }
      }
      PruneStats by_index;
      PruneStats by_copy;
      const auto got = prune_rules(all, subset, k, PruneParams{}, &by_index);
      const auto expected =
          prune_rules(filter_keyword(all, k), k, PruneParams{}, &by_copy);
      ASSERT_EQ(got.size(), expected.size()) << "seed " << seed;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].antecedent, expected[i].antecedent);
        EXPECT_EQ(got[i].consequent, expected[i].consequent);
      }
      EXPECT_EQ(by_index.input, by_copy.input);
      EXPECT_EQ(by_index.kept, by_copy.kept);
      EXPECT_EQ(by_index.pruned_by, by_copy.pruned_by);
      EXPECT_EQ(by_index.num_buckets, by_copy.num_buckets);
      EXPECT_EQ(by_index.pair_comparisons, by_copy.pair_comparisons);
    }
  }
}

TEST(PruneRules, StatsArePopulated) {
  const std::vector<Rule> rules = {
      rule({1}, {kKeyword}, 30, 100, 200),
      rule({1, 2}, {kKeyword}, 15, 50, 200),
  };
  PruneStats stats;
  const auto out = prune_rules(rules, kKeyword, PruneParams{}, &stats);
  EXPECT_EQ(stats.input, 2u);
  EXPECT_EQ(stats.kept, out.size());
  EXPECT_EQ(stats.kept, 1u);
  EXPECT_GE(stats.pruned_by[0], 1u);  // condition 1 fired
}

TEST(PruneRules, SlackFactorsChangeOutcomes) {
  // lift(R1) = 1.5, lift(R2) = 2.0. With C_lift = 1.5 the short rule
  // covers (2.25 >= 2.0, drop long); with C_lift = 1.0 it does not, and
  // the long one takes over on support.
  const std::vector<Rule> rules = {
      rule({1}, {kKeyword}, 30, 100, 200),    // lift 1.5, supp .030
      rule({1, 2}, {kKeyword}, 20, 50, 200),  // lift 2.0, supp .020
  };
  const auto relaxed = prune_rules(rules, kKeyword, PruneParams{1.5, 1.5});
  EXPECT_TRUE(survives(relaxed, {1}, {kKeyword}));
  EXPECT_FALSE(survives(relaxed, {1, 2}, {kKeyword}));

  const auto strict = prune_rules(rules, kKeyword, PruneParams{1.0, 1.5});
  EXPECT_FALSE(survives(strict, {1}, {kKeyword}));
  EXPECT_TRUE(survives(strict, {1, 2}, {kKeyword}));
}

TEST(PruneParams, Validation) {
  PruneParams bad;
  bad.c_lift = 0.9;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad.c_lift = 1.5;
  bad.c_supp = 0.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(FilterKeyword, BySide) {
  const std::vector<Rule> rules = {
      rule({kKeyword}, {1}, 60, 100, 300),
      rule({1}, {kKeyword}, 30, 100, 200),
      rule({1}, {2}, 30, 100, 200),
  };
  EXPECT_EQ(filter_keyword(rules, kKeyword).size(), 2u);
  EXPECT_EQ(
      filter_keyword(rules, kKeyword, KeywordSide::kAntecedent).size(), 1u);
  EXPECT_EQ(
      filter_keyword(rules, kKeyword, KeywordSide::kConsequent).size(), 1u);
}

}  // namespace
}  // namespace gpumine::core
