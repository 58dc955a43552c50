#include "serve/query_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "analysis/export.hpp"
#include "analysis/workflow.hpp"
#include "core/miner.hpp"
#include "serve_test_util.hpp"
#include "synth/pai.hpp"
#include "synth/philly.hpp"
#include "synth/supercloud.hpp"

namespace gpumine::serve {
namespace {

// A snapshot made the way `gpumine snapshot --csv` makes one with its
// default flags: every numeric column binned, job ids dropped. User and
// group names stay items, so most of the vocabulary has no rule.
core::RuleSnapshot trace_snapshot(prep::Table table) {
  analysis::WorkflowConfig config;
  config.drop_columns = {"job_id"};
  for (std::size_t c = 0; c < table.num_columns(); ++c) {
    const std::string& name = table.column_name(c);
    if (table.is_numeric(name)) {
      config.binnings.push_back({name, prep::BinningParams{}});
    }
  }
  analysis::MinedTrace mined = analysis::mine(std::move(table), config);
  return core::build_rule_snapshot(std::move(mined.mined),
                                   std::move(mined.prepared.catalog),
                                   config.rules, config.pruning);
}

// The engine's contract: query(name) returns exactly what the one-shot
// pipeline (core::analyze_keyword) computes for that keyword — same
// rules, same doubles, same order, same JSON bytes — at every build
// width.
TEST(QueryEngine, MatchesAnalyzeKeywordForEveryItem) {
  synth::PaiConfig pai;
  pai.num_jobs = 800;
  synth::PhillyConfig philly;
  philly.num_jobs = 1000;
  synth::SuperCloudConfig supercloud;
  supercloud.num_jobs = 1000;
  const std::vector<std::pair<std::string, core::RuleSnapshot>> snapshots = {
      {"fixture", testutil::snapshot_fixture()},
      {"pai", trace_snapshot(synth::generate_pai(pai).merged())},
      {"philly", trace_snapshot(synth::generate_philly(philly).merged())},
      {"supercloud",
       trace_snapshot(synth::generate_supercloud(supercloud).merged())},
  };

  const auto expect_rules_eq = [](const std::vector<core::Rule>& a,
                                  const std::vector<core::Rule>& b,
                                  const std::string& where) {
    ASSERT_EQ(a.size(), b.size()) << where;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].antecedent, b[i].antecedent) << where;
      EXPECT_EQ(a[i].consequent, b[i].consequent) << where;
      EXPECT_EQ(a[i].count, b[i].count) << where;
      EXPECT_EQ(a[i].support, b[i].support) << where;
      EXPECT_EQ(a[i].confidence, b[i].confidence) << where;
      EXPECT_EQ(a[i].lift, b[i].lift) << where;
      EXPECT_EQ(a[i].leverage, b[i].leverage) << where;
      EXPECT_EQ(a[i].conviction, b[i].conviction) << where;
    }
  };
  for (const auto& [trace, snapshot] : snapshots) {
    const core::SupportIndex index(snapshot.result);
    std::vector<core::KeywordAnalysis> expected;
    for (core::ItemId id = 0; id < snapshot.catalog.size(); ++id) {
      expected.push_back(core::analyze_keyword(snapshot.result, index, id,
                                               snapshot.rule_params,
                                               snapshot.prune_params));
    }
    const std::size_t widths[] = {1, 2, 4};
    for (const std::size_t width : widths) {
      const QueryEngine engine(snapshot, width);
      std::size_t with_rules = 0;
      for (core::ItemId id = 0; id < snapshot.catalog.size(); ++id) {
        const std::string& name = snapshot.catalog.name(id);
        const std::string where =
            trace + " width " + std::to_string(width) + ": " + name;
        const core::KeywordAnalysis* got = engine.query(name);
        ASSERT_NE(got, nullptr) << where;
        expect_rules_eq(got->cause, expected[id].cause, where);
        expect_rules_eq(got->characteristic, expected[id].characteristic,
                        where);
        EXPECT_EQ(got->prune_stats.input, expected[id].prune_stats.input)
            << where;
        EXPECT_EQ(got->prune_stats.kept, expected[id].prune_stats.kept)
            << where;
        EXPECT_EQ(*engine.query_json(name),
                  analysis::rules_to_json(expected[id], snapshot.catalog))
            << where;
        if (expected[id].prune_stats.kept > 0) ++with_rules;
      }
      EXPECT_EQ(engine.num_keywords_with_rules(), with_rules) << trace;
    }
  }
}

TEST(QueryEngine, JsonIsPreRenderedExportOutput) {
  const core::RuleSnapshot snapshot = testutil::snapshot_fixture();
  const QueryEngine engine(snapshot);
  for (core::ItemId id = 0; id < snapshot.catalog.size(); ++id) {
    const std::string& name = snapshot.catalog.name(id);
    const std::string* json = engine.query_json(name);
    ASSERT_NE(json, nullptr);
    EXPECT_EQ(*json,
              analysis::rules_to_json(*engine.query(name), engine.catalog()));
  }
}

TEST(QueryEngine, UnknownKeywordReturnsNull) {
  const QueryEngine engine(testutil::snapshot_fixture());
  EXPECT_EQ(engine.query("no such item"), nullptr);
  EXPECT_EQ(engine.query_json(""), nullptr);
}

TEST(QueryEngine, SupportProbes) {
  const core::RuleSnapshot snapshot = testutil::snapshot_fixture();
  const QueryEngine engine(snapshot);

  // Every stored frequent itemset must be found with its exact count.
  for (const core::FrequentItemset& fi : snapshot.result.itemsets) {
    std::vector<std::string> names;
    for (const core::ItemId id : fi.items) {
      names.push_back(snapshot.catalog.name(id));
    }
    const auto count = engine.support_count(names);
    ASSERT_TRUE(count.has_value());
    EXPECT_EQ(*count, fi.count);
    // Order must not matter: the engine canonicalizes.
    std::reverse(names.begin(), names.end());
    EXPECT_EQ(engine.support_count(names), count);
  }

  EXPECT_FALSE(engine.support_count({"no such item"}).has_value());
  EXPECT_FALSE(engine.support_count({}).has_value());
}

TEST(QueryEngine, ShapeAccessors) {
  const core::RuleSnapshot snapshot = testutil::snapshot_fixture();
  const QueryEngine engine(snapshot);
  EXPECT_EQ(engine.db_size(), snapshot.result.db_size);
  EXPECT_EQ(engine.num_itemsets(), snapshot.result.itemsets.size());
  EXPECT_EQ(engine.num_rules(), snapshot.rules.size());
  EXPECT_GT(engine.num_keywords_with_rules(), 0u);
  EXPECT_LE(engine.num_keywords_with_rules(), snapshot.catalog.size());
  const auto names = engine.keyword_names();
  ASSERT_EQ(names.size(), snapshot.catalog.size());
  for (core::ItemId id = 0; id < snapshot.catalog.size(); ++id) {
    EXPECT_EQ(names[id], snapshot.catalog.name(id));
  }
}

}  // namespace
}  // namespace gpumine::serve
