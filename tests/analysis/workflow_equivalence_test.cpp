// End-to-end engine independence: the entire workflow — preprocessing,
// mining, rule generation, keyword pruning — must produce identical rule
// tables whichever mining engine drives it (direct FP-Growth or two-pass
// SON), on a realistic trace (not just the unit-level random databases),
// and the mined itemsets must be exactly the frequent family.
#include <gtest/gtest.h>

#include "analysis/report.hpp"
#include "analysis/trace_configs.hpp"
#include "analysis/workflow.hpp"
#include "core/mining_test_util.hpp"
#include "core/partitioned.hpp"
#include "synth/philly.hpp"

namespace gpumine::analysis {
namespace {

TEST(WorkflowEquivalence, SameRulesForEveryAlgorithm) {
  synth::PhillyConfig trace_cfg;
  trace_cfg.num_jobs = 6000;
  const auto trace = synth::generate_philly(trace_cfg);

  auto render = [&](MiningEngine engine) {
    WorkflowConfig config = philly_config();
    config.engine = engine;
    auto mined = mine(trace.merged(), config);
    core::testutil::expect_exact_frequent_set(mined.prepared.db, config.mining,
                                              mined.mined);
    const auto a = analyze(mined, "Failed", config);
    RuleTableOptions options;
    options.max_cause = 50;
    options.max_characteristic = 50;
    return render_rule_table(a, mined.prepared.catalog, options);
  };

  const std::string direct = render(MiningEngine::kDirect);
  EXPECT_NE(direct.find("Failed"), std::string::npos);
  EXPECT_EQ(direct, render(MiningEngine::kSon));
}

TEST(WorkflowEquivalence, PartitionedMiningMatchesAtWorkflowScale) {
  synth::PhillyConfig trace_cfg;
  trace_cfg.num_jobs = 6000;
  const auto trace = synth::generate_philly(trace_cfg);
  const WorkflowConfig config = philly_config();
  auto prepared = prepare(trace.merged(), config);

  const auto direct = core::mine_frequent(prepared.db, config.mining);
  core::PartitionedParams son;
  son.mining = config.mining;
  son.num_partitions = 5;
  const auto partitioned = core::mine_partitioned(prepared.db, son);
  ASSERT_EQ(direct.itemsets.size(), partitioned.itemsets.size());
  for (std::size_t i = 0; i < direct.itemsets.size(); ++i) {
    EXPECT_EQ(direct.itemsets[i].items, partitioned.itemsets[i].items);
    EXPECT_EQ(direct.itemsets[i].count, partitioned.itemsets[i].count);
  }
}

}  // namespace
}  // namespace gpumine::analysis
