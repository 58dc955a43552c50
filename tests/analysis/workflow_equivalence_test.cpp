// End-to-end workflow check on a realistic trace (not just the
// unit-level random databases): preprocessing and deduplicated mining
// yield exactly the frequent family of the prepared rows, and rule
// generation plus keyword pruning render the keyword's rule table.
#include <gtest/gtest.h>

#include "analysis/report.hpp"
#include "analysis/trace_configs.hpp"
#include "analysis/workflow.hpp"
#include "core/mining_test_util.hpp"
#include "synth/philly.hpp"

namespace gpumine::analysis {
namespace {

TEST(WorkflowEquivalence, SameRulesForEveryAlgorithm) {
  synth::PhillyConfig trace_cfg;
  trace_cfg.num_jobs = 6000;
  const auto trace = synth::generate_philly(trace_cfg);

  const WorkflowConfig config = philly_config();
  auto mined = mine(trace.merged(), config);
  core::testutil::expect_exact_frequent_set(mined.prepared.db, config.mining,
                                            mined.mined);
  const auto a = analyze(mined, "Failed", config);
  RuleTableOptions options;
  options.max_cause = 50;
  options.max_characteristic = 50;
  const std::string table =
      render_rule_table(a, mined.prepared.catalog, options);
  EXPECT_NE(table.find("Failed"), std::string::npos);
}

}  // namespace
}  // namespace gpumine::analysis
