// Thread-count independence of the work-stealing FP-Growth: whatever the
// scheduler width, spawn cutoff, or steal order, the sorted itemset list
// must be byte-identical, and the serial reference must be exactly the
// frequent family. Runs on encoded synthetic PAI and Philly
// transactions — the paper's actual workload shape, not just unit-level
// random databases — to guard the recursive task spawning.
#include <gtest/gtest.h>

#include <cstddef>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/trace_configs.hpp"
#include "analysis/workflow.hpp"
#include "core/fpgrowth.hpp"
#include "core/serialize.hpp"
#include "mining_test_util.hpp"
#include "synth/pai.hpp"
#include "synth/philly.hpp"

namespace gpumine::core {
namespace {

// Byte-level equality: serialize both results through the archive writer
// so every item id and count participates in the comparison.
std::string archive_bytes(const MiningResult& result,
                          const ItemCatalog& catalog) {
  std::ostringstream out;
  save_mining_result(result, catalog, out);
  return out.str();
}

void expect_identical(const MiningResult& a, const MiningResult& b,
                      const ItemCatalog& catalog, const char* label) {
  EXPECT_EQ(archive_bytes(a, catalog), archive_bytes(b, catalog)) << label;
}

struct EncodedTrace {
  TransactionDb db;
  ItemCatalog catalog;
};

EncodedTrace encoded_pai() {
  synth::PaiConfig config;
  config.num_jobs = 4000;
  const auto prepared = analysis::prepare(synth::generate_pai(config).merged(),
                                          analysis::pai_config());
  return {prepared.db, prepared.catalog};
}

EncodedTrace encoded_philly() {
  synth::PhillyConfig config;
  config.num_jobs = 4000;
  const auto prepared = analysis::prepare(
      synth::generate_philly(config).merged(), analysis::philly_config());
  return {prepared.db, prepared.catalog};
}

void check_thread_counts(const EncodedTrace& trace, const char* label) {
  MiningParams base;
  base.min_support = 0.05;
  base.max_length = 5;
  base.num_threads = 1;
  base.serial_cutoff_items = 0;  // small fixture: force the parallel path
  const auto reference = mine_fpgrowth(trace.db, base);
  ASSERT_FALSE(reference.itemsets.empty()) << label;
  testutil::expect_exact_frequent_set(trace.db, base, reference);

  for (std::size_t threads : {2u, 8u}) {
    MiningParams params = base;
    params.num_threads = threads;
    expect_identical(reference, mine_fpgrowth(trace.db, params),
                     trace.catalog, label);
  }

  // An aggressive cutoff maximizes spawning (and thus stealing); the
  // result must still not move.
  MiningParams aggressive = base;
  aggressive.num_threads = 8;
  aggressive.spawn_cutoff_nodes = 2;
  expect_identical(reference, mine_fpgrowth(trace.db, aggressive),
                   trace.catalog, label);
}

TEST(MiningDeterminism, FpGrowthThreadCountInvariantOnPai) {
  check_thread_counts(encoded_pai(), "pai");
}

TEST(MiningDeterminism, FpGrowthThreadCountInvariantOnPhilly) {
  check_thread_counts(encoded_philly(), "philly");
}

TEST(MiningDeterminism, ParallelRunReportsSchedulerMetrics) {
  const auto trace = encoded_pai();
  MiningParams params;
  params.num_threads = 4;
  params.spawn_cutoff_nodes = 2;
  params.serial_cutoff_items = 0;  // small fixture: force the parallel path
  const auto result = mine_fpgrowth(trace.db, params);
  EXPECT_EQ(result.metrics.num_workers, 4u);
  EXPECT_GT(result.metrics.tasks_spawned, 0u);
  EXPECT_FALSE(result.metrics.depth_histogram.empty());
  EXPECT_GT(result.metrics.wall_seconds, 0.0);
  EXPECT_EQ(result.metrics.worker_busy_seconds.size(), 4u);
}

}  // namespace
}  // namespace gpumine::core
