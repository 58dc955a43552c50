// Exactness of the arena-allocated flat FP-tree layout on the three
// studied synthetic traces — PAI, Philly, SuperCloud — where the
// brute-force oracle's 2^n subsets per row are out of reach. At 1, 2
// and 8 threads the mined family must pass the definition-level check
// (every itemset's support recounted from per-item row bitsets, plus
// closure under frequent one-item extensions), and the multi-threaded
// archives must match the serial one byte for byte. Also asserts the
// arena observability the layout adds.
#include <gtest/gtest.h>

#include <cstddef>
#include <sstream>
#include <string>

#include "analysis/trace_configs.hpp"
#include "analysis/workflow.hpp"
#include "core/fpgrowth.hpp"
#include "core/serialize.hpp"
#include "mining_test_util.hpp"
#include "synth/pai.hpp"
#include "synth/philly.hpp"
#include "synth/supercloud.hpp"

namespace gpumine::core {
namespace {

std::string archive_bytes(const MiningResult& result,
                          const ItemCatalog& catalog) {
  std::ostringstream out;
  save_mining_result(result, catalog, out);
  return out.str();
}

struct EncodedTrace {
  TransactionDb db;
  ItemCatalog catalog;
};

// FP-Growth at 1, 2 and 8 threads must mine exactly the frequent family
// and produce identical archives (which carry every item id and count).
void check_exact(const EncodedTrace& trace, const char* label) {
  MiningParams base;
  base.min_support = 0.05;
  base.max_length = 5;
  base.num_threads = 1;
  const auto serial = mine_fpgrowth(trace.db, base);
  ASSERT_FALSE(serial.itemsets.empty()) << label;
  const std::string expected = archive_bytes(serial, trace.catalog);

  for (std::size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(std::string(label) + " threads=" + std::to_string(threads));
    MiningParams params = base;
    params.num_threads = threads;
    const auto mined = mine_fpgrowth(trace.db, params);
    testutil::expect_exact_frequent_set(trace.db, params, mined);
    EXPECT_EQ(archive_bytes(mined, trace.catalog), expected);
  }
}

TEST(FpGrowthEquivalence, ExactFrequentSetOnPai) {
  synth::PaiConfig config;
  config.num_jobs = 2500;
  const auto prepared = analysis::prepare(synth::generate_pai(config).merged(),
                                          analysis::pai_config());
  check_exact({prepared.db, prepared.catalog}, "pai");
}

TEST(FpGrowthEquivalence, ExactFrequentSetOnPhilly) {
  synth::PhillyConfig config;
  config.num_jobs = 2500;
  const auto prepared = analysis::prepare(
      synth::generate_philly(config).merged(), analysis::philly_config());
  check_exact({prepared.db, prepared.catalog}, "philly");
}

TEST(FpGrowthEquivalence, ExactFrequentSetOnSupercloud) {
  synth::SuperCloudConfig config;
  config.num_jobs = 2500;
  const auto prepared =
      analysis::prepare(synth::generate_supercloud(config).merged(),
                        analysis::supercloud_config());
  check_exact({prepared.db, prepared.catalog}, "supercloud");
}

TEST(FpGrowthEquivalence, ReportsArenaMetrics) {
  synth::PaiConfig config;
  config.num_jobs = 2500;
  const auto prepared = analysis::prepare(synth::generate_pai(config).merged(),
                                          analysis::pai_config());
  MiningParams params;
  params.num_threads = 1;
  const auto mined = mine_fpgrowth(prepared.db, params);
  EXPECT_GT(mined.metrics.arena_bytes_allocated, 0u);
  EXPECT_GT(mined.metrics.arena_bytes_reused, 0u)
      << "conditional trees must recycle arenas, not allocate fresh ones";
  EXPECT_GE(mined.metrics.peak_arena_bytes,
            mined.metrics.arena_bytes_allocated);
  EXPECT_GT(mined.metrics.peak_tree_nodes, 0u);
  EXPECT_GT(mined.metrics.child_probe_count, 0u);
}

}  // namespace
}  // namespace gpumine::core
