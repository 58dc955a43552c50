// End-to-end kernel equivalence: the adaptive tid-set machinery —
// representations, dispatch tiers, fused weights — must be invisible in
// mining output. SON pass 2, the one engine that sits on the kernel
// layer, is swept across every supported kernel tier and several thread
// counts on the three studied synthetic traces, and each run must
// reproduce the serial FP-Growth reference exactly: same itemsets, same
// exact weighted counts, same order. The reference itself is checked
// against the frequent-itemset definition first.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/trace_configs.hpp"
#include "analysis/workflow.hpp"
#include "common/simd.hpp"
#include "core/fpgrowth.hpp"
#include "core/partitioned.hpp"
#include "mining_test_util.hpp"
#include "synth/pai.hpp"
#include "synth/philly.hpp"
#include "synth/supercloud.hpp"

namespace gpumine::core {
namespace {

/// Scoped kernel-tier override; restores detection on destruction so a
/// failing test cannot leak its tier into the rest of the binary.
class ScopedTier {
 public:
  explicit ScopedTier(KernelTier tier) { force_kernel_tier(tier); }
  ~ScopedTier() { clear_forced_kernel_tier(); }
  ScopedTier(const ScopedTier&) = delete;
  ScopedTier& operator=(const ScopedTier&) = delete;
};

std::vector<KernelTier> supported_tiers() {
  std::vector<KernelTier> tiers;
  for (const KernelTier t :
       {KernelTier::kScalar, KernelTier::kWord, KernelTier::kAvx2}) {
    if (kernel_tier_supported(t)) tiers.push_back(t);
  }
  return tiers;
}

struct TraceCase {
  std::string name;
  TransactionDb db;
  MiningParams mining;
};

std::vector<TraceCase> studied_traces() {
  std::vector<TraceCase> cases;
  {
    synth::PaiConfig cfg;
    cfg.num_jobs = 1200;
    const auto prepared = analysis::prepare(synth::generate_pai(cfg).merged(),
                                            analysis::pai_config());
    cases.push_back({"PAI", prepared.db, analysis::pai_config().mining});
  }
  {
    synth::PhillyConfig cfg;
    cfg.num_jobs = 1000;
    const auto prepared = analysis::prepare(
        synth::generate_philly(cfg).merged(), analysis::philly_config());
    cases.push_back({"Philly", prepared.db, analysis::philly_config().mining});
  }
  {
    synth::SuperCloudConfig cfg;
    cfg.num_jobs = 1000;
    const auto prepared =
        analysis::prepare(synth::generate_supercloud(cfg).merged(),
                          analysis::supercloud_config());
    cases.push_back(
        {"SuperCloud", prepared.db, analysis::supercloud_config().mining});
  }
  for (auto& c : cases) c.mining.num_threads = 1;
  return cases;
}

TEST(KernelEquivalence, SonPass2MatchesDirectAcrossTiers) {
  for (const TraceCase& tc : studied_traces()) {
    const auto reference = mine_fpgrowth(tc.db, tc.mining);
    testutil::expect_exact_frequent_set(tc.db, tc.mining, reference);
    for (const KernelTier tier : supported_tiers()) {
      const ScopedTier guard(tier);
      for (const std::size_t threads : {1u, 8u}) {
        PartitionedParams params;
        params.mining = tc.mining;
        params.num_partitions = 4;
        params.num_threads = threads;
        const auto son = mine_partitioned(tc.db, params);
        SCOPED_TRACE(tc.name + " tier=" + kernel_tier_name(tier) +
                     " threads=" + std::to_string(threads));
        testutil::expect_same(son.itemsets, reference.itemsets);
        EXPECT_EQ(son.metrics.kernel_stage.tier, kernel_tier_name(tier));
      }
    }
  }
}

TEST(KernelEquivalence, KernelMetricsSurfaceInSonStats) {
  const auto tc = studied_traces().front();
  PartitionedParams params;
  params.mining = tc.mining;
  params.num_threads = 1;
  const auto mined = mine_partitioned(tc.db, params);
  const KernelMetrics& k = mined.metrics.kernel_stage;
  ASSERT_TRUE(k.populated());
  EXPECT_FALSE(k.tier.empty());
  EXPECT_GT(k.sparse_sets_built + k.dense_sets_built, 0u);
  EXPECT_NE(mined.metrics.to_json().find("\"kernel_stage\""),
            std::string::npos);
  EXPECT_NE(mined.metrics.summary().find("kernel stage"), std::string::npos);
}

}  // namespace
}  // namespace gpumine::core
