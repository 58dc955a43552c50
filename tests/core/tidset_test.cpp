// Kernel-layer unit tests: every TidOps operation against a
// std::set_intersection-style reference, across every kernel tier the
// build and machine support, over adversarial shapes — empty sets,
// singletons, word-boundary tids, all-dense and all-sparse universes,
// and weights large enough that a single dropped or double-counted
// element changes the 64-bit sum.
#include "core/tidset.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/arena.hpp"
#include "common/simd.hpp"
#include "trace/rng.hpp"

namespace gpumine::core {
namespace {

using U32s = std::vector<std::uint32_t>;
using U64s = std::vector<std::uint64_t>;

std::vector<KernelTier> supported_tiers() {
  std::vector<KernelTier> tiers;
  for (const KernelTier t :
       {KernelTier::kScalar, KernelTier::kWord, KernelTier::kAvx2}) {
    if (kernel_tier_supported(t)) tiers.push_back(t);
  }
  return tiers;
}

U32s ref_intersect(const U32s& a, const U32s& b) {
  U32s out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

std::uint64_t ref_weight(const U32s& tids, const U64s& weights) {
  std::uint64_t w = 0;
  for (const std::uint32_t t : tids) {
    w += weights.empty() ? 1 : weights[t];
  }
  return w;
}

/// Materializes a view back into a plain sorted list (kSparse/kDense).
U32s to_list(const TidSetView& v, std::uint32_t universe) {
  U32s out;
  if (v.rep == TidRep::kDense) {
    for (std::uint32_t t = 0; t < universe; ++t) {
      if ((v.words[t >> 6] >> (t & 63)) & 1) out.push_back(t);
    }
  } else {
    out.assign(v.tids.begin(), v.tids.end());
  }
  return out;
}

/// One universe under test: builds views in whatever representation the
/// density heuristic picks and checks every op against the reference.
struct Fixture {
  std::uint32_t universe;
  U64s weights;  // empty => unweighted
  TidOps ops;
  Arena arena;

  Fixture(std::uint32_t u, U64s w, KernelTier tier)
      : universe(u), weights(std::move(w)), ops(u, weights, tier) {}

  TidSetView make(const U32s& tids) {
    KernelCounters kc;
    return ops.build(tids, ref_weight(tids, weights), arena, kc);
  }

  void check_intersect(const U32s& a, const U32s& b) {
    const U32s expect = ref_intersect(a, b);
    KernelCounters kc;
    const TidSetView got =
        ops.intersect(make(a), make(b), arena, kc);
    EXPECT_EQ(to_list(got, universe), expect);
    EXPECT_EQ(got.num_tids, expect.size());
    EXPECT_EQ(got.count, ref_weight(expect, weights));
  }

};

U32s range(std::uint32_t begin, std::uint32_t end, std::uint32_t step = 1) {
  U32s out;
  for (std::uint32_t t = begin; t < end; t += step) out.push_back(t);
  return out;
}

TEST(TidSet, RepresentationFollowsDensityThreshold) {
  Fixture f(6400, {}, KernelTier::kScalar);
  // 100 * 64 == 6400: exactly at the break-even, dense.
  EXPECT_EQ(f.make(range(0, 100)).rep, TidRep::kDense);
  EXPECT_EQ(f.make(range(0, 99)).rep, TidRep::kSparse);
  EXPECT_EQ(f.make({}).rep, TidRep::kSparse);  // empty is never dense
}

TEST(TidSet, HugeUniverseStaysSparse) {
  // Universe at the uint32 ceiling: nothing short of a 67M-member set
  // is dense-worthy, so small sets must never trigger a bitmap
  // allocation (which would be 512 MiB here).
  Fixture f(0xffffffffu, {}, KernelTier::kScalar);
  const U32s a = {0, 1, 63, 64, 0xfffffffeu};
  const U32s b = {1, 64, 0xfffffffdu, 0xfffffffeu};
  EXPECT_EQ(f.make(a).rep, TidRep::kSparse);
  f.check_intersect(a, b);
}

TEST(TidSet, EmptyAndSingletonEdges) {
  for (const KernelTier tier : supported_tiers()) {
    Fixture f(256, {}, tier);
    f.check_intersect({}, {});
    f.check_intersect({}, range(0, 256));     // empty x dense
    f.check_intersect({7}, {});               // singleton x empty
    f.check_intersect({7}, {7});
    f.check_intersect({7}, {8});
    f.check_intersect({255}, range(0, 256));  // last tid of the universe
  }
}

TEST(TidSet, WordBoundaryTids) {
  // Members straddling 64-bit word edges, universe not a multiple of 64
  // (the tail word is partial): the classic off-by-one habitat.
  for (const KernelTier tier : supported_tiers()) {
    Fixture f(130, {}, tier);
    const U32s a = {0, 63, 64, 127, 128, 129};
    const U32s b = {63, 65, 127, 129};
    f.check_intersect(a, b);
    f.check_intersect(range(0, 130), a);  // dense x sparse
  }
}

TEST(TidSet, AllTiersMatchScalarOnDenseUniverse) {
  // Dense x dense drives the dispatched AND kernel; every tier must
  // produce the scalar tier's exact sets and counts.
  trace::Rng rng(7);
  const std::uint32_t universe = 1000;
  U64s weights;
  for (std::uint32_t t = 0; t < universe; ++t) {
    weights.push_back(rng.uniform_int(1, 9));
  }
  for (int round = 0; round < 8; ++round) {
    U32s a, b;
    for (std::uint32_t t = 0; t < universe; ++t) {
      if (rng.bernoulli(0.5)) a.push_back(t);
      if (rng.bernoulli(0.3)) b.push_back(t);
    }
    for (const KernelTier tier : supported_tiers()) {
      Fixture f(universe, weights, tier);
      ASSERT_EQ(f.make(a).rep, TidRep::kDense);
      f.check_intersect(a, b);
    }
  }
}

TEST(TidSet, DenseIntersectionDemotesToSparse) {
  // Two dense sets with a tiny overlap: the result must come back as a
  // sorted sparse list, not a nearly-empty bitmap.
  Fixture f(6400, {}, KernelTier::kScalar);
  U32s a = range(0, 3200);        // dense
  U32s b = range(3199, 6400);     // dense
  KernelCounters kc;
  const TidSetView got = f.ops.intersect(f.make(a), f.make(b), f.arena, kc);
  EXPECT_EQ(got.rep, TidRep::kSparse);
  EXPECT_EQ(to_list(got, f.universe), U32s{3199});
  EXPECT_EQ(kc.dense_intersections, 1u);
}

TEST(TidSet, WeightsNearOverflowStayExact) {
  // Four transactions weighted near 2^61: the fused sums sit close to
  // the uint64 ceiling, where any double-count wraps and any drop is
  // off by an astronomical amount.
  const std::uint64_t big = 1ull << 61;
  Fixture f(4, {big, big - 1, big - 2, big - 3}, KernelTier::kScalar);
  f.check_intersect({0, 1, 2, 3}, {0, 1, 2});
  EXPECT_EQ(f.make({0, 1, 2, 3}).count, 4 * big - 6);
}

TEST(TidSet, WeightConservation) {
  // w(a) == w(a intersect b) + w(a intersect not-b) for random weighted
  // sets: splitting a set by any other set neither drops nor
  // double-counts a member's weight, whatever representations the two
  // halves land in.
  trace::Rng rng(21);
  for (const KernelTier tier : supported_tiers()) {
    const std::uint32_t universe = 700;
    U64s weights;
    for (std::uint32_t t = 0; t < universe; ++t) {
      weights.push_back(rng.uniform_int(1, 99));
    }
    Fixture f(universe, weights, tier);
    for (int round = 0; round < 6; ++round) {
      U32s a, b, not_b;
      for (std::uint32_t t = 0; t < universe; ++t) {
        if (rng.bernoulli(0.4)) a.push_back(t);
        (rng.bernoulli(0.2) ? b : not_b).push_back(t);
      }
      KernelCounters kc;
      const TidSetView in = f.ops.intersect(f.make(a), f.make(b), f.arena,
                                            kc);
      const TidSetView out = f.ops.intersect(f.make(a), f.make(not_b),
                                             f.arena, kc);
      EXPECT_EQ(in.count + out.count, ref_weight(a, weights));
      EXPECT_EQ(in.num_tids + out.num_tids, a.size());
    }
  }
}

TEST(TidSet, RandomSweepAllTiersAllShapes) {
  // Mixed sparse/dense operand shapes under every tier, weighted and
  // unweighted, against the reference — the catch-all equivalence net.
  trace::Rng rng(55);
  for (const bool weighted : {false, true}) {
    const std::uint32_t universe = 320;
    U64s weights;
    if (weighted) {
      for (std::uint32_t t = 0; t < universe; ++t) {
        weights.push_back(rng.uniform_int(1, 7));
      }
    }
    for (const KernelTier tier : supported_tiers()) {
      Fixture f(universe, weights, tier);
      for (const double da : {0.005, 0.05, 0.6}) {
        for (const double db : {0.005, 0.05, 0.6}) {
          U32s a, b;
          for (std::uint32_t t = 0; t < universe; ++t) {
            if (rng.bernoulli(da)) a.push_back(t);
            if (rng.bernoulli(db)) b.push_back(t);
          }
          f.check_intersect(a, b);
        }
      }
    }
  }
}

TEST(TidSet, KernelTierDispatchRules) {
  // The compiled scalar and word tiers are always supported; the
  // active tier honors a forced override and clamps unsupported
  // requests downward instead of crashing.
  EXPECT_TRUE(kernel_tier_supported(KernelTier::kScalar));
  EXPECT_TRUE(kernel_tier_supported(KernelTier::kWord));
  force_kernel_tier(KernelTier::kScalar);
  EXPECT_EQ(active_kernel_tier(), KernelTier::kScalar);
  force_kernel_tier(KernelTier::kAvx2);
  EXPECT_TRUE(kernel_tier_supported(active_kernel_tier()));
  clear_forced_kernel_tier();
  EXPECT_TRUE(kernel_tier_supported(active_kernel_tier()));
}

TEST(TidSet, CountersAccumulate) {
  Fixture f(6400, {}, KernelTier::kScalar);
  KernelCounters kc;
  // Sparse views alias their input list, so the lists must outlive the
  // views (dense builds copy into the arena, but keep it uniform).
  const U32s dense_a_tids = range(0, 3200);
  const U32s dense_b_tids = range(1600, 6400);
  const U32s sparse_a_tids = {1, 5, 9};
  const U32s sparse_b_tids = {5, 9, 11};
  const TidSetView dense_a = f.make(dense_a_tids);
  const TidSetView dense_b = f.make(dense_b_tids);
  const TidSetView sparse_a = f.make(sparse_a_tids);
  const TidSetView sparse_b = f.make(sparse_b_tids);
  (void)f.ops.intersect(dense_a, dense_b, f.arena, kc);
  (void)f.ops.intersect(sparse_a, sparse_b, f.arena, kc);
  (void)f.ops.intersect(sparse_a, dense_a, f.arena, kc);
  EXPECT_EQ(kc.dense_intersections, 1u);
  EXPECT_EQ(kc.sparse_intersections, 1u);
  EXPECT_EQ(kc.mixed_intersections, 1u);
  EXPECT_GT(kc.words_scanned, 0u);
  EXPECT_GT(kc.elements_merged, 0u);

  KernelCounters other;
  other.dense_intersections = 10;
  kc.merge(other);
  EXPECT_EQ(kc.dense_intersections, 11u);
}

}  // namespace
}  // namespace gpumine::core
