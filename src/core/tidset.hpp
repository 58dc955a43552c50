// Adaptive vertical tid-set representation + SIMD intersection kernels
// for the mining hot loop (paper Sec. III-C).
//
// A tid-set is the set of transaction ids supporting an itemset. SON
// pass-2 candidate verification (core/partitioned.cpp) reduces to
// "intersect the candidate's item tid-sets and produce the weighted
// support", so this layer gives that operation one adaptive
// implementation with two representations:
//
//   * sparse — sorted std::uint32_t list, the layout rank_encode emits;
//   * dense  — 64-bit bitmap over the transaction universe, chosen when
//     a set's population reaches 1/64 of the universe (the break-even
//     point where one bitmap word costs the same as one list element).
//
// The dense kernels run under runtime CPU dispatch (common/simd.hpp):
// AVX2 when the build and machine support it, an unrolled word loop
// otherwise, with a plain scalar loop as the reference tier. Weighted
// support is fused into every kernel — the same pass that materializes
// an intersection also accumulates the member transactions' weights, so
// nothing ever rescans a freshly built list. All tiers and
// representations produce identical sets and exact integer counts: the
// adaptive machinery is invisible in mining output.
//
// Storage discipline: every result lives in a caller-provided Arena
// (common/arena.hpp), and callers bracket recursion levels with
// Arena::mark()/rewind(), so the hot path never touches malloc.
#pragma once

#include <bit>
#include <cstdint>
#include <span>

#include "common/arena.hpp"
#include "common/simd.hpp"

namespace gpumine::core {

enum class TidRep : std::uint8_t {
  kSparse,  // `tids` = sorted member transaction ids
  kDense,   // `words` = bitmap over the universe
};

/// One tid-set, viewing arena- (or encoding-) owned storage. For either
/// representation `num_tids` is the set's population (distinct member
/// transactions) and `count` its weighted support.
struct TidSetView {
  TidRep rep = TidRep::kSparse;
  std::span<const std::uint32_t> tids;   // kSparse members
  std::span<const std::uint64_t> words;  // kDense bitmap
  std::uint32_t num_tids = 0;
  std::uint64_t count = 0;
};

/// Kernel-layer counters for one mining task/chunk; merged into
/// KernelMetrics (frequent.hpp) and surfaced by `mine --stats`.
struct KernelCounters {
  std::uint64_t dense_intersections = 0;   // bitmap AND kernel calls
  std::uint64_t sparse_intersections = 0;  // sorted-list merge joins
  std::uint64_t mixed_intersections = 0;   // list probed against bitmap
  std::uint64_t dense_sets_built = 0;      // bitmap results materialized
  std::uint64_t sparse_sets_built = 0;     // list results materialized
  std::uint64_t words_scanned = 0;         // 64-bit words read by kernels
  std::uint64_t elements_merged = 0;       // list elements read by merges

  void merge(const KernelCounters& other) {
    dense_intersections += other.dense_intersections;
    sparse_intersections += other.sparse_intersections;
    mixed_intersections += other.mixed_intersections;
    dense_sets_built += other.dense_sets_built;
    sparse_sets_built += other.sparse_sets_built;
    words_scanned += other.words_scanned;
    elements_merged += other.elements_merged;
  }
};

namespace detail {

/// What a dense kernel reports about the words it produced. `weight`
/// equals the popcount when the database is unweighted.
struct DenseResult {
  std::uint64_t weight = 0;
  std::uint32_t num_tids = 0;
};

/// Dense bitmap AND with fused weighted-support accumulation:
/// out[i] = a[i] & b[i] for i in [0, n), returning the result's
/// population and — when `weights` (indexed by tid, 64 entries per
/// word) is non-null — the summed weight of its members.
using DenseAndFn = DenseResult (*)(const std::uint64_t* a,
                                   const std::uint64_t* b, std::uint64_t* out,
                                   std::size_t n,
                                   const std::uint64_t* weights);

DenseResult dense_and_scalar(const std::uint64_t* a, const std::uint64_t* b,
                             std::uint64_t* out, std::size_t n,
                             const std::uint64_t* weights);
DenseResult dense_and_word(const std::uint64_t* a, const std::uint64_t* b,
                           std::uint64_t* out, std::size_t n,
                           const std::uint64_t* weights);
#if defined(GPUMINE_HAVE_AVX2)
DenseResult dense_and_avx2(const std::uint64_t* a, const std::uint64_t* b,
                           std::uint64_t* out, std::size_t n,
                           const std::uint64_t* weights);
#endif

/// Summed weight of one result word's set bits; `row` points at the
/// weight entries of the word's 64 tids.
inline std::uint64_t weight_of_word(std::uint64_t bits,
                                    const std::uint64_t* row);

}  // namespace detail

/// Stateless-per-set operations over one transaction universe. Holds
/// the universe size, the (possibly empty) per-transaction weights and
/// the dispatched dense kernel; all mutation happens in caller-provided
/// arenas, so one const TidOps is shared by every thread of a run.
class TidOps {
 public:
  /// `universe` = number of transactions (tids are in [0, universe));
  /// `weights` = per-transaction multiplicities, empty when unweighted;
  /// `tier` = dispatched kernel tier, normally active_kernel_tier().
  TidOps(std::uint32_t universe, std::span<const std::uint64_t> weights,
         KernelTier tier);

  [[nodiscard]] KernelTier tier() const { return tier_; }
  [[nodiscard]] std::uint32_t universe() const { return universe_; }
  [[nodiscard]] std::size_t num_words() const { return num_words_; }

  /// Bitmap break-even: a set of `n` tids is stored dense when 64 bits
  /// per potential member costs no more than 32 bits per actual member,
  /// i.e. n * 64 >= universe (density >= 1/64, within 2x of the exact
  /// 1/2-word-per-element break-even and cheap to test).
  [[nodiscard]] bool dense_worthy(std::uint32_t n) const {
    return n > 0 &&
           static_cast<std::uint64_t>(n) * 64 >= static_cast<std::uint64_t>(universe_);
  }

  /// Wraps a sorted tid list (weighted support `count`) in the cheaper
  /// representation: a zero-copy sparse view, or an arena-allocated
  /// bitmap when the list is dense_worthy().
  [[nodiscard]] TidSetView build(std::span<const std::uint32_t> tids,
                                 std::uint64_t count, Arena& arena,
                                 KernelCounters& kc) const;

  /// a ∩ b with fused weighted count. Dense x dense runs the dispatched
  /// kernel and demotes the result to sparse when it falls below the
  /// density threshold; sparse inputs produce sparse outputs (an
  /// intersection never grows, so it can never become dense-worthy).
  [[nodiscard]] TidSetView intersect(const TidSetView& a, const TidSetView& b,
                                     Arena& arena, KernelCounters& kc) const;

  /// Summed weight of a tid list (== size() when unweighted); test and
  /// root-construction helper, never on the intersection path.
  [[nodiscard]] std::uint64_t weight_of(
      std::span<const std::uint32_t> tids) const;

 private:
  [[nodiscard]] const std::uint64_t* weight_data() const {
    return weights_.empty() ? nullptr : weights_.data();
  }

  static bool test_bit(std::span<const std::uint64_t> words,
                       std::uint32_t tid) {
    return ((words[tid >> 6] >> (tid & 63)) & 1) != 0;
  }

  /// Writes the set bits of `words` into `out` as sorted tids.
  static void extract(std::span<const std::uint64_t> words,
                      std::span<std::uint32_t> out);

  std::uint32_t universe_ = 0;
  std::size_t num_words_ = 0;
  std::span<const std::uint64_t> weights_;
  KernelTier tier_ = KernelTier::kScalar;
  detail::DenseAndFn and_ = nullptr;
};

namespace detail {

inline std::uint64_t weight_of_word(std::uint64_t bits,
                                    const std::uint64_t* row) {
  std::uint64_t weight = 0;
  while (bits != 0) {
    weight += row[std::countr_zero(bits)];
    bits &= bits - 1;
  }
  return weight;
}

}  // namespace detail

}  // namespace gpumine::core
