#include "core/tidset.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

namespace gpumine::core {

namespace detail {

DenseResult dense_and_scalar(const std::uint64_t* a, const std::uint64_t* b,
                             std::uint64_t* out, std::size_t n,
                             const std::uint64_t* weights) {
  std::uint64_t ntids = 0;
  std::uint64_t weight = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t o = a[i] & b[i];
    out[i] = o;
    ntids += static_cast<unsigned>(std::popcount(o));
    if (weights != nullptr) weight += weight_of_word(o, weights + i * 64);
  }
  return {weights == nullptr ? ntids : weight,
          static_cast<std::uint32_t>(ntids)};
}

DenseResult dense_and_word(const std::uint64_t* a, const std::uint64_t* b,
                           std::uint64_t* out, std::size_t n,
                           const std::uint64_t* weights) {
  // Four independent popcount accumulators keep the ALU ports busy; the
  // compiler is free to turn the AND+store block into 128/256-bit moves
  // on any SIMD baseline, which is all this tier asks of it.
  std::uint64_t c0 = 0;
  std::uint64_t c1 = 0;
  std::uint64_t c2 = 0;
  std::uint64_t c3 = 0;
  std::uint64_t weight = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const std::uint64_t o0 = a[i] & b[i];
    const std::uint64_t o1 = a[i + 1] & b[i + 1];
    const std::uint64_t o2 = a[i + 2] & b[i + 2];
    const std::uint64_t o3 = a[i + 3] & b[i + 3];
    out[i] = o0;
    out[i + 1] = o1;
    out[i + 2] = o2;
    out[i + 3] = o3;
    c0 += static_cast<unsigned>(std::popcount(o0));
    c1 += static_cast<unsigned>(std::popcount(o1));
    c2 += static_cast<unsigned>(std::popcount(o2));
    c3 += static_cast<unsigned>(std::popcount(o3));
    if (weights != nullptr) {
      weight += weight_of_word(o0, weights + i * 64);
      weight += weight_of_word(o1, weights + (i + 1) * 64);
      weight += weight_of_word(o2, weights + (i + 2) * 64);
      weight += weight_of_word(o3, weights + (i + 3) * 64);
    }
  }
  for (; i < n; ++i) {
    const std::uint64_t o = a[i] & b[i];
    out[i] = o;
    c0 += static_cast<unsigned>(std::popcount(o));
    if (weights != nullptr) weight += weight_of_word(o, weights + i * 64);
  }
  const std::uint64_t ntids = c0 + c1 + c2 + c3;
  return {weights == nullptr ? ntids : weight,
          static_cast<std::uint32_t>(ntids)};
}

}  // namespace detail

TidOps::TidOps(std::uint32_t universe, std::span<const std::uint64_t> weights,
               KernelTier tier)
    : universe_(universe),
      num_words_((static_cast<std::size_t>(universe) + 63) / 64),
      weights_(weights),
      tier_(tier) {
  switch (tier_) {
    case KernelTier::kScalar:
      and_ = detail::dense_and_scalar;
      break;
    case KernelTier::kWord:
      and_ = detail::dense_and_word;
      break;
    case KernelTier::kAvx2:
#if defined(GPUMINE_HAVE_AVX2)
      and_ = detail::dense_and_avx2;
#else
      // active_kernel_tier() clamps to compiled tiers, but a directly
      // constructed TidOps still degrades instead of faulting.
      and_ = detail::dense_and_word;
      tier_ = KernelTier::kWord;
#endif
      break;
  }
}

void TidOps::extract(std::span<const std::uint64_t> words,
                     std::span<std::uint32_t> out) {
  std::size_t k = 0;
  for (std::size_t i = 0; i < words.size(); ++i) {
    std::uint64_t bits = words[i];
    const auto base = static_cast<std::uint32_t>(i * 64);
    while (bits != 0) {
      out[k++] = base + static_cast<std::uint32_t>(std::countr_zero(bits));
      bits &= bits - 1;
    }
  }
}

TidSetView TidOps::build(std::span<const std::uint32_t> tids,
                         std::uint64_t count, Arena& arena,
                         KernelCounters& kc) const {
  const auto n = static_cast<std::uint32_t>(tids.size());
  if (!dense_worthy(n)) {
    ++kc.sparse_sets_built;
    return {TidRep::kSparse, tids, {}, n, count};
  }
  const std::span<std::uint64_t> words =
      arena.allocate_array<std::uint64_t>(num_words_);
  std::fill(words.begin(), words.end(), std::uint64_t{0});
  for (const std::uint32_t t : tids) {
    words[t >> 6] |= std::uint64_t{1} << (t & 63);
  }
  ++kc.dense_sets_built;
  return {TidRep::kDense, {}, words, n, count};
}

TidSetView TidOps::intersect(const TidSetView& a, const TidSetView& b,
                             Arena& arena, KernelCounters& kc) const {
  const std::uint64_t* w = weight_data();
  if (a.rep == TidRep::kDense && b.rep == TidRep::kDense) {
    const std::span<std::uint64_t> out =
        arena.allocate_array<std::uint64_t>(num_words_);
    const detail::DenseResult r =
        and_(a.words.data(), b.words.data(), out.data(), num_words_, w);
    ++kc.dense_intersections;
    kc.words_scanned += num_words_;
    if (!dense_worthy(r.num_tids)) {
      // The result dropped below the density threshold: demote it to a
      // sorted list so downstream intersections pay per element again.
      const std::span<std::uint32_t> tids =
          arena.allocate_array<std::uint32_t>(r.num_tids);
      extract(out, tids);
      ++kc.sparse_sets_built;
      return {TidRep::kSparse, tids, {}, r.num_tids, r.weight};
    }
    ++kc.dense_sets_built;
    return {TidRep::kDense, {}, out, r.num_tids, r.weight};
  }
  if (a.rep == TidRep::kSparse && b.rep == TidRep::kSparse) {
    const std::span<std::uint32_t> out = arena.allocate_array<std::uint32_t>(
        std::min(a.tids.size(), b.tids.size()));
    std::size_t i = 0;
    std::size_t j = 0;
    std::size_t k = 0;
    std::uint64_t weight = 0;
    while (i < a.tids.size() && j < b.tids.size()) {
      const std::uint32_t x = a.tids[i];
      const std::uint32_t y = b.tids[j];
      if (x < y) {
        ++i;
      } else if (y < x) {
        ++j;
      } else {
        out[k++] = x;
        weight += w == nullptr ? 1 : w[x];
        ++i;
        ++j;
      }
    }
    ++kc.sparse_intersections;
    ++kc.sparse_sets_built;
    kc.elements_merged += a.tids.size() + b.tids.size();
    return {TidRep::kSparse, out.first(k), {}, static_cast<std::uint32_t>(k),
            weight};
  }
  // Mixed: probe the sparse side's elements against the bitmap. The
  // result is a subset of a list that was itself below the density
  // threshold, so it stays sparse by construction.
  const TidSetView& sparse = a.rep == TidRep::kSparse ? a : b;
  const TidSetView& dense = a.rep == TidRep::kSparse ? b : a;
  const std::span<std::uint32_t> out =
      arena.allocate_array<std::uint32_t>(sparse.tids.size());
  std::size_t k = 0;
  std::uint64_t weight = 0;
  for (const std::uint32_t t : sparse.tids) {
    if (test_bit(dense.words, t)) {
      out[k++] = t;
      weight += w == nullptr ? 1 : w[t];
    }
  }
  ++kc.mixed_intersections;
  ++kc.sparse_sets_built;
  kc.elements_merged += sparse.tids.size();
  return {TidRep::kSparse, out.first(k), {}, static_cast<std::uint32_t>(k),
          weight};
}

std::uint64_t TidOps::weight_of(std::span<const std::uint32_t> tids) const {
  if (weights_.empty()) return tids.size();
  std::uint64_t weight = 0;
  for (const std::uint32_t t : tids) weight += weights_[t];
  return weight;
}

}  // namespace gpumine::core
