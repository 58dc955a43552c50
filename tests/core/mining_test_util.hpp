// Shared helpers for the frequent-itemset mining tests: tiny-database
// construction, a brute-force oracle, a definition-level exactness check
// for trace-sized databases, and result comparison.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <initializer_list>
#include <set>
#include <vector>

#include "core/frequent.hpp"
#include "core/transaction_db.hpp"
#include "trace/rng.hpp"

namespace gpumine::core::testutil {

inline TransactionDb make_db(
    std::initializer_list<std::initializer_list<ItemId>> txns) {
  TransactionDb db;
  for (const auto& t : txns) db.add(Itemset(t));
  return db;
}

/// Exhaustive oracle: enumerates every subset of every transaction up to
/// max_length, counts supports with the scan oracle, and keeps the
/// frequent ones. The threshold is taken over total_weight(), as the
/// miners do, so a deduplicated database gives the same answer as its
/// expansion. Exponential — only for tiny databases.
inline std::vector<FrequentItemset> brute_force(const TransactionDb& db,
                                                const MiningParams& params) {
  const std::uint64_t min_count = params.min_count(db.total_weight());
  std::vector<Itemset> candidates;
  for (std::size_t t = 0; t < db.size(); ++t) {
    const auto txn = db[t];
    const std::size_t n = txn.size();
    for (std::uint64_t mask = 1; mask < (1ull << n); ++mask) {
      if (static_cast<std::size_t>(std::popcount(mask)) > params.max_length) {
        continue;
      }
      Itemset s;
      for (std::size_t b = 0; b < n; ++b) {
        if ((mask >> b) & 1) s.push_back(txn[b]);
      }
      candidates.push_back(std::move(s));
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  std::vector<FrequentItemset> out;
  for (auto& c : candidates) {
    const std::uint64_t count = db.support_count(c);
    if (count >= min_count) out.push_back({std::move(c), count});
  }
  sort_canonical(out);
  return out;
}

/// Definition-level check that `result` is exactly the frequent-itemset
/// family of `db` under `params`, usable where brute_force's 2^n
/// subsets per row are out of reach. Supports are recounted from
/// per-item row bitsets (weighted by row multiplicity), which share no
/// code with any miner.
///
///   soundness     every reported itemset is canonical, non-empty, at
///                 most max_length long, reported once, and carries its
///                 exact weighted support, which reaches min_count;
///   completeness  every frequent single item is reported, and for
///                 every reported X shorter than max_length and every
///                 frequent item i not in X, X + {i} is reported
///                 whenever its support reaches min_count.
///
/// Every frequent itemset is a reported frequent itemset plus one
/// frequent item (downward closure), so by induction on length the two
/// parts together pin down the frequent family exactly.
inline void expect_exact_frequent_set(const TransactionDb& db,
                                      const MiningParams& params,
                                      const MiningResult& result) {
  constexpr std::size_t kMaxReports = 5;  // per category, for readability
  const std::uint64_t min_count = params.min_count(db.total_weight());
  EXPECT_EQ(result.db_size, db.total_weight());

  const std::size_t words = (db.size() + 63) / 64;
  std::vector<std::vector<std::uint64_t>> rows_of(
      db.item_id_bound(), std::vector<std::uint64_t>(words, 0));
  for (std::size_t t = 0; t < db.size(); ++t) {
    for (const ItemId item : db[t]) {
      rows_of[item][t / 64] |= std::uint64_t{1} << (t % 64);
    }
  }
  const auto weight_of = [&](const std::vector<std::uint64_t>& rows) {
    std::uint64_t weight = 0;
    for (std::size_t w = 0; w < words; ++w) {
      for (std::uint64_t bits = rows[w]; bits != 0; bits &= bits - 1) {
        weight += db.weight(w * 64 + static_cast<std::size_t>(
                                          std::countr_zero(bits)));
      }
    }
    return weight;
  };
  std::vector<std::uint64_t> all_rows(words, ~std::uint64_t{0});
  if (db.size() % 64 != 0) {
    all_rows.back() = (std::uint64_t{1} << (db.size() % 64)) - 1;
  }
  const auto rows_of_set = [&](const Itemset& items) {
    std::vector<std::uint64_t> rows = all_rows;
    for (const ItemId item : items) {
      if (item >= rows_of.size()) return std::vector<std::uint64_t>(words, 0);
      for (std::size_t w = 0; w < words; ++w) rows[w] &= rows_of[item][w];
    }
    return rows;
  };

  // Soundness.
  std::set<Itemset> reported;
  std::size_t unsound = 0;
  for (const FrequentItemset& fi : result.itemsets) {
    Itemset canonical = fi.items;
    canonicalize(canonical);
    const bool ok = !fi.items.empty() &&
                    fi.items.size() <= params.max_length &&
                    canonical == fi.items &&
                    reported.insert(fi.items).second && fi.count >= min_count &&
                    fi.count == weight_of(rows_of_set(fi.items));
    if (!ok && unsound++ < kMaxReports) {
      ADD_FAILURE() << "unsound itemset " << debug_string(fi.items)
                    << " count " << fi.count << " (recount "
                    << weight_of(rows_of_set(fi.items)) << ", min_count "
                    << min_count << ", max_length " << params.max_length
                    << ")";
    }
  }
  EXPECT_EQ(unsound, 0u) << "unsound itemsets reported";

  // Completeness.
  std::vector<ItemId> frequent_items;
  std::set<Itemset> missing;
  const auto expect_reported = [&](const Itemset& items, std::uint64_t count) {
    if (reported.count(items) == 0 && missing.insert(items).second &&
        missing.size() <= kMaxReports) {
      ADD_FAILURE() << "frequent itemset " << debug_string(items)
                    << " (support " << count << " >= " << min_count
                    << ") not reported";
    }
  };
  for (ItemId item = 0; item < rows_of.size(); ++item) {
    const std::uint64_t count = weight_of(rows_of[item]);
    if (count < min_count) continue;
    frequent_items.push_back(item);
    expect_reported({item}, count);
  }
  std::vector<std::uint64_t> joint(words);
  for (const Itemset& x : reported) {
    if (x.size() >= params.max_length) continue;
    const std::vector<std::uint64_t> rows = rows_of_set(x);
    for (const ItemId item : frequent_items) {
      if (std::binary_search(x.begin(), x.end(), item)) continue;
      for (std::size_t w = 0; w < words; ++w) {
        joint[w] = rows[w] & rows_of[item][w];
      }
      const std::uint64_t count = weight_of(joint);
      if (count < min_count) continue;
      Itemset extended = x;
      extended.insert(std::upper_bound(extended.begin(), extended.end(), item),
                      item);
      expect_reported(extended, count);
    }
  }
  EXPECT_EQ(missing.size(), 0u) << "frequent itemsets missing from the result";
}

inline void expect_same(const std::vector<FrequentItemset>& actual,
                        const std::vector<FrequentItemset>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].items, expected[i].items) << "index " << i;
    EXPECT_EQ(actual[i].count, expected[i].count)
        << "itemset " << debug_string(actual[i].items);
  }
}

/// Random database with `num_txns` transactions over `num_items` items;
/// each item appears independently with per-item probability drawn once
/// per item (mimicking skewed real data).
inline TransactionDb random_db(std::uint64_t seed, std::size_t num_txns,
                               ItemId num_items) {
  trace::Rng rng(seed);
  std::vector<double> p(num_items);
  for (auto& v : p) v = rng.uniform(0.05, 0.7);
  TransactionDb db;
  for (std::size_t t = 0; t < num_txns; ++t) {
    Itemset txn;
    for (ItemId i = 0; i < num_items; ++i) {
      if (rng.bernoulli(p[i])) txn.push_back(i);
    }
    db.add(std::move(txn));
  }
  return db;
}

}  // namespace gpumine::core::testutil
