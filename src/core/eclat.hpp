// Eclat frequent-itemset mining (Zaki, 2000): vertical tid-list format.
//
// Each item maps to the sorted list of transaction ids containing it;
// support of an itemset is the length of the intersection of its items'
// tid-lists. The miner does a depth-first equivalence-class walk,
// intersecting tid-lists as it extends prefixes. Included as a second
// independent algorithm for cross-validation and for the perf bench
// (vertical layouts rival FP-Growth on dense data).
#pragma once

#include "core/frequent.hpp"
#include "core/transaction_db.hpp"

namespace gpumine::core {

[[nodiscard]] MiningResult mine_eclat(const TransactionDb& db,
                                      const MiningParams& params);

}  // namespace gpumine::core
