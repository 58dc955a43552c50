// Partitioned frequent-itemset mining (SON algorithm — Savasere,
// Omiecinski & Navathe, VLDB 1995) — the scale-out path for traces that
// outgrow one FP-Growth run (the paper mines 100k-850k-job production
// traces; Sec. VI points at distributed rule mining for larger ones).
//
//   pass 1  split D into p contiguous slices; fold each slice's
//           identical transactions into weighted rows (dedup), then
//           mine every slice concurrently on the work-stealing pool at
//           an exact per-partition integer threshold
//           ceil(min_count * W_p / W) — any globally frequent itemset
//           is frequent in at least one partition (the SON property),
//           so the union of local winners is a complete candidate set;
//   pass 2  count every candidate exactly over the deduplicated
//           partition rows, vertically: one tid-set per item
//           (core/tidset.hpp), and a candidate's weighted count is the
//           fused-weight intersection of its items' sets, smallest
//           first. Candidates split into contiguous chunks across the
//           pool, each writing a disjoint range of the count vector,
//           so the counts are identical for any thread count.
//
// The result is EXACTLY the single-machine result (asserted by property
// tests across partition and thread counts), at the cost of one extra
// counting pass. Per-pass shape and timings land in
// MiningMetrics::partition_stage; docs/SCALING.md covers the design and
// when to prefer SON over direct FP-Growth.
#pragma once

#include "core/frequent.hpp"
#include "core/transaction_db.hpp"

namespace gpumine::core {

struct PartitionedParams {
  MiningParams mining;        // global thresholds
  std::size_t num_partitions = 4;
  std::size_t num_threads = 0;  // 0 = hardware concurrency

  void validate() const;
};

[[nodiscard]] MiningResult mine_partitioned(const TransactionDb& db,
                                            const PartitionedParams& params);

}  // namespace gpumine::core
