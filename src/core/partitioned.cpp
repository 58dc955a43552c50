#include "core/partitioned.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/arena.hpp"
#include "common/ensure.hpp"
#include "common/simd.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"
#include "core/fpgrowth.hpp"
#include "core/tidset.hpp"

namespace gpumine::core {
namespace {

double seconds_since(std::chrono::steady_clock::time_point begin) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       begin)
      .count();
}

}  // namespace

void PartitionedParams::validate() const {
  mining.validate();
  GPUMINE_CHECK_ARG(num_partitions >= 1, "need at least one partition");
}

MiningResult mine_partitioned(const TransactionDb& db,
                              const PartitionedParams& params) {
  GPUMINE_SPAN("son/mine");
  params.validate();
  MiningResult result;
  result.db_size = db.total_weight();
  if (db.empty()) return result;

  const auto wall_begin = std::chrono::steady_clock::now();
  const std::size_t p = std::min(params.num_partitions, db.size());
  const std::uint64_t total_weight = db.total_weight();
  const std::uint64_t min_count = params.mining.min_count(total_weight);

  ThreadPool pool(params.num_threads);
  PartitionMetrics& stage = result.metrics.partition_stage;
  stage.num_partitions = p;
  stage.num_threads = pool.size();
  stage.input_rows = db.size();

  // Pass 1: mine each contiguous slice at an exact per-partition integer
  // threshold. Slices are rebuilt as owned TransactionDbs — in a
  // genuinely distributed setting these would live on separate nodes.
  // Weights ride along, and identical rows inside a slice fold into one
  // weighted row, so the SON property holds over total weight per
  // partition while the local miners touch only distinct rows.
  const auto pass1_begin = std::chrono::steady_clock::now();
  std::vector<TransactionDb> parts(p);
  for (std::size_t t = 0; t < db.size(); ++t) {
    const auto txn = db[t];
    parts[t * p / db.size()].add(Itemset(txn.begin(), txn.end()), db.weight(t));
  }

  std::vector<std::vector<FrequentItemset>> local(p);
  pool.parallel_for(p, [&](std::size_t i) {
    GPUMINE_SPAN("son/pass1_partition");
    parts[i] = parts[i].dedup();
    MiningParams local_params = params.mining;
    local_params.num_threads = 1;  // parallelism lives at partition level
    // Exact integer scaling of the global threshold: an itemset with
    // global count >= min_count has count >= ceil(min_count * W_i / W)
    // in at least one partition, so no float round trip can tighten
    // (or loosen) the local bar.
    const std::uint64_t part_weight = parts[i].total_weight();
    local_params.min_count_override = std::max<std::uint64_t>(
        1, (min_count * part_weight + total_weight - 1) / total_weight);
    local[i] = mine_fpgrowth(parts[i], local_params).itemsets;
  });
  stage.partition_itemsets.reserve(p);
  for (const auto& part : local) {
    stage.partition_itemsets.push_back(part.size());
  }
  for (const auto& part : parts) stage.distinct_rows += part.size();
  stage.pass1_seconds = seconds_since(pass1_begin);

  // Union of local winners = global candidate set (SON property),
  // sorted lexicographically so candidate ids are deterministic.
  const auto pass2_begin = std::chrono::steady_clock::now();
  std::vector<Itemset> candidates;
  {
    std::unordered_set<Itemset, ItemsetHash, ItemsetEq> seen;
    for (const auto& part : local) {
      for (const auto& fi : part) seen.insert(fi.items);
    }
    candidates.assign(seen.begin(), seen.end());
    std::sort(candidates.begin(), candidates.end());
  }
  stage.candidates = candidates.size();

  if (!candidates.empty()) {
    // Pass 2: exact global weighted counts, computed vertically on the
    // kernel layer (core/tidset.hpp). The deduplicated partition rows
    // merge into one weighted database whose rank encoding (min_count 1
    // — downward closure guarantees every candidate item is locally
    // frequent, hence present) yields one tid-set per item; a
    // candidate's global count is then the fused-weight intersection of
    // its items' sets, smallest set first. Candidates are split into
    // contiguous chunks across the pool, each chunk writing a disjoint
    // range of the count vector — exact integers, so the result is
    // identical for any thread or chunk count.
    constexpr std::uint32_t kNoRank = 0xffffffffu;
    TransactionDb merged;
    std::vector<std::uint32_t> rank_of(db.item_id_bound(), kNoRank);
    RankEncoding venc;
    {
      GPUMINE_SPAN("son/pass2_index");
      std::size_t rows = 0;
      std::size_t items = 0;
      for (const auto& part : parts) {
        rows += part.size();
        items += part.total_items();
      }
      merged.reserve(rows, items);
      for (const auto& part : parts) {
        for (std::size_t t = 0; t < part.size(); ++t) {
          const auto txn = part[t];
          merged.add(Itemset(txn.begin(), txn.end()), part.weight(t));
        }
      }
      venc = rank_encode(merged, 1, /*with_tids=*/true);
      for (std::uint32_t r = 0; r < venc.num_ranks(); ++r) {
        rank_of[venc.item_of_rank[r]] = r;
      }
    }
    const TidOps ops(static_cast<std::uint32_t>(merged.size()), venc.weights,
                     active_kernel_tier());
    Arena root_arena;
    KernelCounters root_kc;
    std::vector<TidSetView> roots(venc.num_ranks());
    for (std::uint32_t r = 0; r < venc.num_ranks(); ++r) {
      roots[r] =
          ops.build(venc.tidlist(r), venc.count_of_rank[r], root_arena, root_kc);
    }

    struct Chunk {
      std::size_t begin;
      std::size_t end;
    };
    const std::size_t target_chunks =
        pool.size() == 1
            ? 1
            : std::min<std::size_t>(candidates.size(), pool.size() * 4);
    std::vector<Chunk> chunks;
    chunks.reserve(target_chunks);
    for (std::size_t s = 0; s < target_chunks; ++s) {
      const std::size_t begin = candidates.size() * s / target_chunks;
      const std::size_t end = candidates.size() * (s + 1) / target_chunks;
      if (begin < end) chunks.push_back({begin, end});
    }
    stage.verify_shards = chunks.size();

    std::vector<std::uint64_t> counts(candidates.size(), 0);
    std::vector<KernelCounters> chunk_kc(chunks.size());
    pool.parallel_for(chunks.size(), [&](std::size_t c) {
      GPUMINE_SPAN("son/pass2_chunk");
      Arena scratch;  // per-chunk intermediates, rewound per candidate
      std::vector<const TidSetView*> sets;
      for (std::size_t idx = chunks[c].begin; idx < chunks[c].end; ++idx) {
        sets.clear();
        bool present = true;
        for (const ItemId item : candidates[idx]) {
          if (item >= rank_of.size() || rank_of[item] == kNoRank) {
            present = false;  // unreachable by SON; counts 0 defensively
            break;
          }
          sets.push_back(&roots[rank_of[item]]);
        }
        if (!present) continue;
        // Smallest set first keeps every intermediate minimal.
        std::stable_sort(sets.begin(), sets.end(),
                         [](const TidSetView* a, const TidSetView* b) {
                           return a->num_tids < b->num_tids;
                         });
        const Arena::Mark mark = scratch.mark();
        TidSetView acc = *sets[0];
        for (std::size_t s = 1; s < sets.size() && acc.num_tids > 0; ++s) {
          acc = ops.intersect(acc, *sets[s], scratch, chunk_kc[c]);
        }
        counts[idx] = acc.count;  // an empty intermediate has weight 0
        scratch.rewind(mark);
      }
    });

    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (counts[i] >= min_count) {
        result.itemsets.push_back({std::move(candidates[i]), counts[i]});
      }
    }
    KernelMetrics& kernels = result.metrics.kernel_stage;
    kernels.tier = kernel_tier_name(ops.tier());
    kernels.add(root_kc);
    for (const KernelCounters& kc : chunk_kc) kernels.add(kc);
  }
  stage.verified = result.itemsets.size();
  stage.false_candidate_rate =
      stage.candidates == 0
          ? 0.0
          : static_cast<double>(stage.candidates - stage.verified) /
                static_cast<double>(stage.candidates);
  stage.pass2_seconds = seconds_since(pass2_begin);

  result.metrics.num_workers = pool.size();
  const SchedulerMetrics sched = pool.metrics();
  result.metrics.tasks_spawned = sched.tasks_spawned;
  result.metrics.tasks_stolen = sched.tasks_stolen;
  result.metrics.peak_queue_length = sched.peak_queue_length;
  result.metrics.worker_busy_seconds = sched.worker_busy_seconds;
  result.metrics.wall_seconds = seconds_since(wall_begin);
  sort_canonical(result.itemsets);
  return result;
}

}  // namespace gpumine::core
