#include "core/metrics_export.hpp"

namespace gpumine::core {

void export_mining_metrics(const MiningMetrics& m, MetricsRegistry& r) {
  // --- scheduler / tree layer ---------------------------------------------
  r.gauge("gpumine_mining_workers", "Scheduler width of the mining run")
      .set(static_cast<double>(m.num_workers));
  r.counter("gpumine_mining_tasks_total", "Scheduler tasks, by disposition",
            {{"kind", "spawned"}})
      .add(m.tasks_spawned);
  r.counter("gpumine_mining_tasks_total", "Scheduler tasks, by disposition",
            {{"kind", "stolen"}})
      .add(m.tasks_stolen);
  r.gauge("gpumine_mining_peak_queue_length",
          "Deepest worker deque observed during the run")
      .set(static_cast<double>(m.peak_queue_length));
  r.gauge("gpumine_mining_wall_seconds", "End-to-end mining wall time")
      .set(m.wall_seconds);
  for (std::size_t i = 0; i < m.worker_busy_seconds.size(); ++i) {
    r.gauge("gpumine_mining_worker_busy_seconds",
            "Per-worker task execution time",
            {{"worker", std::to_string(i)}})
        .set(m.worker_busy_seconds[i]);
  }
  r.counter("gpumine_mining_arena_bytes_total",
            "FP-tree arena traffic, by source", {{"kind", "allocated"}})
      .add(m.arena_bytes_allocated);
  r.counter("gpumine_mining_arena_bytes_total",
            "FP-tree arena traffic, by source", {{"kind", "reused"}})
      .add(m.arena_bytes_reused);
  r.gauge("gpumine_mining_peak_arena_bytes",
          "Peak bytes resident across pooled arenas")
      .set(static_cast<double>(m.peak_arena_bytes));
  r.gauge("gpumine_mining_peak_tree_nodes",
          "Max FP-tree nodes resident at once")
      .set(static_cast<double>(m.peak_tree_nodes));
  r.counter("gpumine_mining_child_probes_total",
            "Child-table slots probed inserting tree nodes")
      .add(m.child_probe_count);
  for (std::size_t d = 0; d < m.depth_histogram.size(); ++d) {
    r.counter("gpumine_mining_recursion_depth_total",
              "Conditional trees mined, by recursion depth",
              {{"depth", std::to_string(d)}})
        .add(m.depth_histogram[d]);
  }

  // --- rule stage ----------------------------------------------------------
  const RuleStageMetrics& rs = m.rule_stage;
  r.gauge("gpumine_rules_threads", "Rule-generation shard width")
      .set(static_cast<double>(rs.num_threads));
  r.counter("gpumine_rules_funnel_total",
            "Rule-stage funnel, by stage", {{"stage", "itemsets_considered"}})
      .add(rs.itemsets_considered);
  r.counter("gpumine_rules_funnel_total",
            "Rule-stage funnel, by stage", {{"stage", "candidates"}})
      .add(rs.candidate_rules);
  r.counter("gpumine_rules_funnel_total",
            "Rule-stage funnel, by stage", {{"stage", "generated"}})
      .add(rs.rules_generated);
  r.counter("gpumine_rules_funnel_total",
            "Rule-stage funnel, by stage", {{"stage", "kept"}})
      .add(rs.rules_kept);
  for (std::size_t c = 0; c < rs.pruned_by_condition.size(); ++c) {
    r.counter("gpumine_rules_pruned_total",
              "Rules removed, by interpretability pruning condition",
              {{"condition", std::to_string(c + 1)}})
        .add(rs.pruned_by_condition[c]);
  }
  r.gauge("gpumine_rules_prune_buckets",
          "Buckets in the pruning candidate index")
      .set(static_cast<double>(rs.prune_buckets));
  r.gauge("gpumine_rules_prune_max_bucket",
          "Largest single pruning-index bucket")
      .set(static_cast<double>(rs.prune_max_bucket));
  r.counter("gpumine_rules_prune_pair_comparisons_total",
            "Nested-pair subset tests performed while pruning")
      .add(rs.prune_pair_comparisons);
  r.gauge("gpumine_rules_stage_seconds", "Rule-stage wall time, by phase",
          {{"phase", "generation"}})
      .set(rs.generation_seconds);
  r.gauge("gpumine_rules_stage_seconds", "Rule-stage wall time, by phase",
          {{"phase", "prune"}})
      .set(rs.prune_seconds);

  // --- prep stage -----------------------------------------------------------
  const PrepStageMetrics& pr = m.prep_stage;
  r.gauge("gpumine_prep_stage_seconds", "Preprocessing wall time, by stage",
          {{"stage", "csv"}})
      .set(pr.csv_seconds);
  r.gauge("gpumine_prep_stage_seconds", "Preprocessing wall time, by stage",
          {{"stage", "binning"}})
      .set(pr.binning_seconds);
  r.gauge("gpumine_prep_stage_seconds", "Preprocessing wall time, by stage",
          {{"stage", "encode"}})
      .set(pr.encode_seconds);
  r.gauge("gpumine_prep_stage_seconds", "Preprocessing wall time, by stage",
          {{"stage", "dedup"}})
      .set(pr.dedup_seconds);
  r.gauge("gpumine_prep_transactions", "Transactions through prep, by stage",
          {{"kind", "input"}})
      .set(static_cast<double>(pr.input_transactions));
  r.gauge("gpumine_prep_transactions", "Transactions through prep, by stage",
          {{"kind", "distinct"}})
      .set(static_cast<double>(pr.distinct_transactions));
  r.gauge("gpumine_prep_dedup_ratio",
          "input / distinct transactions (1.0 = no duplication)")
      .set(pr.dedup_ratio);
}

std::string render_prometheus(const MiningMetrics& metrics) {
  MetricsRegistry registry;
  export_mining_metrics(metrics, registry);
  return registry.render_prometheus();
}

}  // namespace gpumine::core
