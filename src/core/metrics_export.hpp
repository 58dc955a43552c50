// Prometheus adapter for the mining pipeline: maps MiningMetrics and
// its nested stage structs (prep, rule) onto registry families, so
// `mine --metrics-out FILE` writes the same exposition format the
// server scrapes. Every family name exported here
// must be documented in docs/OBSERVABILITY.md — tools/check_docs.py
// gates on it.
#pragma once

#include <string>

#include "common/metrics.hpp"
#include "core/frequent.hpp"

namespace gpumine::core {

/// Registers one run's MiningMetrics into `registry` as gauges and
/// counters under the gpumine_mining_* / gpumine_prep_* /
/// gpumine_rules_* families.
void export_mining_metrics(const MiningMetrics& metrics,
                           MetricsRegistry& registry);

/// Standalone exposition document for --metrics-out.
[[nodiscard]] std::string render_prometheus(const MiningMetrics& metrics);

}  // namespace gpumine::core
