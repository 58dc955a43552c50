#include "serve/query_engine.hpp"

#include <utility>

#include "analysis/export.hpp"
#include "common/trace.hpp"
#include "core/pruning.hpp"

namespace gpumine::serve {

QueryEngine::QueryEngine(core::RuleSnapshot snapshot)
    : snapshot_(std::move(snapshot)) {
  GPUMINE_SPAN("serve/engine_build");
  index_ = core::SupportIndex(snapshot_.result);
  // Per-keyword precompute, mirroring the keyword half of
  // core::analyze_keyword over the shared pre-generated rule list. The
  // rendered JSON is cached so the serving path never touches the rule
  // vectors.
  by_keyword_.reserve(snapshot_.catalog.size());
  for (core::ItemId id = 0; id < snapshot_.catalog.size(); ++id) {
    Entry entry;
    entry.analysis.keyword = id;
    const std::vector<core::Rule> keyed =
        core::filter_keyword(snapshot_.rules, id);
    const std::vector<core::Rule> pruned = core::prune_rules(
        keyed, id, snapshot_.prune_params, &entry.analysis.prune_stats);
    entry.analysis.cause = core::filter_keyword(
        pruned, id, core::KeywordSide::kConsequent);
    entry.analysis.characteristic = core::filter_keyword(
        pruned, id, core::KeywordSide::kAntecedent);
    entry.analysis.stage.rules_generated = snapshot_.rules.size();
    entry.analysis.stage.rules_kept = entry.analysis.prune_stats.kept;
    for (std::size_t c = 0; c < 4; ++c) {
      entry.analysis.stage.pruned_by_condition[c] =
          entry.analysis.prune_stats.pruned_by[c];
    }
    entry.json = analysis::rules_to_json(entry.analysis, snapshot_.catalog);
    if (!pruned.empty()) ++keywords_with_rules_;
    by_keyword_.emplace(snapshot_.catalog.name(id), std::move(entry));
  }
}

const core::KeywordAnalysis* QueryEngine::query(
    std::string_view keyword) const {
  const auto it = by_keyword_.find(std::string(keyword));
  return it == by_keyword_.end() ? nullptr : &it->second.analysis;
}

const std::string* QueryEngine::query_json(std::string_view keyword) const {
  const auto it = by_keyword_.find(std::string(keyword));
  return it == by_keyword_.end() ? nullptr : &it->second.json;
}

std::optional<std::uint64_t> QueryEngine::support_count(
    const std::vector<std::string>& item_names) const {
  core::Itemset items;
  items.reserve(item_names.size());
  for (const std::string& name : item_names) {
    const auto id = snapshot_.catalog.find(name);
    if (!id) return std::nullopt;
    items.push_back(*id);
  }
  core::canonicalize(items);
  return index_.find(items);
}

std::vector<std::string> QueryEngine::keyword_names() const {
  std::vector<std::string> names;
  names.reserve(snapshot_.catalog.size());
  for (core::ItemId id = 0; id < snapshot_.catalog.size(); ++id) {
    names.push_back(snapshot_.catalog.name(id));
  }
  return names;
}

}  // namespace gpumine::serve
