#include "serve/query_engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <utility>

#include "analysis/export.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"

namespace gpumine::serve {

QueryEngine::QueryEngine(core::RuleSnapshot snapshot,
                         std::size_t build_threads)
    : snapshot_(std::move(snapshot)) {
  const auto begin = std::chrono::steady_clock::now();
  {
    GPUMINE_SPAN("serve/engine_build");
    index_ = core::SupportIndex(snapshot_.result);
    const std::vector<core::Rule>& rules = snapshot_.rules;
    const core::ItemCatalog& catalog = snapshot_.catalog;

    // Postings: the indices of the rules that mention each item, in
    // rule-list order. A rule's sides are disjoint, so it is listed once
    // per item it holds.
    std::vector<std::vector<std::size_t>> postings(catalog.size());
    for (std::size_t r = 0; r < rules.size(); ++r) {
      for (const core::ItemId item : rules[r].antecedent) {
        postings[item].push_back(r);
      }
      for (const core::ItemId item : rules[r].consequent) {
        postings[item].push_back(r);
      }
    }

    // An item without postings keeps its empty analysis; the others are
    // pruned below. Both get their JSON rendered once, here.
    entries_.resize(catalog.size());
    std::vector<core::ItemId> keyed;
    for (core::ItemId id = 0; id < catalog.size(); ++id) {
      Entry& entry = entries_[id];
      entry.analysis.keyword = id;
      entry.analysis.stage.rules_generated = rules.size();
      if (postings[id].empty()) {
        entry.json = analysis::rules_to_json(entry.analysis, catalog);
      } else {
        keyed.push_back(id);
      }
    }
    const auto build = [&](core::ItemId id) {
      Entry& entry = entries_[id];
      core::prune_keyword(rules, postings[id], snapshot_.prune_params,
                          entry.analysis);
      entry.json = analysis::rules_to_json(entry.analysis, catalog);
    };

    // Largest posting first, so the longest prune starts at once and the
    // small ones fill in around it.
    std::stable_sort(keyed.begin(), keyed.end(),
                     [&](core::ItemId a, core::ItemId b) {
                       return postings[a].size() > postings[b].size();
                     });
    std::size_t width = build_threads != 0
                            ? build_threads
                            : std::thread::hardware_concurrency();
    width = std::min(width, keyed.size());
    if (width <= 1) {
      for (const core::ItemId id : keyed) build(id);
    } else {
      // A private pool: the server's workers are pinned to connections.
      // The constructing thread is the width-th builder.
      ThreadPool pool(width - 1);
      std::atomic<std::size_t> next{0};
      pool.parallel_for(width, [&](std::size_t) {
        for (std::size_t k = next.fetch_add(1); k < keyed.size();
             k = next.fetch_add(1)) {
          build(keyed[k]);
        }
      });
    }
    for (const core::ItemId id : keyed) {
      const core::KeywordAnalysis& analysis = entries_[id].analysis;
      if (!analysis.cause.empty() || !analysis.characteristic.empty()) {
        ++keywords_with_rules_;
      }
    }
  }
  build_ms_ = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - begin)
                  .count();
}

const QueryEngine::Entry* QueryEngine::find(std::string_view keyword) const {
  const auto id = snapshot_.catalog.find(keyword);
  return id ? &entries_[*id] : nullptr;
}

const core::KeywordAnalysis* QueryEngine::query(
    std::string_view keyword) const {
  const Entry* entry = find(keyword);
  return entry != nullptr ? &entry->analysis : nullptr;
}

const std::string* QueryEngine::query_json(std::string_view keyword) const {
  const Entry* entry = find(keyword);
  return entry != nullptr ? &entry->json : nullptr;
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
