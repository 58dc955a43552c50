// QueryEngine: the immutable in-memory index behind the rule-query
// server.
//
// A production deployment mines periodically and answers interactive
// root-cause queries from a pre-built structure (the shape of Facebook's
// fast-dimensional-analysis service): here, one QueryEngine is built
// from a core::RuleSnapshot and then never mutated. Construction runs
// the pruning half of core::analyze_keyword once for every item in the
// catalog — Conditions 1-4 pruning and the JSON rendering of
// analysis/export.hpp — so the serving path is a name -> id lookup
// returning a pre-rendered response. Because the engine is immutable,
// any number of server threads can read it concurrently with no
// locking, and hot-reload is a shared_ptr swap in EngineHandle
// (serve/engine_handle.hpp), never an in-place update.
//
// The build is keyword-indexed. One pass over the snapshot's rules
// builds item -> rule-index postings, each in rule-list order (which is
// exactly the rule list filter_keyword would copy out). Items with no
// postings — most of a real vocabulary — get their empty answer with no
// scan. The rest are pruned over their postings with no Rule copies, on
// a private thread pool, largest posting first. The build is linear in
// the (item, rule) pairs plus the pruning of the non-empty keywords.
//
// The answers are byte-identical to running the one-shot CLI pipeline
// (`gpumine mine --keyword K --format json`) over the same mining
// result, at any build width (asserted by
// tests/serve/query_engine_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/miner.hpp"
#include "core/snapshot.hpp"
#include "core/support_index.hpp"

namespace gpumine::serve {

class QueryEngine {
 public:
  /// Builds the keyword index: one pruned KeywordAnalysis plus its
  /// pre-rendered JSON response per catalog item; runs once per snapshot
  /// (re)load. `build_threads` caps the pruning pool: 0 uses the
  /// hardware concurrency. The width used is also capped at the number
  /// of keywords with rules, and at most one such keyword builds
  /// serially. The answers do not depend on the width.
  explicit QueryEngine(core::RuleSnapshot snapshot,
                       std::size_t build_threads = 0);

  /// Pre-pruned analysis for a keyword item name, or nullptr when the
  /// name is not in the snapshot's vocabulary.
  [[nodiscard]] const core::KeywordAnalysis* query(
      std::string_view keyword) const;

  /// The pre-rendered JSON response for the same lookup (the exact
  /// bytes of analysis::rules_to_json), or nullptr when unknown.
  [[nodiscard]] const std::string* query_json(std::string_view keyword) const;

  /// Support probe: sigma(items) for a set of item names, through the
  /// snapshot's SupportIndex. nullopt when any name is unknown or the
  /// set is not among the frequent itemsets.
  [[nodiscard]] std::optional<std::uint64_t> support_count(
      const std::vector<std::string>& item_names) const;

  [[nodiscard]] const core::ItemCatalog& catalog() const {
    return snapshot_.catalog;
  }
  [[nodiscard]] const core::SupportIndex& support_index() const {
    return index_;
  }
  [[nodiscard]] std::uint64_t db_size() const {
    return snapshot_.result.db_size;
  }
  [[nodiscard]] std::size_t num_itemsets() const {
    return snapshot_.result.itemsets.size();
  }
  [[nodiscard]] std::size_t num_rules() const {
    return snapshot_.rules.size();
  }
  /// Catalog items with at least one surviving rule.
  [[nodiscard]] std::size_t num_keywords_with_rules() const {
    return keywords_with_rules_;
  }
  /// Wall time of this engine's construction, in milliseconds.
  [[nodiscard]] double build_ms() const { return build_ms_; }
  /// Every keyword name, in catalog (id) order — the bench and the
  /// /stats endpoint iterate this.
  [[nodiscard]] std::vector<std::string> keyword_names() const;

 private:
  struct Entry {
    core::KeywordAnalysis analysis;
    std::string json;  // rules_to_json(analysis, catalog)
  };

  [[nodiscard]] const Entry* find(std::string_view keyword) const;

  core::RuleSnapshot snapshot_;
  core::SupportIndex index_;
  std::vector<Entry> entries_;  // indexed by ItemId
  std::size_t keywords_with_rules_ = 0;
  double build_ms_ = 0.0;
};

}  // namespace gpumine::serve
