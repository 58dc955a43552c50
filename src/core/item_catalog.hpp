// ItemCatalog: bijective interning of item names to dense ItemIds.
//
// Items in the paper are nominal attributes of a job such as
// "SM Util = 0%", "GPU Type = None" or "Tensorflow" (Sec. III-B). The
// catalog assigns each distinct name a dense id so all mining runs on
// integers; names reappear only when rendering rules for the operator.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/itemset.hpp"

namespace gpumine::core {

class ItemCatalog {
 public:
  /// Returns the id of `name`, interning it if new. Ids are dense and
  /// assigned in first-seen order, so a catalog is deterministic given a
  /// deterministic interning sequence.
  ItemId intern(std::string_view name);

  /// Interns the conventional "attr = value" rendering used throughout
  /// the paper's rule tables.
  ItemId intern(std::string_view attribute, std::string_view value);

  /// Id of `name` if already interned.
  [[nodiscard]] std::optional<ItemId> find(std::string_view name) const;

  /// Name for an id. Throws std::invalid_argument on an unknown id.
  [[nodiscard]] const std::string& name(ItemId id) const;

  /// Renders a canonical itemset as "A, B, C" (paper table style).
  [[nodiscard]] std::string render(std::span<const ItemId> items) const;

  [[nodiscard]] std::size_t size() const { return names_.size(); }
  [[nodiscard]] bool empty() const { return names_.empty(); }

 private:
  // Transparent hash and equality: find() looks a string_view up
  // without building a std::string.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>{}(name);
    }
  };

  std::vector<std::string> names_;
  std::unordered_map<std::string, ItemId, NameHash, std::equal_to<>> index_;
};

}  // namespace gpumine::core
