// Declared command-line flags for the gpumine tool.
//
// Each command declares its flags once, as a `Usage`. `Args::parse`
// checks an argument list against that declaration before the command
// does any work, and `render_usage` prints the same declaration as the
// command's `gpumine help` entry. Flags are "--name value" or
// "--name=value"; switches take no value. Every other shape is an error:
// an unknown flag, a positional argument, a value flag with no value, a
// switch given a value, or a value that does not parse as its kind.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.hpp"

namespace gpumine::cli {

enum class FlagKind {
  kSwitch,  // present or absent, no value
  kText,    // any string: a path, an item name, a column list
  kUint,    // non-negative integer
  kDouble,  // floating-point number
  kChoice,  // one of the '|'-separated words in the placeholder
  kPort,    // TCP port, 0-65535
};

/// One flag, declared as {name, kind, placeholder, fallback, required}.
struct Flag {
  constexpr Flag(std::string_view flag_name, FlagKind flag_kind,
                 std::string_view value = {}, std::string_view otherwise = {},
                 bool must_give = false)
      : name(flag_name),
        kind(flag_kind),
        placeholder(value),
        fallback(otherwise),
        required(must_give) {}

  std::string_view name;         // without the leading "--"
  FlagKind kind;
  std::string_view placeholder;  // the value in help; a kChoice's choices
  std::string_view fallback;     // the value when the flag is not given
  bool required;
};

/// A command's flags. `sources` are mutually exclusive inputs: exactly
/// one source's first flag must be given, and the other flags of a
/// source are accepted only together with it.
struct Usage {
  std::vector<Flag> flags{};
  std::vector<std::vector<Flag>> sources{};
};

/// An argument list parsed against a `Usage`. The getters take declared
/// names only (anything else is a caller bug) and return the given value
/// or the declared fallback.
class Args {
 public:
  static Result<Args> parse(const Usage& usage,
                            const std::vector<std::string>& raw);

  /// True if the flag was given (a switch is on).
  [[nodiscard]] bool has(std::string_view name) const;
  [[nodiscard]] const std::string& text(std::string_view name) const;
  [[nodiscard]] std::uint64_t uint(std::string_view name) const;
  [[nodiscard]] double number(std::string_view name) const;

 private:
  std::map<std::string, std::string, std::less<>> values_;
  std::set<std::string, std::less<>> given_;
};

/// The help entry for one command: "  gpumine NAME" and its flags,
/// wrapped at 80 columns.
std::string render_usage(std::string_view command, const Usage& usage);

}  // namespace gpumine::cli
