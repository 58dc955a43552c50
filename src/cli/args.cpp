#include "cli/args.hpp"

#include <charconv>

namespace gpumine::cli {
namespace {

template <typename T>
bool parse_number(const std::string& text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

bool is_choice(std::string_view choices, std::string_view value) {
  while (true) {
    const std::size_t bar = choices.find('|');
    if (choices.substr(0, bar) == value) return true;
    if (bar == std::string_view::npos) return false;
    choices.remove_prefix(bar + 1);
  }
}

// Returns an empty message when `value` is well-formed for `flag`.
std::string malformed(const Flag& flag, const std::string& value) {
  std::uint64_t count = 0;
  double number = 0.0;
  switch (flag.kind) {
    case FlagKind::kUint:
      if (parse_number(value, count)) return {};
      return "expected a non-negative integer, got '" + value + "'";
    case FlagKind::kDouble:
      if (parse_number(value, number)) return {};
      return "expected a number, got '" + value + "'";
    case FlagKind::kChoice:
      if (is_choice(flag.placeholder, value)) return {};
      return "expected one of " + std::string(flag.placeholder) + ", got '" +
             value + "'";
    case FlagKind::kPort:
      if (parse_number(value, count) && count <= 65535) return {};
      return "expected a port number (0-65535), got '" + value + "'";
    default:
      return {};
  }
}

const Flag* find_flag(const Usage& usage, std::string_view name) {
  for (const Flag& flag : usage.flags) {
    if (flag.name == name) return &flag;
  }
  for (const auto& source : usage.sources) {
    for (const Flag& flag : source) {
      if (flag.name == name) return &flag;
    }
  }
  return nullptr;
}

std::string render_flag(const Flag& flag) {
  std::string out = "--" + std::string(flag.name);
  if (flag.kind != FlagKind::kSwitch) {
    out += ' ';
    out += flag.placeholder;
  }
  return out;
}

}  // namespace

Result<Args> Args::parse(const Usage& usage,
                         const std::vector<std::string>& raw) {
  Args args;
  const auto declare = [&](const Flag& flag) {
    args.values_.emplace(flag.name, flag.fallback);
  };
  for (const Flag& flag : usage.flags) declare(flag);
  for (const auto& source : usage.sources) {
    for (const Flag& flag : source) declare(flag);
  }

  for (std::size_t i = 0; i < raw.size(); ++i) {
    const std::string& token = raw[i];
    if (token.rfind("--", 0) != 0) {
      return Error{"args", "unexpected argument '" + token + "'"};
    }
    std::string name = token.substr(2);
    const std::size_t eq = name.find('=');
    const bool inline_value = eq != std::string::npos;
    std::string value = inline_value ? name.substr(eq + 1) : std::string{};
    if (inline_value) name.resize(eq);
    if (name.empty()) return Error{"args", "bare '--' is not a valid flag"};
    const Flag* flag = find_flag(usage, name);
    if (flag == nullptr) return Error{"", "unknown flag --" + name};
    if (flag->kind == FlagKind::kSwitch) {
      if (inline_value) {
        return Error{"--" + name, "is a switch and takes no value"};
      }
    } else if (!inline_value) {
      if (i + 1 >= raw.size() || raw[i + 1].rfind("--", 0) == 0) {
        return Error{"--" + name,
                     "needs a value (" + std::string(flag->placeholder) + ")"};
      }
      value = raw[++i];
    }
    if (const std::string why = malformed(*flag, value); !why.empty()) {
      return Error{"--" + name, why};
    }
    args.values_[name] = value;
    args.given_.insert(name);
  }

  // A value flag given as "" counts as absent, as it always has.
  const auto present = [&](const Flag& flag) {
    return args.has(flag.name) &&
           (flag.kind == FlagKind::kSwitch || !args.text(flag.name).empty());
  };
  for (const Flag& flag : usage.flags) {
    if (flag.required && !present(flag)) {
      return Error{"", render_flag(flag) + " is required"};
    }
  }
  if (usage.sources.empty()) return args;
  const std::vector<Flag>* chosen = nullptr;
  std::string keys;
  std::size_t count = 0;
  for (const auto& source : usage.sources) {
    keys += (keys.empty() ? "" : ", ") + render_flag(source.front());
    if (present(source.front())) {
      chosen = &source;
      ++count;
    }
  }
  if (count != 1) return Error{"", "pick exactly one of " + keys};
  for (const auto& source : usage.sources) {
    if (&source == chosen) continue;
    for (const Flag& flag : source) {
      if (present(flag)) {
        return Error{"--" + std::string(flag.name),
                     "cannot be combined with --" +
                         std::string(chosen->front().name)};
      }
    }
  }
  return args;
}

bool Args::has(std::string_view name) const {
  GPUMINE_ENSURE(values_.contains(name),
                 "undeclared flag --" + std::string(name));
  return given_.contains(name);
}

const std::string& Args::text(std::string_view name) const {
  const auto it = values_.find(name);
  GPUMINE_ENSURE(it != values_.end(),
                 "undeclared flag --" + std::string(name));
  return it->second;
}

std::uint64_t Args::uint(std::string_view name) const {
  std::uint64_t out = 0;
  GPUMINE_ENSURE(parse_number(text(name), out),
                 "--" + std::string(name) + " holds no integer");
  return out;
}

double Args::number(std::string_view name) const {
  double out = 0.0;
  GPUMINE_ENSURE(parse_number(text(name), out),
                 "--" + std::string(name) + " holds no number");
  return out;
}

std::string render_usage(std::string_view command, const Usage& usage) {
  std::vector<std::string> units;
  const bool alternatives = usage.sources.size() > 1;
  for (std::size_t s = 0; s < usage.sources.size(); ++s) {
    const auto& source = usage.sources[s];
    for (std::size_t f = 0; f < source.size(); ++f) {
      std::string unit = render_flag(source[f]);
      if (f > 0) unit = "[" + unit + "]";
      if (alternatives && f == 0) unit = (s == 0 ? "(" : "| ") + unit;
      if (alternatives && s + 1 == usage.sources.size() &&
          f + 1 == source.size()) {
        unit += ')';
      }
      units.push_back(std::move(unit));
    }
  }
  for (const Flag& flag : usage.flags) {
    units.push_back(flag.required ? render_flag(flag)
                                  : "[" + render_flag(flag) + "]");
  }
  std::string out = "  gpumine " + std::string(command);
  const std::string indent(out.size() + 1, ' ');
  std::size_t column = out.size();
  for (const std::string& unit : units) {
    if (column + 1 + unit.size() > 80) {
      out += "\n" + indent;
      column = indent.size();
    } else {
      out += ' ';
      ++column;
    }
    out += unit;
    column += unit.size();
  }
  return out + "\n";
}

}  // namespace gpumine::cli
