// The `gpumine` subcommands. All output goes through the provided
// streams and the return value is the process exit code, so the
// commands are unit-testable without spawning. Each command declares
// its flags once (cli/args.hpp); `gpumine help` prints them.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cli/args.hpp"

namespace gpumine::cli {

/// Dispatches `argv`-style arguments (without the program name).
int run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err);

/// Each command's name and flag declaration, in `gpumine help` order.
std::vector<std::pair<std::string_view, const Usage*>> command_usages();

}  // namespace gpumine::cli
