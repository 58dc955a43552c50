// perfbench_harness: the compiled half of the repository benchmark.
// run.py builds it and drives it; each mode prints one JSON line.
//
//   perfbench_harness synth --trace pai|philly --jobs N --seed S --out CSV
//   perfbench_harness cold  --workload W --csv CSV --work-dir DIR
//   perfbench_harness run   --workload W --csv CSV --work-dir DIR
//                           --seed S --seconds T --trace 0|1
//   perfbench_harness selftest --csv CSV --work-dir DIR
#include <cstdio>
#include <exception>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {
namespace {

// A reply whose body differs from the engine's bytes by one byte must
// count as a failed request (and a wrong reply) in the error rate.
int selftest(const Options& options) {
  SpanRecorder spans;
  const std::string snap_path = options.work_dir + "/selftest.snap";
  save_snapshot(mine_csv(options.csv, MineFlags{}, spans), snap_path, spans);
  const Published published =
      start_serving(load_engine(snap_path, spans), snap_path, 2, spans);
  const std::string keyword = "Status = Failed";
  const std::string* json = published.engine->query_json(keyword);
  if (json == nullptr || !published.healthy) {
    std::cout << "{\"ok\":false,\"why\":\"no engine answer\"}\n";
    return 1;
  }
  std::string corrupted = *json;
  corrupted[corrupted.size() / 2] ^= 0x20;
  const std::string target = "/query?keyword=" + percent_encode(keyword);
  const std::vector<Target> targets{
      {Target::Kind::kQuery, "GET", target, 200, json},
      {Target::Kind::kQuery, "GET", target, 200, &corrupted}};
  std::vector<Planned> plan(20);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    plan[i] = {static_cast<std::int64_t>(i) * 1'000'000,
               static_cast<std::uint32_t>(i % 2)};
  }
  const LoadStats load =
      run_load(published, targets, plan, {}, 5'000'000'000, 1, spans);
  published.server->stop();
  const double error_rate = static_cast<double>(load.failed) /
                            static_cast<double>(load.attempted);
  const bool ok = load.attempted == 20 && load.failed == 10 &&
                  load.wrong == 10 && load.sent == 20;
  std::cout << "{\"ok\":" << (ok ? "true" : "false")
            << ",\"attempted\":" << load.attempted
            << ",\"failed\":" << load.failed << ",\"wrong\":" << load.wrong
            << ",\"error_rate\":" << error_rate << "}\n";
  return ok ? 0 : 1;
}

int run_mode(const std::string& mode, const std::map<std::string, std::string>& flags) {
  const auto get = [&](const std::string& name) {
    const auto it = flags.find(name);
    if (it == flags.end()) throw std::invalid_argument("missing --" + name);
    return it->second;
  };
  if (mode == "synth") {
    std::cout << run_cli({"synth", "--trace", get("trace"), "--jobs",
                          get("jobs"), "--seed", get("seed"), "--out",
                          get("out")});
    return 0;
  }
  Options options;
  options.csv = get("csv");
  options.work_dir = get("work-dir");
  if (mode == "selftest") return selftest(options);
  options.workload = get("workload");
  const bool serve = options.workload == "serve-mixed";
  if (mode == "cold") {
    const double seconds =
        serve ? cold_serve_setup(options) : cold_batch_setup(options);
    std::printf("{\"setup_s\":%.12g}\n", seconds);
    return 0;
  }
  if (mode != "run") throw std::invalid_argument("unknown mode " + mode);
  options.seed = std::stoull(get("seed"));
  options.seconds = std::stod(get("seconds"));
  options.trace = get("trace") == "1";
  const Report report =
      serve ? run_serve_mixed(options) : run_batch(options);
  std::cout << report.to_json() << "\n";
  return report.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: perfbench_harness synth|cold|run|selftest --flag value...\n";
    return 2;
  }
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string name = argv[i];
    if (name.rfind("--", 0) != 0) {
      std::cerr << "expected --flag, got " << name << "\n";
      return 2;
    }
    flags[name.substr(2)] = argv[i + 1];
  }
  try {
    return perfbench::run_mode(argv[1], flags);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: " << e.what() << "\n";
    return 1;
  }
}
