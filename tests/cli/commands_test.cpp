#include "cli/commands.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "core/snapshot.hpp"
#include "serve/handler.hpp"
#include "serve/query_engine.hpp"
#include "serve/server.hpp"

namespace gpumine::cli {
namespace {

struct RunResult {
  int code;
  std::string out;
  std::string err;
};

RunResult run_cli(const std::vector<std::string>& args) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = run(args, out, err);
  return {code, out.str(), err.str()};
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(Cli, HelpOnNoArgsAndHelpCommand) {
  for (const auto& args :
       {std::vector<std::string>{}, std::vector<std::string>{"help"}}) {
    const auto result = run_cli(args);
    EXPECT_EQ(result.code, 0);
    EXPECT_NE(result.out.find("usage:"), std::string::npos);
  }
  // Each command's entry lists the flags it accepts, including those
  // read through the shared trace loader.
  const std::string help = run_cli({"help"}).out;
  const auto entry = [&](const std::string& command) {
    const std::size_t at = help.find("  gpumine " + command + " ");
    EXPECT_NE(at, std::string::npos) << command;
    return at == std::string::npos
               ? std::string{}
               : help.substr(at, help.find("  gpumine ", at + 1) - at);
  };
  const std::vector<std::pair<std::string, std::string>> listed = {
      {"itemsets", "--bare"},         {"itemsets", "--group"},
      {"itemsets", "--drop"},         {"itemsets", "--categorical"},
      {"mine", "--max-length"},       {"mine", "--categorical"},
      {"predict", "--categorical"},   {"digest", "--exclude"},
      {"digest", "--categorical"},    {"report", "--failed-label"},
      {"report", "--killed-label"}};
  for (const auto& [command, flag] : listed) {
    EXPECT_NE(entry(command).find(flag), std::string::npos)
        << command << " " << flag;
  }
}

TEST(Cli, UnknownCommand) {
  const auto result = run_cli({"frobnicate"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("unknown command"), std::string::npos);
}

TEST(Cli, SynthRequiresOut) {
  const auto result = run_cli({"synth", "--trace", "philly"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("--out"), std::string::npos);
}

TEST(Cli, SynthRejectsUnknownTraceAndFlags) {
  EXPECT_EQ(run_cli({"synth", "--trace", "borg", "--out", "x.csv"}).code, 2);
  const auto typo = run_cli({"synth", "--trace", "philly", "--out",
                             temp_path("t.csv"), "--jbos", "10"});
  EXPECT_EQ(typo.code, 2);
  EXPECT_NE(typo.err.find("--jbos"), std::string::npos);
}

TEST(Cli, SynthThenItemsetsThenMine) {
  const std::string csv = temp_path("cli_trace.csv");
  const auto synth = run_cli(
      {"synth", "--trace", "philly", "--jobs", "4000", "--out", csv});
  ASSERT_EQ(synth.code, 0) << synth.err;
  EXPECT_NE(synth.out.find("4000 jobs"), std::string::npos);

  const auto itemsets =
      run_cli({"itemsets", "--csv", csv, "--min-support", "0.1", "--top",
               "5", "--bare", "Status", "--group", "User"});
  ASSERT_EQ(itemsets.code, 0) << itemsets.err;
  EXPECT_NE(itemsets.out.find("frequent itemsets"), std::string::npos);

  const auto mine = run_cli({"mine", "--csv", csv, "--keyword", "Failed",
                             "--bare", "Status", "--group", "User",
                             "--max-rows", "3"});
  ASSERT_EQ(mine.code, 0) << mine.err;
  EXPECT_NE(mine.out.find("keyword: Failed"), std::string::npos);
  EXPECT_NE(mine.out.find("cause analysis"), std::string::npos);
}

TEST(Cli, MineRequiresKeyword) {
  const std::string csv = temp_path("cli_trace2.csv");
  ASSERT_EQ(run_cli({"synth", "--trace", "supercloud", "--jobs", "2000",
                     "--out", csv})
                .code,
            0);
  const auto result = run_cli({"mine", "--csv", csv});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("--keyword"), std::string::npos);
}

TEST(Cli, MineUnknownKeywordFailsCleanly) {
  const std::string csv = temp_path("cli_trace3.csv");
  ASSERT_EQ(run_cli({"synth", "--trace", "supercloud", "--jobs", "2000",
                     "--out", csv})
                .code,
            0);
  const auto result =
      run_cli({"mine", "--csv", csv, "--keyword", "No Such Item", "--bare",
               "Status"});
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.err.find("No Such Item"), std::string::npos);
}

TEST(Cli, MineMissingCsvFileIsError) {
  const auto result = run_cli(
      {"mine", "--csv", "/does/not/exist.csv", "--keyword", "Failed"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("exist.csv"), std::string::npos);
}

TEST(Cli, MineOutputFormats) {
  const std::string csv = temp_path("cli_fmt.csv");
  ASSERT_EQ(run_cli({"synth", "--trace", "philly", "--jobs", "3000", "--out",
                     csv})
                .code,
            0);
  const std::vector<std::string> base = {"mine",  "--csv",    csv,
                                         "--keyword", "Failed", "--bare",
                                         "Status"};
  auto with_format = [&](const char* format) {
    auto args = base;
    args.push_back("--format");
    args.push_back(format);
    return run_cli(args);
  };
  const auto table = with_format("table");
  EXPECT_EQ(table.code, 0);
  EXPECT_NE(table.out.find("cause analysis"), std::string::npos);
  const auto csv_out = with_format("csv");
  EXPECT_EQ(csv_out.code, 0);
  EXPECT_NE(csv_out.out.find("kind,antecedent,consequent"),
            std::string::npos);
  const auto json_out = with_format("json");
  EXPECT_EQ(json_out.code, 0);
  EXPECT_NE(json_out.out.find("\"keyword\":\"Failed\""), std::string::npos);
  const auto md = with_format("md");
  EXPECT_EQ(md.code, 0);
  EXPECT_NE(md.out.find("| Antecedent |"), std::string::npos);
  EXPECT_EQ(with_format("yaml").code, 2);
}

TEST(Cli, ItemsetsSaveThenMineLoad) {
  const std::string csv = temp_path("cli_save.csv");
  const std::string archive = temp_path("cli_save.itemsets");
  ASSERT_EQ(run_cli({"synth", "--trace", "philly", "--jobs", "3000", "--out",
                     csv})
                .code,
            0);
  const auto saved = run_cli({"itemsets", "--csv", csv, "--bare", "Status",
                              "--save", archive, "--top", "1"});
  ASSERT_EQ(saved.code, 0) << saved.err;
  EXPECT_NE(saved.out.find("saved itemsets"), std::string::npos);

  // Mining from the archive must match mining from the CSV.
  const auto from_csv = run_cli(
      {"mine", "--csv", csv, "--keyword", "Failed", "--bare", "Status"});
  const auto from_archive =
      run_cli({"mine", "--load", archive, "--keyword", "Failed"});
  ASSERT_EQ(from_archive.code, 0) << from_archive.err;
  EXPECT_EQ(from_csv.out, from_archive.out);
}

TEST(Cli, PredictEndToEnd) {
  const std::string csv = temp_path("cli_trace5.csv");
  ASSERT_EQ(run_cli({"synth", "--trace", "pai", "--jobs", "6000", "--out",
                     csv})
                .code,
            0);
  const auto result = run_cli(
      {"predict", "--csv", csv, "--target", "Failed", "--bare",
       "Status,Framework,Tasks", "--group", "User,Group", "--drop",
       "job_id,Queue,Runtime,CPU Util,Memory Used,SM Util,GMem Used"});
  ASSERT_EQ(result.code, 0) << result.err;
  // Byte for byte: predict generates only the target's rules, which must
  // be exactly the target's share of generating every rule.
  EXPECT_EQ(result.out,
            "train rows: 4182, test rows: 1818, classifier rules: 169\n"
            "accuracy=0.723872 precision=0.610759 recall=0.601246 "
            "f1=0.605965\n"
            "  rule[0] {Group = Freq Group, GPU Request = Bin2, "
            "CPU Request = Bin1} => {Failed}\n"
            "  rule[1] {Group = Freq Group, Tensorflow, GPU Request = Bin2, "
            "CPU Request = Bin1} => {Failed}\n"
            "  rule[2] {Group = Freq Group, GPU Type = None, "
            "GPU Request = Bin2, CPU Request = Bin1} => {Failed}\n"
            "  rule[3] {User = Freq User, Group = Freq Group, Tensorflow, "
            "CPU Request = Bin1} => {Failed}\n"
            "  rule[4] {User = Freq User, Group = Freq Group, "
            "CPU Request = Bin1, Mem Request = Std} => {Failed}\n");
}

TEST(Cli, PredictValidation) {
  const std::string csv = temp_path("cli_trace6.csv");
  ASSERT_EQ(run_cli({"synth", "--trace", "philly", "--jobs", "1000",
                     "--out", csv})
                .code,
            0);
  // Missing --target.
  EXPECT_EQ(run_cli({"predict", "--csv", csv}).code, 2);
  // Bad holdout.
  EXPECT_EQ(run_cli({"predict", "--csv", csv, "--target", "Failed",
                     "--holdout", "1.5"})
                .code,
            2);
  // Unknown target item.
  EXPECT_EQ(run_cli({"predict", "--csv", csv, "--target", "Nope", "--bare",
                     "Status"})
                .code,
            1);
}

TEST(Cli, DigestEndToEnd) {
  const std::string csv = temp_path("cli_digest.csv");
  ASSERT_EQ(run_cli({"synth", "--trace", "pai", "--jobs", "6000", "--out",
                     csv})
                .code,
            0);
  const auto result = run_cli({"digest", "--csv", csv, "--keyword", "Failed",
                               "--bare", "Status,Framework", "--group",
                               "User,Group", "--exclude", "Terminated"});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("digest (greedy coverage"), std::string::npos);
  EXPECT_NE(result.out.find("certified"), std::string::npos);
  EXPECT_NE(result.out.find("safe patterns"), std::string::npos);
  EXPECT_EQ(result.out.find("{Terminated}"), std::string::npos);
  // Missing keyword.
  EXPECT_EQ(run_cli({"digest", "--csv", csv}).code, 2);
}

TEST(Cli, CompareArchives) {
  const std::string csv_a = temp_path("cli_cmp_a.csv");
  const std::string csv_b = temp_path("cli_cmp_b.csv");
  const std::string ar_a = temp_path("cli_cmp_a.itemsets");
  const std::string ar_b = temp_path("cli_cmp_b.itemsets");
  ASSERT_EQ(run_cli({"synth", "--trace", "philly", "--jobs", "3000",
                     "--seed", "1", "--out", csv_a})
                .code,
            0);
  ASSERT_EQ(run_cli({"synth", "--trace", "philly", "--jobs", "3000",
                     "--seed", "2", "--out", csv_b})
                .code,
            0);
  ASSERT_EQ(run_cli({"itemsets", "--csv", csv_a, "--bare", "Status",
                     "--save", ar_a})
                .code,
            0);
  ASSERT_EQ(run_cli({"itemsets", "--csv", csv_b, "--bare", "Status",
                     "--save", ar_b})
                .code,
            0);
  const auto result =
      run_cli({"compare", "--a", ar_a, "--b", ar_b, "--keyword", "Failed"});
  ASSERT_EQ(result.code, 0) << result.err;
  // Same generator, different seed: overlap should be substantial. The
  // output is pinned byte for byte: compare generates only the keyword's
  // rules, which must be exactly the keyword's share of every rule.
  EXPECT_EQ(result.out,
            "A: 20 keyword rules; B: 34; shared: 16 (Jaccard 0.421053)\n"
            "on shared rules: mean |d conf| = 0.0244689, "
            "mean |d lift| = 0.0920967\n"
            "only in A (4):\n"
            "  {GPU Mem = GPU 12GB Mem, Failed} => "
            "{Num Attempts = Num Attempts > 1}\n"
            "  {Num Attempts = Num Attempts > 1} => "
            "{GPU Mem = GPU 12GB Mem, Failed}\n"
            "  {GPU Mem = GPU 12GB Mem, Num Attempts = Num Attempts > 1} => "
            "{Failed}\n"
            "only in B (18):\n"
            "  {GPU Count = Multi-GPU} => {Failed, Min SM Util = 0%}\n"
            "  {Failed, Min SM Util = 0%} => {GPU Count = Multi-GPU}\n"
            "  {GPU Count = Multi-GPU} => {Failed}\n");

  // A PAI archive against itself: every keyword rule is shared.
  const std::string csv_pai = temp_path("cli_cmp_pai.csv");
  const std::string ar_pai = temp_path("cli_cmp_pai.itemsets");
  ASSERT_EQ(run_cli({"synth", "--trace", "pai", "--jobs", "3000", "--out",
                     csv_pai})
                .code,
            0);
  ASSERT_EQ(run_cli({"itemsets", "--csv", csv_pai, "--bare", "Status",
                     "--save", ar_pai})
                .code,
            0);
  const auto self = run_cli(
      {"compare", "--a", ar_pai, "--b", ar_pai, "--keyword", "Failed"});
  ASSERT_EQ(self.code, 0) << self.err;
  EXPECT_EQ(self.out,
            "A: 11856 keyword rules; B: 11856; shared: 11856 (Jaccard 1)\n"
            "on shared rules: mean |d conf| = 0, mean |d lift| = 0\n"
            "only in A (0):\n"
            "only in B (0):\n");
  // Missing flags.
  EXPECT_EQ(run_cli({"compare", "--a", ar_a}).code, 2);
}

TEST(Cli, ReportDrilldown) {
  const std::string csv = temp_path("cli_report.csv");
  ASSERT_EQ(run_cli({"synth", "--trace", "supercloud", "--jobs", "3000",
                     "--out", csv})
                .code,
            0);
  const auto result = run_cli({"report", "--csv", csv, "--top", "3"});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("principal"), std::string::npos);
  EXPECT_NE(result.out.find("idle%"), std::string::npos);
  // Bad sort flag.
  EXPECT_EQ(run_cli({"report", "--csv", csv, "--sort", "sideways"}).code, 2);
  // Missing CSV.
  EXPECT_EQ(run_cli({"report"}).code, 2);
}

TEST(Cli, ItemsetsFamilySelection) {
  const std::string csv = temp_path("cli_family.csv");
  ASSERT_EQ(run_cli({"synth", "--trace", "philly", "--jobs", "2000", "--out",
                     csv})
                .code,
            0);
  auto count_of = [&](const char* family) {
    const auto result = run_cli({"itemsets", "--csv", csv, "--bare",
                                 "Status", "--family", family, "--top", "1"});
    EXPECT_EQ(result.code, 0) << result.err;
    return std::stoul(result.out.substr(result.out.find_first_of("0123456789")));
  };
  const auto all = count_of("all");
  const auto closed = count_of("closed");
  const auto maximal = count_of("maximal");
  EXPECT_LE(closed, all);
  EXPECT_LE(maximal, closed);
  EXPECT_GT(maximal, 0u);
  EXPECT_EQ(run_cli({"itemsets", "--csv", csv, "--family", "open"}).code, 2);
}

TEST(Cli, ItemsetsAlgorithmSelection) {
  const std::string csv = temp_path("cli_trace4.csv");
  ASSERT_EQ(run_cli({"synth", "--trace", "philly", "--jobs", "1500", "--out",
                     csv})
                .code,
            0);
  // FP-Growth is the only miner and it mines the whole database in one
  // run, so there is no algorithm, engine or partition flag: each is
  // rejected as an unknown flag, like every other stray flag.
  const auto plain = run_cli({"itemsets", "--csv", csv, "--min-support", "0.2"});
  EXPECT_EQ(plain.code, 0) << plain.err;
  const std::vector<std::pair<std::string, std::string>> removed = {
      {"--algorithm", "fpgrowth"},
      {"--algorithm", "eclat"},
      {"--engine", "son"},
      {"--partitions", "4"},
  };
  for (const auto& [flag, value] : removed) {
    const auto result = run_cli(
        {"itemsets", "--csv", csv, flag, value, "--min-support", "0.2"});
    EXPECT_EQ(result.code, 2) << flag << " " << value;
    EXPECT_NE(result.err.find("unknown flag " + flag), std::string::npos)
        << result.err;
  }
}

TEST(Cli, SnapshotValidation) {
  // --out is mandatory.
  const auto no_out = run_cli({"snapshot"});
  EXPECT_EQ(no_out.code, 2);
  EXPECT_NE(no_out.err.find("--out"), std::string::npos);
  // A missing archive is a clean usage error, not a crash.
  EXPECT_EQ(run_cli({"snapshot", "--from-itemsets", "/no/such.itemsets",
                     "--out", temp_path("x.snap")})
                .code,
            2);
}

TEST(Cli, SnapshotThenServeCheck) {
  const std::string csv = temp_path("cli_serve.csv");
  const std::string snap = temp_path("cli_serve.snap");
  ASSERT_EQ(run_cli({"synth", "--trace", "pai", "--jobs", "3000", "--out",
                     csv})
                .code,
            0);
  const auto snapshot = run_cli({"snapshot", "--csv", csv, "--out", snap});
  ASSERT_EQ(snapshot.code, 0) << snapshot.err;
  EXPECT_NE(snapshot.out.find("wrote snapshot:"), std::string::npos);

  // --check loads the snapshot, binds an ephemeral port, and exits 0.
  const auto check = run_cli(
      {"serve", "--snapshot", snap, "--port", "0", "--check"});
  ASSERT_EQ(check.code, 0) << check.err;
  EXPECT_NE(check.out.find("loaded "), std::string::npos);
  EXPECT_NE(check.out.find("serving on 127.0.0.1:"), std::string::npos);
}

TEST(Cli, ServeValidation) {
  const auto no_snapshot = run_cli({"serve"});
  EXPECT_EQ(no_snapshot.code, 2);
  EXPECT_NE(no_snapshot.err.find("--snapshot"), std::string::npos);
  EXPECT_EQ(run_cli({"serve", "--snapshot", "x.snap", "--port", "70000"})
                .code,
            2);
  // A file that opens but does not load is a runtime failure.
  const std::string bad = temp_path("cli_bad.snap");
  {
    std::ofstream out(bad);
    out << "not a snapshot\n";
  }
  EXPECT_EQ(run_cli({"serve", "--snapshot", bad, "--port", "0", "--check"})
                .code,
            1);
}

// Every flag that names an input file, on every command: a missing
// file is a usage error (exit 2) naming the path, before any work.
TEST(Cli, MissingInputFileIsAUsageError) {
  const std::string missing = temp_path("no_such_input");
  const std::string out = temp_path("cli_never_written.snap");
  const std::vector<std::vector<std::string>> cases = {
      {"itemsets", "--csv", missing},
      {"mine", "--csv", missing, "--keyword", "X"},
      {"mine", "--load", missing, "--keyword", "X"},
      {"predict", "--csv", missing, "--target", "X"},
      {"report", "--csv", missing},
      {"digest", "--csv", missing, "--keyword", "X"},
      {"compare", "--a", missing, "--b", missing, "--keyword", "X"},
      {"snapshot", "--csv", missing, "--out", out},
      {"snapshot", "--from-itemsets", missing, "--out", out},
      {"serve", "--snapshot", missing, "--port", "0", "--check"},
      {"trace-check", "--file", missing},
      {"metrics-check", "--file", missing},
  };
  const std::set<std::string> input_flags = {"csv",           "load",
                                             "from-itemsets", "a",
                                             "b",             "snapshot",
                                             "file"};
  std::set<std::string> covered;
  for (const auto& args : cases) {
    const auto result = run_cli(args);
    EXPECT_EQ(result.code, 2) << args[0] << " " << args[1];
    EXPECT_NE(result.err.find(missing), std::string::npos)
        << args[0] << " " << args[1] << ": " << result.err;
    for (const std::string& arg : args) {
      if (arg.rfind("--", 0) == 0) covered.insert(args[0] + " " + arg);
    }
  }
  std::ifstream never(out);
  EXPECT_FALSE(never.good());
  // The table must name every declared input-file flag.
  for (const auto& [command, usage] : command_usages()) {
    std::vector<Flag> flags = usage->flags;
    for (const auto& source : usage->sources) {
      flags.insert(flags.end(), source.begin(), source.end());
    }
    for (const Flag& flag : flags) {
      if (input_flags.count(std::string(flag.name)) == 0) continue;
      EXPECT_EQ(covered.count(std::string(command) + " --" +
                              std::string(flag.name)),
                1u)
          << command << " --" << flag.name << " has no case";
    }
  }
}

TEST(Cli, QueryValidation) {
  // Exactly one action must be picked.
  EXPECT_EQ(run_cli({"query"}).code, 2);
  EXPECT_EQ(
      run_cli({"query", "--keyword", "Failed", "--stats"}).code, 2);
  const auto both = run_cli({"query", "--health", "--reload"});
  EXPECT_EQ(both.code, 2);
  EXPECT_NE(both.err.find("exactly one"), std::string::npos);
}

TEST(Cli, QueryAgainstLiveServer) {
  // Build a snapshot through the CLI, serve it in-process, and drive the
  // `query` client over a real socket.
  const std::string csv = temp_path("cli_query.csv");
  const std::string snap = temp_path("cli_query.snap");
  ASSERT_EQ(run_cli({"synth", "--trace", "pai", "--jobs", "3000", "--out",
                     csv})
                .code,
            0);
  ASSERT_EQ(run_cli({"snapshot", "--csv", csv, "--out", snap}).code, 0);

  auto loaded = core::load_rule_snapshot_file(snap);
  ASSERT_TRUE(loaded.ok()) << loaded.error().to_string();
  auto engine = std::make_shared<const serve::QueryEngine>(
      std::move(loaded).value());
  serve::RequestHandler handler(engine, snap);
  serve::Server server(handler, {});
  ASSERT_TRUE(server.start().ok());
  const std::string port = std::to_string(server.port());

  const auto health = run_cli({"query", "--port", port, "--health"});
  EXPECT_EQ(health.code, 0) << health.err;
  EXPECT_EQ(health.out, "ok\n");

  // The client percent-encodes keywords with spaces, '=' and '%'.
  const auto keyword = run_cli(
      {"query", "--port", port, "--keyword", "SM Util = 0%"});
  EXPECT_EQ(keyword.code, 0) << keyword.err;
  EXPECT_EQ(keyword.out, *engine->query_json("SM Util = 0%") + "\n");

  const auto missing = run_cli(
      {"query", "--port", port, "--keyword", "No Such Item"});
  EXPECT_EQ(missing.code, 1);

  const auto support = run_cli(
      {"query", "--port", port, "--items", "SM Util = 0%,GMem = 0%"});
  EXPECT_EQ(support.code, 0) << support.err;
  EXPECT_NE(support.out.find("\"frequent\":"), std::string::npos);

  const auto stats = run_cli({"query", "--port", port, "--stats"});
  EXPECT_EQ(stats.code, 0) << stats.err;
  EXPECT_NE(stats.out.find("\"total_requests\":"), std::string::npos);

  const auto reload = run_cli({"query", "--port", port, "--reload"});
  EXPECT_EQ(reload.code, 0) << reload.err;
  EXPECT_NE(reload.out.find("\"reloaded\":true"), std::string::npos);

  server.stop();
  // With the server gone, the client reports a connection error.
  EXPECT_EQ(run_cli({"query", "--port", port, "--health"}).code, 1);
}

TEST(Cli, MineTraceAndStatsJsonRoundTrip) {
  const std::string csv = temp_path("cli_traced.csv");
  const std::string trace = temp_path("cli_traced_trace.json");
  const std::string stats = temp_path("cli_traced_stats.json");
  ASSERT_EQ(run_cli({"synth", "--trace", "philly", "--jobs", "3000", "--out",
                     csv})
                .code,
            0);
  const auto mine = run_cli({"mine", "--csv", csv, "--keyword", "Failed",
                             "--bare", "Status", "--stats", "--trace", trace,
                             "--stats-json", stats});
  ASSERT_EQ(mine.code, 0) << mine.err;
  // The CLI self-checks the exported file and reports the span count.
  EXPECT_NE(mine.out.find("wrote trace:"), std::string::npos);
  EXPECT_NE(mine.out.find("trace spans (per name, sorted):"),
            std::string::npos);

  // trace-check accepts the file the miner just wrote.
  const auto check = run_cli({"trace-check", "--file", trace});
  EXPECT_EQ(check.code, 0) << check.err;
  EXPECT_NE(check.out.find("well-formed spans"), std::string::npos);

  // The stats JSON sidecar embeds the span summary next to the metrics.
  std::ifstream in(stats);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string stats_text = buffer.str();
  EXPECT_NE(stats_text.find("\"trace_spans\":"), std::string::npos);
  EXPECT_NE(stats_text.find("\"prep_stage\":"), std::string::npos);
  EXPECT_NE(stats_text.find("\"mine/fpgrowth\""), std::string::npos);
}

TEST(Cli, MineMetricsOutWritesLintedExposition) {
  const std::string csv = temp_path("cli_metrics.csv");
  const std::string prom = temp_path("cli_metrics.prom");
  ASSERT_EQ(run_cli({"synth", "--trace", "philly", "--jobs", "3000", "--out",
                     csv})
                .code,
            0);
  const auto mine = run_cli({"mine", "--csv", csv, "--keyword", "Failed",
                             "--bare", "Status", "--metrics-out", prom});
  ASSERT_EQ(mine.code, 0) << mine.err;
  EXPECT_NE(mine.out.find("wrote metrics:"), std::string::npos);

  // metrics-check accepts the file the miner just wrote.
  const auto check = run_cli({"metrics-check", "--file", prom});
  EXPECT_EQ(check.code, 0) << check.err;
  EXPECT_NE(check.out.find("well-formed series"), std::string::npos);

  std::ifstream in(prom);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  EXPECT_NE(text.find("# TYPE gpumine_mining_wall_seconds gauge"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE gpumine_rules_funnel_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("gpumine_prep_transactions{kind=\"input\"}"),
            std::string::npos);
}

TEST(Cli, MetricsCheckRejectsMissingAndMalformedFiles) {
  EXPECT_EQ(run_cli({"metrics-check"}).code, 2);
  const std::string bad = temp_path("cli_bad_metrics.prom");
  {
    std::ofstream out(bad);
    out << "orphan_sample 1\n";
  }
  const auto result = run_cli({"metrics-check", "--file", bad});
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.err.find("invalid metrics"), std::string::npos);
}

TEST(Cli, ServeCheckScrapesAndLintsMetrics) {
  const std::string csv = temp_path("cli_serve_metrics.csv");
  const std::string snap = temp_path("cli_serve_metrics.snap");
  const std::string prom = temp_path("cli_serve_metrics.prom");
  ASSERT_EQ(run_cli({"synth", "--trace", "pai", "--jobs", "3000", "--out",
                     csv})
                .code,
            0);
  ASSERT_EQ(run_cli({"snapshot", "--csv", csv, "--out", snap}).code, 0);

  const auto check = run_cli({"serve", "--snapshot", snap, "--port", "0",
                              "--check", "--metrics-out", prom});
  ASSERT_EQ(check.code, 0) << check.err;
  EXPECT_NE(check.out.find("metrics check ok:"), std::string::npos);
  EXPECT_NE(check.out.find("wrote metrics:"), std::string::npos);

  EXPECT_EQ(run_cli({"metrics-check", "--file", prom}).code, 0);
  std::ifstream in(prom);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  EXPECT_NE(text.find("gpumine_server_requests_total{endpoint=\"health\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("gpumine_snapshot_rules "), std::string::npos);
}

TEST(Cli, MineFlightDumpLeavesALoadableBundle) {
  const std::string csv = temp_path("cli_flight.csv");
  const std::string dump = temp_path("cli_flight_dump.json");
  ASSERT_EQ(run_cli({"synth", "--trace", "philly", "--jobs", "3000", "--out",
                     csv})
                .code,
            0);
  const auto mine = run_cli({"mine", "--csv", csv, "--keyword", "Failed",
                             "--bare", "Status", "--flight-dump", dump});
  ASSERT_EQ(mine.code, 0) << mine.err;
  // A clean run still leaves a dump of the retained rings, and it must
  // load as a Chrome trace.
  const auto check = run_cli({"trace-check", "--file", dump});
  EXPECT_EQ(check.code, 0) << check.err;
}

// --flight-dump alone puts the tracer in ring mode; its retained chunks
// must not leak into --stats-json, which reports spans only for --trace.
TEST(Cli, MineFlightDumpLeavesTraceSpansEmpty) {
  const std::string csv = temp_path("cli_flight_stats.csv");
  const std::string dump = temp_path("cli_flight_stats_dump.json");
  const std::string stats = temp_path("cli_flight_stats.json");
  ASSERT_EQ(run_cli({"synth", "--trace", "philly", "--jobs", "3000", "--out",
                     csv})
                .code,
            0);
  const auto mine = run_cli({"mine", "--csv", csv, "--keyword", "Failed",
                             "--bare", "Status", "--flight-dump", dump,
                             "--stats-json", stats});
  ASSERT_EQ(mine.code, 0) << mine.err;
  std::ifstream in(stats);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("\"trace_spans\":[]"), std::string::npos)
      << buffer.str();
  std::ifstream dumped(dump);
  std::stringstream dump_text;
  dump_text << dumped.rdbuf();
  EXPECT_NE(dump_text.str().find("rules/prune"), std::string::npos);
}

TEST(Cli, ServeCheckTraceCoversEngineBuild) {
  const std::string csv = temp_path("cli_serve_trace.csv");
  const std::string snap = temp_path("cli_serve_trace.snap");
  const std::string trace = temp_path("cli_serve_trace.json");
  ASSERT_EQ(run_cli({"synth", "--trace", "pai", "--jobs", "3000", "--out",
                     csv})
                .code,
            0);
  ASSERT_EQ(run_cli({"snapshot", "--csv", csv, "--out", snap}).code, 0);
  const auto check = run_cli({"serve", "--snapshot", snap, "--port", "0",
                              "--check", "--trace", trace});
  ASSERT_EQ(check.code, 0) << check.err;
  std::ifstream in(trace);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("\"serve/snapshot_load\""), std::string::npos);
  EXPECT_NE(buffer.str().find("\"serve/engine_build\""), std::string::npos);
}

TEST(Cli, MineRejectsBadLogLevelAndAcceptsLogFile) {
  const std::string csv = temp_path("cli_log.csv");
  const std::string log = temp_path("cli_log.jsonl");
  ASSERT_EQ(run_cli({"synth", "--trace", "philly", "--jobs", "2000", "--out",
                     csv})
                .code,
            0);
  const auto bad = run_cli({"mine", "--csv", csv, "--keyword", "Failed",
                            "--bare", "Status", "--log-level", "loud"});
  EXPECT_EQ(bad.code, 2);
  EXPECT_NE(bad.err.find("log"), std::string::npos);

  const auto good = run_cli({"mine", "--csv", csv, "--keyword", "Failed",
                             "--bare", "Status", "--log-level", "debug",
                             "--log-file", log});
  EXPECT_EQ(good.code, 0) << good.err;
  Logger::instance().reset_for_tests();
}

TEST(Cli, TraceCheckRejectsMissingAndMalformedFiles) {
  EXPECT_EQ(run_cli({"trace-check"}).code, 2);
  const std::string bad = temp_path("cli_bad_trace.json");
  {
    std::ofstream out(bad);
    out << "{\"traceEvents\":[]}";
  }
  const auto result = run_cli({"trace-check", "--file", bad});
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.err.find("invalid trace"), std::string::npos);
}

TEST(Cli, RejectsStrayPositionals) {
  const std::string csv = temp_path("cli_stray.csv");
  ASSERT_EQ(run_cli({"synth", "--trace", "philly", "--jobs", "1000", "--out",
                     csv})
                .code,
            0);
  const auto mine = run_cli({"mine", "--csv", csv, "--bare", "Status",
                             "--keyword", "Failed", "Killed"});
  EXPECT_EQ(mine.code, 2);
  EXPECT_NE(mine.err.find("'Killed'"), std::string::npos) << mine.err;
  const auto synth = run_cli({"synth", "pai", "--trace", "philly", "--out",
                              temp_path("cli_stray_out.csv")});
  EXPECT_EQ(synth.code, 2);
  EXPECT_NE(synth.err.find("'pai'"), std::string::npos) << synth.err;
}

TEST(Cli, RejectsWrongValueShapes) {
  const std::string csv = temp_path("cli_shapes.csv");
  ASSERT_EQ(run_cli({"synth", "--trace", "philly", "--jobs", "1000", "--out",
                     csv})
                .code,
            0);
  // An output flag with no value names the flag instead of writing nothing.
  for (const char* flag : {"--trace", "--stats-json", "--metrics-out",
                           "--flight-dump", "--log-file"}) {
    const auto result = run_cli({"mine", "--csv", csv, "--keyword", "Failed",
                                 "--bare", "Status", flag});
    EXPECT_EQ(result.code, 2) << flag;
    EXPECT_NE(result.err.find(std::string(flag) + ": needs a value"),
              std::string::npos)
        << result.err;
  }
  // A switch given a value is an error, not a silent "on".
  const auto stats = run_cli({"itemsets", "--csv", csv, "--stats=no"});
  EXPECT_EQ(stats.code, 2);
  EXPECT_NE(stats.err.find("--stats"), std::string::npos) << stats.err;
  const auto check =
      run_cli({"serve", "--snapshot", "/no/such.snap", "--check=no"});
  EXPECT_EQ(check.code, 2);
  EXPECT_NE(check.err.find("--check"), std::string::npos) << check.err;
}

// A command takes only the flags it reads: `itemsets` generates no
// rules and `predict` prunes none.
TEST(Cli, RuleFlagsOnlyWhereRead) {
  const std::vector<std::vector<std::string>> cases = {
      {"itemsets", "--csv", "x.csv", "--min-lift", "2"},
      {"itemsets", "--csv", "x.csv", "--c-lift", "2"},
      {"itemsets", "--csv", "x.csv", "--c-supp", "2"},
      {"predict", "--csv", "x.csv", "--target", "X", "--c-lift", "2"},
      {"predict", "--csv", "x.csv", "--target", "X", "--c-supp", "2"},
  };
  for (const auto& args : cases) {
    const auto result = run_cli(args);
    EXPECT_EQ(result.code, 2) << args[0] << " " << args[3];
    EXPECT_NE(result.err.find("unknown flag " + args[args.size() - 2]),
              std::string::npos)
        << result.err;
  }
}

TEST(Cli, ValidatesBeforeWorking) {
  const std::string csv = temp_path("cli_validate.csv");
  const std::string stats = temp_path("cli_validate_stats.json");
  ASSERT_EQ(run_cli({"synth", "--trace", "philly", "--jobs", "1000", "--out",
                     csv})
                .code,
            0);
  std::remove(stats.c_str());
  const auto mine = run_cli({"mine", "--csv", csv, "--keyword", "Failed",
                             "--format", "yaml", "--stats-json", stats});
  EXPECT_EQ(mine.code, 2);
  EXPECT_NE(mine.err.find("--format"), std::string::npos) << mine.err;
  EXPECT_FALSE(std::ifstream(stats).good()) << "wrote " << stats;
  // The port check is the one `serve` uses; nothing is dialled.
  const auto query = run_cli({"query", "--port", "70000", "--health"});
  EXPECT_EQ(query.code, 2);
  EXPECT_NE(query.err.find("--port"), std::string::npos) << query.err;
}

// `mine --csv | --load` and `snapshot --csv | --from-itemsets` take
// their input from exactly one source; the other source's flags are
// rejected, not ignored.
TEST(Cli, SourceExclusiveFlagsAreRejected) {
  const std::string csv = temp_path("cli_sources.csv");
  const std::string archive = temp_path("cli_sources.itemsets");
  ASSERT_EQ(run_cli({"synth", "--trace", "philly", "--jobs", "1000", "--out",
                     csv})
                .code,
            0);
  ASSERT_EQ(run_cli({"itemsets", "--csv", csv, "--bare", "Status", "--save",
                     archive})
                .code,
            0);
  ASSERT_EQ(run_cli({"mine", "--load", archive, "--keyword", "Failed"}).code,
            0);
  EXPECT_EQ(run_cli({"mine", "--load", archive, "--keyword", "Failed",
                     "--bare", "Status"})
                .code,
            2);
  EXPECT_EQ(run_cli({"mine", "--load", archive, "--csv", csv, "--keyword",
                     "Failed"})
                .code,
            2);
  EXPECT_EQ(run_cli({"snapshot", "--from-itemsets", archive, "--out",
                     temp_path("cli_sources.snap"), "--min-support", "0.1"})
                .code,
            2);
}

// Every declared flag is listed in its command's help entry and is
// accepted by that command's parser.
TEST(Cli, EveryDeclaredFlagIsInHelpAndAccepted) {
  const std::string help = run_cli({"help"}).out;
  for (const auto& [command, usage] : command_usages()) {
    const std::size_t at = help.find("  gpumine " + std::string(command));
    ASSERT_NE(at, std::string::npos) << command;
    const std::string entry =
        help.substr(at, help.find("  gpumine ", at + 1) - at);
    std::vector<Flag> flags = usage->flags;
    for (const auto& source : usage->sources) {
      flags.insert(flags.end(), source.begin(), source.end());
    }
    for (const Flag& flag : flags) {
      const std::string name = "--" + std::string(flag.name);
      const std::string shown =
          flag.kind == FlagKind::kSwitch
              ? name
              : name + " " + std::string(flag.placeholder);
      EXPECT_NE(entry.find(shown), std::string::npos) << command << " " << name;
      std::string value = "1";
      if (flag.kind == FlagKind::kText) value = "x";
      if (flag.kind == FlagKind::kChoice) {
        value = flag.placeholder.substr(0, flag.placeholder.find('|'));
      }
      std::vector<std::string> raw = {name};
      if (flag.kind != FlagKind::kSwitch) raw.push_back(value);
      const auto parsed = Args::parse(*usage, raw);
      if (!parsed.ok()) {
        EXPECT_EQ(parsed.error().to_string().find("unknown flag"),
                  std::string::npos)
            << command << " " << parsed.error().to_string();
        EXPECT_EQ(parsed.error().context.find(name), std::string::npos)
            << command << " " << parsed.error().to_string();
      }
    }
  }
}

}  // namespace
}  // namespace gpumine::cli
