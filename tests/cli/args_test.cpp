#include "cli/args.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace gpumine::cli {
namespace {

const Usage kUsage = {{{"csv", FlagKind::kText, "FILE", "", true},
                       {"min-support", FlagKind::kDouble, "F", "0.05"},
                       {"top", FlagKind::kUint, "N", "25"},
                       {"format", FlagKind::kChoice, "table|csv", "table"},
                       {"port", FlagKind::kPort, "P", "8080"},
                       {"stats", FlagKind::kSwitch}}};

Result<Args> parse(const std::vector<std::string>& raw) {
  return Args::parse(kUsage, raw);
}

std::string error_of(const std::vector<std::string>& raw) {
  const auto parsed = parse(raw);
  return parsed.ok() ? std::string{} : parsed.error().to_string();
}

TEST(Args, FlagFormsAndPositionals) {
  const auto parsed =
      parse({"--csv", "trace.csv", "--min-support=0.1", "--stats"});
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  const Args& args = parsed.value();
  EXPECT_EQ(args.text("csv"), "trace.csv");
  EXPECT_DOUBLE_EQ(args.number("min-support"), 0.1);
  EXPECT_TRUE(args.has("stats"));
  EXPECT_FALSE(args.has("top"));
  // No command takes positionals: a stray token is named and rejected.
  EXPECT_NE(error_of({"--csv", "t.csv", "extra"}).find("'extra'"),
            std::string::npos);
  EXPECT_NE(error_of({"first", "--csv", "t.csv"}).find("'first'"),
            std::string::npos);
}

TEST(Args, GetOrFallback) {
  const auto parsed = parse({"--csv", "x", "--top", "3"});
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().uint("top"), 3u);
  EXPECT_EQ(parsed.value().text("format"), "table");
  EXPECT_DOUBLE_EQ(parsed.value().number("min-support"), 0.05);
  // A later occurrence overrides an earlier one.
  const auto twice = parse({"--csv", "a", "--csv", "b"});
  ASSERT_TRUE(twice.ok());
  EXPECT_EQ(twice.value().text("csv"), "b");
}

TEST(Args, NumericGetters) {
  const auto parsed = parse({"--csv", "x", "--min-support", "0.25", "--top",
                             "42", "--port", "65535"});
  ASSERT_TRUE(parsed.ok());
  const Args& args = parsed.value();
  EXPECT_DOUBLE_EQ(args.number("min-support"), 0.25);
  EXPECT_EQ(args.uint("top"), 42u);
  EXPECT_EQ(args.uint("port"), 65535u);
  // Only declared names may be read.
  EXPECT_THROW((void)args.text("absent"), std::logic_error);
}

TEST(Args, NumericParseErrors) {
  EXPECT_NE(error_of({"--csv", "x", "--min-support", "abc"})
                .find("--min-support"),
            std::string::npos);
  EXPECT_NE(error_of({"--csv", "x", "--top", "-3"}).find("--top"),
            std::string::npos);
  EXPECT_NE(error_of({"--csv", "x", "--top", "3x"}).find("--top"),
            std::string::npos);
  EXPECT_NE(error_of({"--csv", "x", "--port", "70000"}).find("--port"),
            std::string::npos);
  EXPECT_NE(error_of({"--csv", "x", "--format", "yaml"}).find("--format"),
            std::string::npos);
  EXPECT_TRUE(parse({"--csv", "x", "--format", "csv"}).ok());
}

TEST(Args, BareDoubleDashIsError) {
  EXPECT_FALSE(parse({"--"}).ok());
}

TEST(Args, ValueStartingWithDashDash) {
  // A value flag followed by another flag, or by nothing, has no value.
  EXPECT_NE(error_of({"--csv", "--stats"}).find("--csv: needs a value"),
            std::string::npos);
  EXPECT_NE(error_of({"--stats", "--csv"}).find("--csv: needs a value"),
            std::string::npos);
  // The "=" form can still carry a value that starts with "--".
  const auto parsed = parse({"--csv=--odd"});
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().text("csv"), "--odd");
}

TEST(Args, SwitchTakesNoValue) {
  EXPECT_NE(error_of({"--csv", "x", "--stats=no"}).find("--stats"),
            std::string::npos);
  EXPECT_NE(error_of({"--csv", "x", "--stats", "no"}).find("'no'"),
            std::string::npos);
}

TEST(Args, UndeclaredFlagsAreRejected) {
  EXPECT_EQ(error_of({"--csv", "x", "--typo", "2"}), "unknown flag --typo");
}

TEST(Args, RequiredFlagsAndSources) {
  EXPECT_EQ(error_of({"--top", "3"}), "--csv FILE is required");
  EXPECT_EQ(error_of({"--csv", ""}), "--csv FILE is required");

  const Usage sources = {
      {{"keyword", FlagKind::kText, "ITEM"}},
      {{{"csv", FlagKind::kText, "FILE"}, {"bare", FlagKind::kText, "COLS"}},
       {{"load", FlagKind::kText, "FILE"}}}};
  const auto with = [&](const std::vector<std::string>& raw) {
    const auto parsed = Args::parse(sources, raw);
    return parsed.ok() ? std::string{} : parsed.error().to_string();
  };
  EXPECT_EQ(with({"--csv", "t", "--bare", "Status"}), "");
  EXPECT_EQ(with({"--load", "a"}), "");
  EXPECT_EQ(with({}), "pick exactly one of --csv FILE, --load FILE");
  EXPECT_EQ(with({"--csv", "t", "--load", "a"}),
            "pick exactly one of --csv FILE, --load FILE");
  EXPECT_EQ(with({"--load", "a", "--bare", "Status"}),
            "--bare: cannot be combined with --load");
}

TEST(Args, RenderUsage) {
  const Usage usage = {
      {{"keyword", FlagKind::kText, "ITEM", "", true},
       {"stats", FlagKind::kSwitch}},
      {{{"csv", FlagKind::kText, "FILE"}, {"bare", FlagKind::kText, "COLS"}},
       {{"load", FlagKind::kText, "FILE"}}}};
  EXPECT_EQ(render_usage("mine", usage),
            "  gpumine mine (--csv FILE [--bare COLS] | --load FILE) "
            "--keyword ITEM [--stats]\n");
}

TEST(Args, EmptyInput) {
  const Usage none = {{{"stats", FlagKind::kSwitch}}};
  const auto parsed = Args::parse(none, {});
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed.value().has("stats"));
}

}  // namespace
}  // namespace gpumine::cli
