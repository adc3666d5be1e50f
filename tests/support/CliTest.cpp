//===- tests/support/CliTest.cpp - Strict choice/number/flag parsing ------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "support/Cli.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>

using namespace slope;
using namespace slope::cli;

namespace {

enum class Color { Red, Green };
const Choice<Color> ColorNames[] = {{"red", Color::Red},
                                    {"green", Color::Green}};

/// Parses \p Args (argv[0] excluded) with \p Flags.
Expected<std::vector<std::string>> parseList(const FlagParser &Flags,
                                             std::vector<const char *> Args) {
  Args.insert(Args.begin(), "prog");
  return Flags.parse(static_cast<int>(Args.size()), Args.data());
}

} // namespace

TEST(CliChoice, AcceptsExactSpellingsOnly) {
  ASSERT_TRUE(bool(parseChoice("green", ColorNames)));
  EXPECT_EQ(*parseChoice("green", ColorNames), Color::Green);
  for (const char *Bad : {"gren", "Green", "", "red "}) {
    Expected<Color> C = parseChoice(Bad, ColorNames);
    ASSERT_FALSE(bool(C)) << Bad;
    EXPECT_EQ(C.error().message(), "expected one of red|green");
  }
  EXPECT_STREQ(nameOf(ColorNames, Color::Red), "red");
}

TEST(CliNumber, WholeStringInRange) {
  EXPECT_EQ(*parseNumber<unsigned>("12"), 12u);
  EXPECT_EQ(*parseNumber<double>("0.25"), 0.25);
  EXPECT_EQ(*parseNumber<unsigned>("1024", 0u, 1024u), 1024u);
}

TEST(CliNumber, RejectsTrailingJunkSignEmptyAndOverflow) {
  EXPECT_FALSE(bool(parseNumber<unsigned>("12abc")));
  EXPECT_FALSE(bool(parseNumber<unsigned>("-1")));
  EXPECT_FALSE(bool(parseNumber<int>("-1")));
  EXPECT_FALSE(bool(parseNumber<size_t>("")));
  EXPECT_FALSE(bool(parseNumber<uint64_t>("184467440737095516160")));
  EXPECT_FALSE(bool(parseNumber<uint32_t>("4294967296")));
  EXPECT_FALSE(bool(parseNumber<double>("1e999")));
  EXPECT_FALSE(bool(parseNumber<double>("nan")));
  EXPECT_FALSE(bool(parseNumber<double>("0.5x")));
  Expected<unsigned> Big = parseNumber<unsigned>("1025", 0u, 1024u);
  ASSERT_FALSE(bool(Big));
  EXPECT_EQ(Big.error().message(), "expected an integer in [0, 1024]");
  EXPECT_EQ(parseNumber<size_t>("0", 1).error().message(),
            "expected an integer >= 1");
}

TEST(CliFlags, EqualsAndSpaceFormsAgree) {
  for (std::vector<const char *> Args :
       {std::vector<const char *>{"--n", "7", "--color", "green"},
        std::vector<const char *>{"--n=7", "--color=green"}}) {
    size_t N = 0;
    Color C = Color::Red;
    FlagParser Flags;
    Flags.number("--n", N);
    Flags.choice("--color", C, ColorNames);
    ASSERT_TRUE(bool(parseList(Flags, Args)));
    EXPECT_EQ(N, 7u);
    EXPECT_EQ(C, Color::Green);
  }
}

TEST(CliFlags, ShortNamesTogglesAndEmptyEqualsValue) {
  std::string Platform, Path = "unset";
  bool List = false;
  FlagParser Flags;
  Flags.text("-p", Platform, "NAME");
  Flags.text("--out", Path, "PATH");
  Flags.toggle("--list", List);
  ASSERT_TRUE(bool(parseList(Flags, {"-p", "zen2", "--list", "--out="})));
  EXPECT_EQ(Platform, "zen2");
  EXPECT_TRUE(List);
  EXPECT_EQ(Path, "");
  Expected<std::vector<std::string>> R = parseList(Flags, {"--list=yes"});
  ASSERT_FALSE(bool(R));
  EXPECT_EQ(R.error().message(), "--list takes no value");
}

TEST(CliFlags, RepeatedFlagLastWinsListAccumulates) {
  size_t N = 0;
  std::vector<std::string> Matches;
  FlagParser Flags;
  Flags.number("--n", N);
  Flags.list("--match", Matches, "SUBSTR");
  ASSERT_TRUE(bool(
      parseList(Flags, {"--n", "1", "--match", "IDQ", "--n=2", "--match=L2"})));
  EXPECT_EQ(N, 2u);
  EXPECT_EQ(Matches, (std::vector<std::string>{"IDQ", "L2"}));
}

TEST(CliFlags, MissingTrailingValueIsAnError) {
  size_t N = 0;
  FlagParser Flags;
  Flags.number("--n", N);
  Expected<std::vector<std::string>> R = parseList(Flags, {"--n"});
  ASSERT_FALSE(bool(R));
  EXPECT_EQ(R.error().message(), "--n: missing value (N)");
}

TEST(CliFlags, UnknownFlagAndBadValueNameTheFlag) {
  size_t N = 0;
  Color C = Color::Red;
  FlagParser Flags;
  Flags.number("--observations", N);
  Flags.choice("--color", C, ColorNames);
  Expected<std::vector<std::string>> Typo =
      parseList(Flags, {"--observatons", "4096"});
  ASSERT_FALSE(bool(Typo));
  EXPECT_EQ(Typo.error().message(), "unknown flag '--observatons'");
  Expected<std::vector<std::string>> Bad =
      parseList(Flags, {"--color", "blue"});
  ASSERT_FALSE(bool(Bad));
  EXPECT_EQ(Bad.error().message(), "--color=blue: expected one of red|green");
  Expected<std::vector<std::string>> Junk =
      parseList(Flags, {"--observations=abc"});
  ASSERT_FALSE(bool(Junk));
  EXPECT_EQ(Junk.error().message(),
            "--observations=abc: expected an integer >= 0");
  std::string Usage = Flags.usage("/path/to/prog");
  EXPECT_NE(Usage.find("usage: prog [flags]"), std::string::npos);
  EXPECT_NE(Usage.find("--color red|green"), std::string::npos);
  EXPECT_NE(Usage.find("--observations N"), std::string::npos);
}

TEST(CliFlags, PositionalsAreCappedAtTheDeclaredCount) {
  FlagParser None;
  Expected<std::vector<std::string>> Extra = parseList(None, {"stray"});
  ASSERT_FALSE(bool(Extra));
  EXPECT_EQ(Extra.error().message(), "unexpected argument 'stray'");

  size_t N = 0;
  FlagParser One;
  One.number("--n", N);
  One.positionals(1, "CSV");
  Expected<std::vector<std::string>> Ok =
      parseList(One, {"--n", "3", "out.csv"});
  ASSERT_TRUE(bool(Ok));
  EXPECT_EQ(*Ok, (std::vector<std::string>{"out.csv"}));
  EXPECT_FALSE(bool(parseList(One, {"a.csv", "b.csv"})));
}

TEST(CliEnv, UnsetGivesDefaultBadValueExitsTwo) {
  const char *Var = "SLOPE_CLI_TEST_SETTING";
  ::unsetenv(Var);
  EXPECT_EQ(envChoice(Var, ColorNames, Color::Red), Color::Red);
  EXPECT_EQ(envNumber(Var, 0u, 8u, 3u), 3u);
  ::setenv(Var, "green", 1);
  EXPECT_EQ(envChoice(Var, ColorNames, Color::Red), Color::Green);
  ::setenv(Var, "gren", 1);
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(envChoice(Var, ColorNames, Color::Red),
              ::testing::ExitedWithCode(2),
              "error: SLOPE_CLI_TEST_SETTING=gren: "
              "expected one of red\\|green");
  ::setenv(Var, "9", 1);
  EXPECT_EXIT(envNumber(Var, 0u, 8u, 3u), ::testing::ExitedWithCode(2),
              "expected an integer in \\[0, 8\\]");
  ::unsetenv(Var);
}
