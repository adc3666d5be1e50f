//===- tests/integration/StrictCliTest.cpp - Drivers reject bad input -----===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
//
// Runs the bench drivers with malformed flags and SLOPE_* values and
// checks each exits with status 2 and a message naming the flag or
// variable and what it accepts, instead of falling back to a default.
// Also checks that `--flag=value` and `--flag value` run identically.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <sys/wait.h>

namespace {

/// Runs \p Command through the shell, capturing its stdout and setting
/// \p ExitCode to its exit status (-1 if it did not exit normally).
std::string capture(const std::string &Command, int &ExitCode) {
  std::string Output;
  std::FILE *Pipe = popen(Command.c_str(), "r");
  if (!Pipe) {
    ExitCode = -1;
    return Output;
  }
  char Buffer[4096];
  size_t N;
  while ((N = std::fread(Buffer, 1, sizeof(Buffer), Pipe)) > 0)
    Output.append(Buffer, N);
  const int Status = pclose(Pipe);
  ExitCode = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  return Output;
}

std::string driver(const char *Name) {
  return std::string(SLOPE_BENCH_DIR) + "/" + Name;
}

struct BadInvocation {
  const char *Env;    ///< Environment prefix, e.g. "SLOPE_SIMD=scalr".
  const char *Driver;
  const char *Args;
  const char *Message; ///< Must appear in stderr.
};

const BadInvocation BadInvocations[] = {
    {"SLOPE_SIMD=scalr", "bench_table1_platforms", "",
     "error: SLOPE_SIMD=scalr: expected one of auto|avx2|scalar"},
    {"", "bench_table4_rf", "--tree-algo navie",
     "error: --tree-algo=navie: expected one of naive|presorted"},
    {"", "bench_serving_engine", "--family xgboost",
     "error: --family=xgboost: expected one of lr|rf|nn|knn"},
    {"", "bench_serving_engine", "--observations abc",
     "error: --observations=abc: expected an integer >= 1"},
    {"", "bench_table1_platforms", "--threads four",
     "error: --threads=four: expected an integer in [0, 1024]"},
    {"", "bench_serving_engine", "--observatons 4096",
     "error: unknown flag '--observatons'"},
    {"", "bench_serving_engine", "--fit-algo rls",
     "error: unknown flag '--fit-algo'"},
    {"", "bench_serving_engine", "--infer-algo quantized",
     "error: unknown flag '--infer-algo'"},
};

} // namespace

TEST(StrictCli, BadFlagsAndEnvValuesExitTwoWithAMessage) {
  for (const BadInvocation &Bad : BadInvocations) {
    // stderr into the pipe, stdout discarded.
    const std::string Command = std::string("env ") + Bad.Env + " " +
                                driver(Bad.Driver) + " " + Bad.Args +
                                " 2>&1 >/dev/null";
    SCOPED_TRACE(Command);
    int ExitCode = 0;
    const std::string Stderr = capture(Command, ExitCode);
    EXPECT_EQ(ExitCode, 2);
    EXPECT_NE(Stderr.find(Bad.Message), std::string::npos) << Stderr;
  }
}

TEST(StrictCli, UnknownFlagMessageListsAcceptedFlags) {
  int ExitCode = 0;
  const std::string Stderr = capture(
      driver("bench_serving_engine") + " --observatons 4096 2>&1 >/dev/null",
      ExitCode);
  EXPECT_EQ(ExitCode, 2);
  for (const char *Accepted :
       {"--observations N", "--retrain rls|refit|off",
        "--tree-algo naive|presorted", "--simd auto|avx2|scalar"})
    EXPECT_NE(Stderr.find(Accepted), std::string::npos) << Accepted;
}

TEST(StrictCli, EqualsAndSpaceFormsGiveIdenticalOutput) {
  const std::string Common = " --tenants 500 --epoch-size 4096";
  int SpaceExit = 0, EqualsExit = 0;
  const std::string Space = capture(
      driver("bench_serving_engine") + " --observations 20000" + Common,
      SpaceExit);
  const std::string Equals = capture(
      driver("bench_serving_engine") + " --observations=20000" + Common,
      EqualsExit);
  ASSERT_EQ(SpaceExit, 0);
  ASSERT_EQ(EqualsExit, 0);
  EXPECT_NE(Space.find("Fleet: 20000 observations"), std::string::npos);
  EXPECT_EQ(Space, Equals);
}
