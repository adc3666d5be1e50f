//===- tests/integration/GoldenTablesTest.cpp - Golden-table regression ---------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
//
// Golden-table regression harness: re-runs every paper-table bench driver,
// and the fleet serving driver (whose default replay walks the RF
// estimator over one million observations), and byte-compares its stdout
// against the snapshot under tests/golden/.
// Each driver runs at 1 and 4 threads, so the harness simultaneously
// enforces the house invariant that table output is bit-identical at any
// thread count. A failure prints a line-level diff; refresh snapshots
// with scripts/update_goldens.sh after an intentional table change.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

/// The drivers with golden snapshots: the eight paper tables, then the
/// serving engine.
const char *const GoldenDrivers[] = {
    "bench_table1_platforms", "bench_table2_additivity",
    "bench_table3_lr",        "bench_table4_rf",
    "bench_table5_nn",        "bench_table6_correlation",
    "bench_table7a_class_b",  "bench_table7b_class_c",
    "bench_serving_engine",
};

/// Runs \p Command and captures its stdout (stderr is left alone so test
/// logs still show driver warnings).
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
  ExitCode = pclose(Pipe);
  return Output;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

std::vector<std::string> splitLines(const std::string &Text) {
  std::vector<std::string> Lines;
  std::istringstream In(Text);
  std::string Line;
  while (std::getline(In, Line))
    Lines.push_back(Line);
  return Lines;
}

/// A compact line diff so drift is diagnosable straight from the CI log.
std::string firstDifference(const std::string &Expected,
                            const std::string &Actual) {
  std::vector<std::string> Want = splitLines(Expected);
  std::vector<std::string> Got = splitLines(Actual);
  std::ostringstream Out;
  size_t Lines = std::max(Want.size(), Got.size());
  for (size_t I = 0; I < Lines; ++I) {
    const std::string *W = I < Want.size() ? &Want[I] : nullptr;
    const std::string *G = I < Got.size() ? &Got[I] : nullptr;
    if (W && G && *W == *G)
      continue;
    Out << "first drift at line " << (I + 1) << ":\n";
    Out << "  golden: " << (W ? *W : "<missing>") << "\n";
    Out << "  actual: " << (G ? *G : "<missing>") << "\n";
    return Out.str();
  }
  return "outputs differ only in trailing bytes (line split identical)";
}

class GoldenTables : public ::testing::TestWithParam<const char *> {};

} // namespace

TEST_P(GoldenTables, MatchesSnapshotAtOneAndFourThreads) {
  const std::string Driver = GetParam();
  const std::string Golden =
      std::string(SLOPE_GOLDEN_DIR) + "/" + Driver + ".txt";
  std::string Expected = readFile(Golden);
  ASSERT_FALSE(Expected.empty())
      << "missing or empty golden snapshot: " << Golden
      << " (run scripts/update_goldens.sh)";

  for (unsigned Threads : {1u, 4u}) {
    std::string Command = std::string(SLOPE_BENCH_DIR) + "/" + Driver +
                          " --threads " + std::to_string(Threads);
    int ExitCode = 0;
    std::string Actual = capture(Command, ExitCode);
    ASSERT_EQ(ExitCode, 0) << Driver << " failed at --threads " << Threads;
    EXPECT_EQ(Expected, Actual)
        << Driver << " drifted from " << Golden << " at --threads "
        << Threads << "\n"
        << firstDifference(Expected, Actual)
        << "\nIf the change is intentional, refresh with "
           "scripts/update_goldens.sh.";
  }
}

INSTANTIATE_TEST_SUITE_P(PaperTables, GoldenTables,
                         ::testing::ValuesIn(GoldenDrivers),
                         [](const ::testing::TestParamInfo<const char *> &I) {
                           return std::string(I.param);
                         });
