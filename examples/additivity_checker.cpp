//===- examples/additivity_checker.cpp - AdditivityChecker CLI ------------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
//
// Command-line mirror of the paper's AdditivityChecker tool: scans PMCs
// of a platform for additivity over a generated compound suite and
// prints a ranked report.
//
// Usage:
//   additivity_checker [--platform haswell|skylake|zen2|biglittle]
//                      [--match SUBSTR]...
//                      [--bases N] [--compounds N] [--tolerance PCT]
//                      [--suite diverse|dgemm-fft] [--top N] [--seed S]
//
// Examples:
//   additivity_checker --platform skylake --suite dgemm-fft --match IDQ
//   additivity_checker --platform haswell --tolerance 10 --top 25
//
//===----------------------------------------------------------------------===//

#include "core/AdditivityChecker.h"
#include "core/PmcSelector.h"
#include "sim/TestSuite.h"
#include "support/Cli.h"
#include "support/Str.h"
#include "support/TablePrinter.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace slope;
using namespace slope::core;
using namespace slope::sim;

namespace {
enum class Suite { Diverse, DgemmFft };

const cli::Choice<Suite> SuiteNames[] = {
    {"diverse", Suite::Diverse},
    {"dgemm-fft", Suite::DgemmFft},
};

const cli::Choice<Platform (*)()> PlatformNames[] = {
    {"haswell", Platform::intelHaswellServer},
    {"skylake", Platform::intelSkylakeServer},
    {"zen2", Platform::amdZen2Server},
    // The board-level machine: the big.LITTLE registry is the A15
    // superset, so every cluster event can be checked here.
    {"biglittle", Platform::armBigLittle},
};
} // namespace

int main(int Argc, char **Argv) {
  Platform (*MakePlatform)() = Platform::intelHaswellServer;
  std::vector<std::string> Matches;
  size_t NumBases = 24, NumCompounds = 12;
  double TolerancePct = 5.0;
  Suite BaseSuite = Suite::Diverse;
  size_t Top = 0; // 0 = all.
  uint64_t Seed = 2019;
  cli::FlagParser Flags;
  Flags.choice("--platform", MakePlatform, PlatformNames);
  Flags.list("--match", Matches, "SUBSTR");
  Flags.number<size_t>("--bases", NumBases, 1);
  Flags.number<size_t>("--compounds", NumCompounds, 1);
  Flags.number("--tolerance", TolerancePct);
  Flags.choice("--suite", BaseSuite, SuiteNames);
  Flags.number("--top", Top);
  Flags.number("--seed", Seed);
  Flags.parseOrExit(Argc, Argv);

  Machine M(MakePlatform(), Seed);
  Rng R(Seed);

  std::vector<Application> Bases;
  if (BaseSuite == Suite::DgemmFft)
    Bases = dgemmFftAdditivityBases(NumBases);
  else
    Bases = diverseBaseSuite(M.platform(), NumBases, R.fork("b"));
  std::vector<CompoundApplication> Compounds =
      makeCompoundSuite(Bases, NumCompounds, R.fork("p"));

  std::vector<pmc::EventId> Events = Matches.empty()
                                         ? M.registry().allEvents()
                                         : M.registry().findByName(Matches);
  if (Events.empty()) {
    std::fprintf(stderr, "error: no events match the given filters\n");
    return 1;
  }

  std::printf("AdditivityChecker: %zu event(s) on %s, %zu bases, %zu "
              "compounds, tolerance %.1f%%\n\n",
              Events.size(), M.platform().Name.c_str(), Bases.size(),
              Compounds.size(), TolerancePct);

  AdditivityTestConfig Config;
  Config.TolerancePct = TolerancePct;
  AdditivityChecker Checker(M, Config);
  std::vector<AdditivityResult> Results =
      rankByAdditivity(Checker.checkAll(Events, Compounds));
  if (Top != 0 && Results.size() > Top)
    Results.resize(Top);

  TablePrinter T({"#", "PMC", "Max err (%)", "Worst CV", "Verdict"});
  size_t Rank = 1, NumAdditive = 0;
  for (const AdditivityResult &Res : Results) {
    const char *Verdict = Res.Additive ? "additive"
                          : !Res.Significant
                              ? "insignificant"
                              : (!Res.Deterministic ? "non-reproducible"
                                                    : "non-additive");
    NumAdditive += Res.Additive;
    T.addRow({std::to_string(Rank++), Res.Name,
              str::fixed(Res.MaxErrorPct, 2), str::fixed(Res.WorstCv, 3),
              Verdict});
  }
  std::printf("%s\n%zu of %zu tested events are additive at %.1f%%.\n",
              T.render().c_str(), NumAdditive, Results.size(),
              TolerancePct);
  return 0;
}
