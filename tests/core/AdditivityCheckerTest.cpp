//===- tests/core/AdditivityCheckerTest.cpp - Additivity test tests -------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "core/AdditivityChecker.h"

#include "pmc/PlatformEvents.h"
#include "sim/TestSuite.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

using namespace slope;
using namespace slope::core;
using namespace slope::sim;

namespace {
/// A small but diverse compound suite on the Haswell machine.
std::vector<CompoundApplication> smallSuite(Machine &M, size_t Pairs = 8) {
  Rng R(77);
  std::vector<Application> Bases =
      diverseBaseSuite(M.platform(), 16, R.fork("b"));
  return makeCompoundSuite(Bases, Pairs, R.fork("p"));
}
} // namespace

TEST(AdditivityChecker, AdditiveEventPassesOnOptimizedKernels) {
  // On DGEMM-only compounds, a clean uop counter is additive within 5%.
  Machine M(Platform::intelSkylakeServer(), 1);
  AdditivityChecker Checker(M);
  std::vector<CompoundApplication> Compounds = {
      {Application(KernelKind::MklDgemm, 8000),
       Application(KernelKind::MklDgemm, 11000)},
      {Application(KernelKind::MklDgemm, 9000),
       Application(KernelKind::MklFft, 25000)},
  };
  AdditivityResult R =
      Checker.check(*M.registry().lookup("UOPS_EXECUTED_CORE"), Compounds);
  EXPECT_TRUE(R.Significant);
  EXPECT_TRUE(R.Deterministic);
  EXPECT_LE(R.MaxErrorPct, 5.0);
  EXPECT_TRUE(R.Additive);
}

TEST(AdditivityChecker, DividerFailsStageTwoOnDiverseSuite) {
  Machine M(Platform::intelHaswellServer(), 2);
  AdditivityChecker Checker(M);
  AdditivityResult R = Checker.check(
      *M.registry().lookup("ARITH_DIVIDER_COUNT"), smallSuite(M));
  EXPECT_GT(R.MaxErrorPct, 5.0);
  EXPECT_FALSE(R.Additive);
}

TEST(AdditivityChecker, InsignificantEventFailsStageOne) {
  Machine M(Platform::intelHaswellServer(), 3);
  AdditivityChecker Checker(M);
  AdditivityResult R = Checker.check(
      *M.registry().lookup("RTM_RETIRED_ABORTED"), smallSuite(M, 4));
  EXPECT_FALSE(R.Significant);
  EXPECT_FALSE(R.Additive);
}

TEST(AdditivityChecker, ErrorPerCompoundIsRecorded) {
  Machine M(Platform::intelHaswellServer(), 4);
  AdditivityChecker Checker(M);
  std::vector<CompoundApplication> Compounds = smallSuite(M, 6);
  AdditivityResult R = Checker.check(
      *M.registry().lookup("L2_RQSTS_MISS"), Compounds);
  ASSERT_EQ(R.Errors.size(), Compounds.size());
  double Max = 0;
  for (const CompoundError &E : R.Errors) {
    EXPECT_GE(E.ErrorPct, 0.0);
    Max = std::max(Max, E.ErrorPct);
  }
  EXPECT_DOUBLE_EQ(Max, R.MaxErrorPct);
}

TEST(AdditivityChecker, ChecksAreIdempotentViaCache) {
  Machine M(Platform::intelHaswellServer(), 5);
  AdditivityChecker Checker(M);
  std::vector<CompoundApplication> Compounds = smallSuite(M, 4);
  pmc::EventId Id = *M.registry().lookup("IDQ_MS_UOPS");
  AdditivityResult A = Checker.check(Id, Compounds);
  AdditivityResult B = Checker.check(Id, Compounds);
  EXPECT_DOUBLE_EQ(A.MaxErrorPct, B.MaxErrorPct);
}

TEST(AdditivityChecker, CheckAllPreservesOrder) {
  Machine M(Platform::intelHaswellServer(), 6);
  AdditivityChecker Checker(M);
  std::vector<pmc::EventId> Ids;
  for (const std::string &Name : pmc::haswellClassAPmcNames())
    Ids.push_back(*M.registry().lookup(Name));
  std::vector<AdditivityResult> Results =
      Checker.checkAll(Ids, smallSuite(M, 5));
  ASSERT_EQ(Results.size(), Ids.size());
  for (size_t I = 0; I < Ids.size(); ++I)
    EXPECT_EQ(Results[I].Id, Ids[I]);
}

TEST(AdditivityChecker, ToleranceControlsTheVerdict) {
  Machine M(Platform::intelHaswellServer(), 7);
  std::vector<CompoundApplication> Compounds = smallSuite(M, 6);
  pmc::EventId Id = *M.registry().lookup("UOPS_EXECUTED_PORT_PORT_6");

  AdditivityTestConfig Strict;
  Strict.TolerancePct = 0.5;
  AdditivityChecker StrictChecker(M, Strict);
  EXPECT_FALSE(StrictChecker.check(Id, Compounds).Additive);

  AdditivityTestConfig Loose;
  Loose.TolerancePct = 95.0;
  AdditivityChecker LooseChecker(M, Loose);
  EXPECT_TRUE(LooseChecker.check(Id, Compounds).Additive);
}

TEST(AdditivityChecker, Eq1MatchesManualComputation) {
  // Verify Eq. 1 against a hand-computed mean over the cached runs.
  Machine M(Platform::intelSkylakeServer(), 8);
  AdditivityTestConfig Config;
  Config.RunsPerMean = 1; // One run per mean keeps the check simple.
  AdditivityChecker Checker(M, Config);
  Application A(KernelKind::MklDgemm, 8000);
  Application B(KernelKind::MklDgemm, 10000);
  std::vector<CompoundApplication> Compounds = {{A, B}};
  pmc::EventId Id = *M.registry().lookup("FP_ARITH_INST_RETIRED_DOUBLE");
  AdditivityResult R = Checker.check(Id, Compounds);
  // 2*8000^3 + 2*10000^3 vs the compound count: the error must be the
  // relative gap, which for this additive event is below 2%.
  EXPECT_LT(R.MaxErrorPct, 2.0);
}

TEST(AdditivityChecker, PaperClassBContrastHoldsOnDgemmFft) {
  // PA events additive, PNA events non-additive, on the paper's
  // DGEMM/FFT datasets (Class B premise).
  Machine M(Platform::intelSkylakeServer(), 9);
  Rng R(5);
  std::vector<Application> Bases = dgemmFftAdditivityBases(10);
  std::vector<CompoundApplication> Compounds =
      makeCompoundSuite(Bases, 6, R);
  AdditivityChecker Checker(M);
  for (const std::string &Name : pmc::skylakePaNames()) {
    AdditivityResult Res =
        Checker.check(*M.registry().lookup(Name), Compounds);
    EXPECT_TRUE(Res.Additive) << Name << " err=" << Res.MaxErrorPct;
  }
  size_t NonAdditive = 0;
  for (const std::string &Name : pmc::skylakePnaNames())
    if (!Checker.check(*M.registry().lookup(Name), Compounds).Additive)
      ++NonAdditive;
  EXPECT_GE(NonAdditive, 8u); // All nine PNA events should fail.
}

TEST(AdditivityChecker, ParallelCheckAllMatchesLazySerialScan) {
  // checkAll forks its run seeds serially and runs them on the pool; the
  // verdicts, and the machine's run counter afterwards, must equal
  // per-event check() calls that run the machine lazily, one at a time.
  // The second suite overlaps the first, so the prewarm also tops up a
  // partly filled cache; RunsPerMean > ReproducibilityRuns makes stage 2
  // top up bases, too.
  struct Guard {
    ~Guard() { ThreadPool::setGlobalThreadCount(0); }
  } RestorePool;
  AdditivityTestConfig Config;
  Config.ReproducibilityRuns = 2;
  Config.RunsPerMean = 4;
  std::vector<pmc::EventId> Ids;
  std::vector<std::vector<CompoundApplication>> Suites;
  {
    Machine Probe(Platform::intelHaswellServer(), 12);
    for (const std::string &Name : pmc::haswellClassAPmcNames())
      Ids.push_back(*Probe.registry().lookup(Name));
    Suites = {smallSuite(Probe, 5), smallSuite(Probe, 8)};
  }

  ThreadPool::setGlobalThreadCount(1);
  Machine RefM(Platform::intelHaswellServer(), 12);
  AdditivityChecker RefChecker(RefM, Config);
  std::vector<std::vector<AdditivityResult>> Ref;
  for (const auto &Suite : Suites) {
    Ref.emplace_back();
    for (pmc::EventId Id : Ids)
      Ref.back().push_back(RefChecker.check(Id, Suite));
  }
  const uint64_t RefNextSeed = RefM.forkRunSeeds(1)[0];

  for (unsigned Threads : {1u, 2u, 8u}) {
    ThreadPool::setGlobalThreadCount(Threads);
    Machine M(Platform::intelHaswellServer(), 12);
    AdditivityChecker Checker(M, Config);
    for (size_t S = 0; S < Suites.size(); ++S) {
      std::vector<AdditivityResult> Got = Checker.checkAll(Ids, Suites[S]);
      ASSERT_EQ(Got.size(), Ref[S].size());
      for (size_t I = 0; I < Got.size(); ++I) {
        EXPECT_EQ(Got[I].WorstCv, Ref[S][I].WorstCv) << Got[I].Name;
        EXPECT_EQ(Got[I].MaxErrorPct, Ref[S][I].MaxErrorPct) << Got[I].Name;
        EXPECT_EQ(Got[I].Additive, Ref[S][I].Additive) << Got[I].Name;
        ASSERT_EQ(Got[I].Errors.size(), Ref[S][I].Errors.size());
        for (size_t C = 0; C < Got[I].Errors.size(); ++C)
          EXPECT_EQ(Got[I].Errors[C].ErrorPct, Ref[S][I].Errors[C].ErrorPct);
      }
    }
    EXPECT_EQ(M.forkRunSeeds(1)[0], RefNextSeed) << Threads << " threads";
  }
}
