//===- perfbench/src/ModelStudy.cpp - The paper's modelling pipeline --------===//
//
// model_study: repeated Class B/C studies on the simulated Skylake server,
// composed from the same public calls core::runClassBC makes, so each
// layer can be timed on its own. One study: additivity of 9 PA + 9 PNA
// PMCs over 30 DGEMM/FFT compounds, the 801-point dataset over those 18
// PMCs, PA4/PNA4 by energy correlation, and 12 models fitted and
// evaluated at the paper's budgets (100 trees, 300 epochs, 651/150
// split). Study I draws every random choice from its own derived seed.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "core/DatasetBuilder.h"
#include "core/Experiments.h"
#include "core/PmcSelector.h"
#include "ml/Metrics.h"
#include "pmc/PlatformEvents.h"
#include "sim/TestSuite.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <utility>

using namespace slope;
using namespace slope::core;
using namespace slope::sim;
using namespace perfbench;

namespace {

/// model_err_pct and staleness_err average the first QualityStudies
/// studies, so they are a pure function of the workload seed.
constexpr size_t QualityStudies = 128;
/// Every run reaches the quality studies; the study_ms p90 needs 100.
constexpr size_t MinStudies = QualityStudies;
constexpr size_t SetupReps = 9;
constexpr uint64_t PaperSeed = 2019;
/// ClassBCConfig defaults: the paper's budgets.
constexpr size_t AdditivityBases = 50;
constexpr size_t AdditivityCompounds = 30;
constexpr size_t TrainRows = 651;

/// Inputs shared by every study (no study randomness in them).
struct StudyInputs {
  std::vector<Application> AddBases;
  std::vector<CompoundApplication> PointCompounds;
  std::vector<std::string> PaNames;
  std::vector<std::string> PnaNames;
  std::vector<std::string> AllNames;
};

StudyInputs buildInputs() {
  StudyInputs In;
  In.AddBases = dgemmFftAdditivityBases(AdditivityBases);
  for (const Application &App : dgemmFftModelDataset())
    In.PointCompounds.emplace_back(App);
  In.PaNames = pmc::skylakePaNames();
  In.PnaNames = pmc::skylakePnaNames();
  In.AllNames = In.PaNames;
  In.AllNames.insert(In.AllNames.end(), In.PnaNames.begin(),
                     In.PnaNames.end());
  return In;
}

struct StudyOutcome {
  ClassBCResult Result;
  bool Ok = true;
  std::string Error;
  double WallMs = 0;
  /// Study start until its dataset (the measured energies) exists.
  double ProfileMs = 0;
  /// Mean average test error of the six additivity-selected models.
  double ErrPctA = 0;
  /// Those six models with the index of their test set in Tests, kept
  /// when the study is scored (see scoreAdditive) after its timed window.
  std::vector<std::pair<std::unique_ptr<ml::Model>, size_t>> Additive;
  std::vector<ml::Dataset> Tests;
  size_t Verdicts = 0;
  size_t Rows = 0;
  size_t CollectionRuns = 0;
  size_t Models = 0;
};

const char *fitSpanName(ModelFamily Family) {
  switch (Family) {
  case ModelFamily::LR:
    return "ml.fit.lr";
  case ModelFamily::RF:
    return "ml.fit.rf";
  default:
    return "ml.fit.nn";
  }
}

/// One Class B/C study at \p Seed, bit-identical to
/// runClassBC(ClassBCConfig{.Seed = Seed}). Spans are children of
/// \p Parent and carry \p Id. \p Keep keeps the additivity-selected
/// models for scoreAdditive.
StudyOutcome runStudy(const StudyInputs &In, uint64_t Seed, uint64_t Id,
                      Tracer &T, uint64_t Parent, bool Keep) {
  StudyOutcome Out;
  const int64_t StartNs = nowNs();
  ClassBCResult &Result = Out.Result;

  Machine M(Platform::intelSkylakeServer(), Seed ^ 0x5C7B);
  power::HclWattsUp Meter(
      M, std::make_unique<power::WattsUpProMeter>(power::WattsUpOptions(),
                                                  Seed ^ 0x22));
  Rng ExperimentRng(Seed);
  std::vector<CompoundApplication> AddCompounds = makeCompoundSuite(
      In.AddBases, AdditivityCompounds, ExperimentRng.fork("pairs"));

  std::vector<pmc::EventId> PaEvents, PnaEvents, AllEvents;
  for (const std::string &Name : In.PaNames)
    PaEvents.push_back(*M.registry().lookup(Name));
  for (const std::string &Name : In.PnaNames)
    PnaEvents.push_back(*M.registry().lookup(Name));
  AllEvents = PaEvents;
  AllEvents.insert(AllEvents.end(), PnaEvents.begin(), PnaEvents.end());

  AdditivityChecker Checker(M, AdditivityTestConfig());
  std::vector<AdditivityResult> PaAdd, PnaAdd;
  {
    ScopedSpan S(T, "core.additivity", Id, Parent);
    PaAdd = Checker.checkAll(PaEvents, AddCompounds);
  }
  {
    ScopedSpan S(T, "core.additivity", Id, Parent);
    PnaAdd = Checker.checkAll(PnaEvents, AddCompounds);
  }
  Out.Verdicts = PaAdd.size() + PnaAdd.size();

  DatasetBuilder Builder(M, Meter);
  Expected<ml::Dataset> Built = [&] {
    ScopedSpan S(T, "core.dataset", Id, Parent);
    return Builder.buildByName(In.PointCompounds, In.AllNames);
  }();
  Out.ProfileMs = msBetween(StartNs, nowNs());
  if (!Built) {
    Out.Ok = false;
    Out.Error = Built.error().message();
    return Out;
  }
  const ml::Dataset &Full = *Built;
  Out.Rows = Full.numRows();
  if (Expected<size_t> Cost = PmcProfiler(M).collectionCost(AllEvents))
    Out.CollectionRuns = *Cost * Full.numRows();

  {
    ScopedSpan S(T, "core.selection", Id, Parent);
    std::vector<double> Correlations = energyCorrelations(Full);
    auto MakeRows = [&](const std::vector<std::string> &Names,
                        const std::vector<AdditivityResult> &Add) {
      std::vector<PmcCorrelationRow> Rows;
      for (size_t I = 0; I < Names.size(); ++I) {
        PmcCorrelationRow Row;
        Row.Name = Names[I];
        Row.Correlation = Correlations[Full.indexOfFeature(Names[I])];
        Row.AdditivityErrorPct = Add[I].MaxErrorPct;
        Row.Additive = Add[I].Additive;
        Rows.push_back(Row);
      }
      return Rows;
    };
    Result.Pa = MakeRows(In.PaNames, PaAdd);
    Result.Pna = MakeRows(In.PnaNames, PnaAdd);
    Result.Pa4 = selectMostCorrelated(Full.selectFeatures(In.PaNames), 4);
    Result.Pna4 = selectMostCorrelated(Full.selectFeatures(In.PnaNames), 4);
  }

  const size_t Train = std::min(TrainRows, Full.numRows());
  const double TestFraction =
      1.0 - static_cast<double>(Train) / static_cast<double>(Full.numRows());
  auto [TrainSet, TestSet] =
      Full.split(TestFraction, ExperimentRng.fork("split"));
  Result.TrainRows = TrainSet.numRows();
  Result.TestRows = TestSet.numRows();

  const std::vector<std::string> *SubsetNames[4] = {
      &In.PaNames, &In.PnaNames, &Result.Pa4, &Result.Pna4};
  std::vector<ml::Dataset> SubTrain(4), SubTest(4);
  parallelFor(0, 4, 1, [&](size_t I) {
    SubTrain[I] = TrainSet.selectFeatures(*SubsetNames[I]);
    SubTest[I] = TestSet.selectFeatures(*SubsetNames[I]);
  });

  const ModelFamily Families[] = {ModelFamily::LR, ModelFamily::RF,
                                  ModelFamily::NN};
  Result.ClassB.resize(6);
  Result.ClassC.resize(6);
  std::vector<std::unique_ptr<ml::Model>> Models(12);
  std::vector<char> FitOk(12, 1);
  {
    ScopedSpan Stage(T, "ml.fit.stage", Id, Parent);
    const uint64_t StageSeq = Stage.seq();
    parallelFor(0, 12, 1, [&](size_t Task) {
      const ModelFamily Family = Families[(Task % 6) / 2];
      const std::string Base = modelFamilyName(Family);
      const bool Additive = (Task % 2) == 0;
      const size_t Subset = (Task < 6 ? 0 : 2) + (Additive ? 0 : 1);
      const uint64_t ModelSeed =
          Task < 6 ? Seed + (Additive ? 31 : 37) : Seed + (Additive ? 41 : 43);
      ModelEvalRow &Row =
          Task < 6 ? Result.ClassB[Task] : Result.ClassC[Task - 6];
      Row.Label =
          Base + (Task < 6 ? (Additive ? "-A" : "-NA")
                           : (Additive ? "-A4" : "-NA4"));
      Row.Pmcs = *SubsetNames[Subset];

      std::unique_ptr<ml::Model> Model = makePaperModel(Family, ModelSeed);
      {
        ScopedSpan S(T, fitSpanName(Family), Id, StageSeq);
        if (!Model->fit(SubTrain[Subset])) {
          FitOk[Task] = 0;
          return;
        }
      }
      ScopedSpan S(T, "ml.eval", Id, StageSeq);
      Row.Errors = ml::evaluateModel(*Model, SubTest[Subset]);
      if (Family == ModelFamily::LR)
        Row.Coefficients =
            static_cast<const ml::LinearRegression &>(*Model).coefficients();
      if (Keep && Additive)
        Models[Task] = std::move(Model);
    });
  }
  Out.Models = 12;
  for (size_t Task = 0; Task < 12; ++Task) {
    if (!FitOk[Task]) {
      Out.Ok = false;
      Out.Error = "model fit failed";
    }
    const ModelEvalRow &Row =
        Task < 6 ? Result.ClassB[Task] : Result.ClassC[Task - 6];
    for (double V : {Row.Errors.Min, Row.Errors.Avg, Row.Errors.Max})
      if (!std::isfinite(V)) {
        Out.Ok = false;
        Out.Error = "non-finite error in " + Row.Label;
      }
    if (Task % 2 == 0) {
      Out.ErrPctA += Row.Errors.Avg / 6;
      if (Keep)
        Out.Additive.emplace_back(std::move(Models[Task]), Task < 6 ? 0 : 2);
    }
  }
  if (Keep)
    Out.Tests = std::move(SubTest);
  Out.WallMs = msBetween(StartNs, nowNs());
  return Out;
}

/// Sum |prediction - label| and sum |label| over the kept models' test
/// sets. Not part of the study: it runs after the study's timed window.
std::pair<double, double> scoreAdditive(const StudyOutcome &S) {
  double AbsErr = 0, AbsLabel = 0;
  for (const auto &[Model, Subset] : S.Additive) {
    const std::vector<double> Pred = Model->predictBatch(S.Tests[Subset]);
    const std::vector<double> &Label = S.Tests[Subset].targets();
    for (size_t I = 0; I < Pred.size(); ++I) {
      AbsErr += std::fabs(Pred[I] - Label[I]);
      AbsLabel += std::fabs(Label[I]);
    }
  }
  return {AbsErr, AbsLabel};
}

bool sameRows(const std::vector<ModelEvalRow> &A,
              const std::vector<ModelEvalRow> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I)
    if (A[I].Label != B[I].Label || A[I].Pmcs != B[I].Pmcs ||
        A[I].Coefficients != B[I].Coefficients ||
        A[I].Errors.Min != B[I].Errors.Min ||
        A[I].Errors.Avg != B[I].Errors.Avg ||
        A[I].Errors.Max != B[I].Errors.Max)
      return false;
  return true;
}

bool sameCorrelationRows(const std::vector<PmcCorrelationRow> &A,
                         const std::vector<PmcCorrelationRow> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I)
    if (A[I].Name != B[I].Name || A[I].Correlation != B[I].Correlation ||
        A[I].AdditivityErrorPct != B[I].AdditivityErrorPct ||
        A[I].Additive != B[I].Additive)
      return false;
  return true;
}

/// Exact equality of every table a Class B/C study produces.
bool sameStudy(const ClassBCResult &A, const ClassBCResult &B) {
  return sameCorrelationRows(A.Pa, B.Pa) &&
         sameCorrelationRows(A.Pna, B.Pna) && sameRows(A.ClassB, B.ClassB) &&
         sameRows(A.ClassC, B.ClassC) && A.Pa4 == B.Pa4 &&
         A.Pna4 == B.Pna4 && A.TrainRows == B.TrainRows &&
         A.TestRows == B.TestRows;
}

/// Study I's seed, forked from the workload seed.
uint64_t studySeed(uint64_t WorkloadSeed, size_t I) {
  return Rng(WorkloadSeed).fork(static_cast<uint64_t>(I)).next();
}

void addCounts(const StudyOutcome &S, RawResult &R) {
  R.Values["core.additivity.verdicts"] += static_cast<double>(S.Verdicts);
  R.Values["core.dataset.rows"] += static_cast<double>(S.Rows);
  R.Values["pmc.collection_runs"] += static_cast<double>(S.CollectionRuns);
  R.Values["ml.models"] += static_cast<double>(S.Models);
}

} // namespace

bool perfbench::runModelStudy(const RunOptions &Options, Tracer &T,
                              RawResult &R) {
  // Set-up: the shared inputs plus one study at the paper seed, which
  // warms every lazy cache and is the reference for the runClassBC check.
  // A traced run sets up once, inside its timeline.
  const size_t Reps = Options.Trace ? 1 : SetupReps;
  StudyInputs In;
  ClassBCResult Reference;
  bool RepsAgree = true;
  for (size_t Rep = 0; Rep < Reps; ++Rep) {
    T.setEnabled(Options.Trace);
    const int64_t StartNs = nowNs();
    ScopedSpan Setup(T, "op.setup", 0);
    In = buildInputs();
    StudyOutcome Ref =
        runStudy(In, PaperSeed, 0, T, Setup.seq(), /*Keep=*/false);
    R.SetupS.push_back(msBetween(StartNs, nowNs()) / 1e3);
    if (!Ref.Ok) {
      std::fprintf(stderr, "error: paper-seed study failed: %s\n",
                   Ref.Error.c_str());
      return false;
    }
    if (Options.Trace)
      addCounts(Ref, R);
    if (Rep > 0)
      RepsAgree = RepsAgree && sameStudy(Ref.Result, Reference);
    Reference = std::move(Ref.Result);
  }
  T.setEnabled(false);

  double ErrSum = 0, AbsErr = 0, AbsLabel = 0;
  size_t Quality = 0, StudyFailures = 0;
  OpLoop Loop(Options, MinStudies);
  size_t I = 0;
  for (; Loop.more(I); ++I) {
    const bool Traced = Loop.traced(I);
    T.setEnabled(Traced);
    const bool Scored = Quality < QualityStudies;
    StudyOutcome S;
    {
      ScopedSpan Op(T, "op.study", I + 1);
      S = runStudy(In, studySeed(Options.Seed, I), I + 1, T, Op.seq(),
                   Scored);
    }
    T.setEnabled(false);
    ++R.Attempted;
    if (!S.Ok) {
      ++R.Failed;
      ++StudyFailures;
      std::fprintf(stderr, "study %zu failed: %s\n", I, S.Error.c_str());
      continue;
    }
    R.Series["study_ms"].push_back(S.WallMs);
    R.Series["tick_ms"].push_back(S.ProfileMs);
    R.Series["op_ms"].push_back(S.WallMs);
    R.Series["op_obs"].push_back(static_cast<double>(S.Rows));
    R.Series["op_traced"].push_back(Traced);
    if (Traced)
      addCounts(S, R);
    if (Scored) {
      ++Quality;
      ErrSum += S.ErrPctA;
      const auto [Err, Label] = scoreAdditive(S);
      AbsErr += Err;
      AbsLabel += Label;
    }
  }
  R.Values["model_err_pct"] = Quality ? ErrSum / Quality : 0;
  R.Values["staleness_err"] = AbsLabel > 0 ? AbsErr / AbsLabel : 0;
  R.Values["quality_studies"] = static_cast<double>(Quality);

  // Correctness at the paper seed: the composed study must reproduce
  // core::runClassBC() exactly, at every set-up repetition.
  ++R.Attempted;
  const bool MatchesPaper = sameStudy(Reference, runClassBC());
  if (!MatchesPaper || !RepsAgree)
    ++R.Failed;
  R.check("paper_seed_equals_runClassBC", MatchesPaper,
          "error triples, PA4/PNA4 picks, LR coefficients and Table 6 rows "
          "at seed 2019");
  R.check("setup_reps_identical", RepsAgree,
          "every set-up repetition produced the same paper-seed study");
  R.check("studies_finite", StudyFailures == 0,
          "every study fitted all 12 models with finite errors");
  return true;
}
