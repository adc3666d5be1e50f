//===- perfbench/src/Fleet.cpp - Fleet-serving workloads --------------------===//
//
// fleet_rf and fleet_retrain_lr: a PA4 energy estimator served by
// core::ServingEngine to a Zipf(1.1) stream of 10k tenants over 12 apps.
// One producer drives a closed loop of ticks: each tick ingests 8192
// observations through ServingEngine::ingest, folds them with endEpoch()
// (query-visible from then on), and runs a fixed dashboard query set. A
// pass replays one stream of four ticks; passes cycle over NumStreams
// independently drawn streams, and tenant totals keep accumulating
// across passes.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "core/FleetTrace.h"
#include "core/OnlineEstimator.h"
#include "core/ServingEngine.h"
#include "pmc/PlatformEvents.h"
#include "sim/TestSuite.h"
#include "stats/Descriptive.h"
#include "support/Rng.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>

using namespace slope;
using namespace slope::core;
using namespace slope::sim;
using namespace perfbench;

namespace {

constexpr size_t TickObs = 8192;
constexpr size_t TicksPerPass = 4;
/// Streams per run. The quality numbers average the first pass over each,
/// so no single stream's draw decides them.
constexpr size_t NumStreams = 8;
/// A p90 over ticks needs 10 samples beyond it.
constexpr size_t MinTicks = 100;
constexpr size_t SetupReps = 21;
constexpr uint32_t NumTenants = 10000;
constexpr double TenantSkew = 1.1;
constexpr size_t NumApps = 12;
constexpr size_t TrainApps = 200;
constexpr size_t QueryTenants = 64;
constexpr size_t RlsSeedRows = 4096;
constexpr double RetrainDrift = 0.3;

enum class Kind { Rf, RetrainLr };

/// Everything a fleet run serves from, built by one set-up repetition.
/// Members are declared in dependency order, so the engine goes first.
struct Fleet {
  std::unique_ptr<Machine> M;
  std::unique_ptr<power::HclWattsUp> Meter;
  std::optional<OnlineEstimator> Estimator;
  std::vector<FleetTrace> Streams;
  std::unique_ptr<ml::RlsLinearRegression> Online;
  std::unique_ptr<ServingEngine> Engine;
  std::vector<uint32_t> QueryTenantIds;
};

/// The paper's PA4 subset: four additive PMCs collectable in one run.
std::vector<std::string> pa4Names() {
  std::vector<std::string> Pa = pmc::skylakePaNames();
  return {Pa[0], Pa[1], Pa[3], Pa[7]};
}

std::vector<CompoundApplication> asCompounds(std::vector<Application> Apps) {
  std::vector<CompoundApplication> Out;
  for (const Application &App : Apps)
    Out.emplace_back(App);
  return Out;
}

/// Dashboard tenants: a Zipf(TenantSkew) sample, like the stream's own
/// tenant popularity.
std::vector<uint32_t> sampleTenants(Rng R) {
  std::vector<double> Cdf(NumTenants);
  double Total = 0;
  for (uint32_t T = 0; T < NumTenants; ++T)
    Cdf[T] = Total += std::pow(static_cast<double>(T) + 1.0, -TenantSkew);
  std::vector<uint32_t> Out;
  for (size_t I = 0; I < QueryTenants; ++I) {
    const double U = R.uniform(0.0, Total);
    const size_t T = std::upper_bound(Cdf.begin(), Cdf.end(), U) - Cdf.begin();
    Out.push_back(static_cast<uint32_t>(std::min<size_t>(T, NumTenants - 1)));
  }
  return Out;
}

std::vector<std::string> pmcColumns(size_t Width) {
  std::vector<std::string> Names;
  for (size_t I = 0; I < Width; ++I)
    Names.push_back("pmc" + std::to_string(I));
  return Names;
}

/// Rows \p Rows of the stream as a labeled dataset.
ml::Dataset streamRows(const FleetTrace &Trace,
                       const std::vector<size_t> &Rows) {
  ml::Dataset D(pmcColumns(Trace.width()));
  D.reserveRows(Rows.size());
  for (size_t I : Rows)
    D.addRow(Trace.features(I), Trace.label(I));
  return D;
}

/// The ServingStats counters a tick moves.
struct Counters {
  uint64_t Observations, Epochs, Batches, Retrains;
  explicit Counters(const ServingStats &S)
      : Observations(S.Observations), Epochs(S.Epochs), Batches(S.Batches),
        Retrains(S.Retrains) {}
};

/// Builds one fleet. The workload seed drives the streams and the
/// dashboard sample. The served model is the same for every seed (fixed
/// machine, meter, training population and app catalogue), as a deployed
/// estimator is: the seed varies the traffic, not the model, so work per
/// tick and the quality numbers measure the code rather than the draw of
/// a training set.
bool setUp(Kind K, uint64_t Seed, Tracer &T, uint64_t Parent, Fleet &F) {
  const Rng SeedRng(Seed);
  F.M = std::make_unique<Machine>(Platform::intelSkylakeServer(), 42);
  F.Meter = std::make_unique<power::HclWattsUp>(
      *F.M, std::make_unique<power::WattsUpProMeter>());
  const std::vector<CompoundApplication> Training =
      asCompounds(diverseBaseSuite(F.M->platform(), TrainApps, Rng(11)));
  const std::vector<CompoundApplication> Apps =
      asCompounds(diverseBaseSuite(F.M->platform(), NumApps, Rng(7)));
  const ModelFamily Family =
      K == Kind::RetrainLr ? ModelFamily::LR : ModelFamily::RF;

  Expected<OnlineEstimator> E = [&] {
    ScopedSpan S(T, "core.estimator.train", 0, Parent);
    return OnlineEstimator::train(*F.M, *F.Meter, pa4Names(), Training,
                                  Family, /*Seed=*/1);
  }();
  if (!E) {
    std::fprintf(stderr, "error: %s\n", E.error().message().c_str());
    return false;
  }
  F.Estimator.emplace(E.takeValue());

  FleetTraceConfig TraceConfig;
  TraceConfig.NumObservations = TickObs * TicksPerPass;
  TraceConfig.NumTenants = NumTenants;
  TraceConfig.TenantSkew = TenantSkew;
  TraceConfig.DriftMax = K == Kind::RetrainLr ? RetrainDrift : 0;
  for (size_t I = 0; I < NumStreams; ++I) {
    TraceConfig.Seed = SeedRng.fork("trace").fork(I).next();
    Expected<FleetTrace> Trace = [&] {
      ScopedSpan S(T, "core.trace.synth", 0, Parent);
      return FleetTrace::synthesize(*F.M, F.Estimator->events(), Apps,
                                    TraceConfig);
    }();
    if (!Trace) {
      std::fprintf(stderr, "error: %s\n", Trace.error().message().c_str());
      return false;
    }
    F.Streams.push_back(Trace.takeValue());
  }

  const FleetTrace &Head = F.Streams.front();
  F.Engine = std::make_unique<ServingEngine>(
      F.Estimator->model(), Head.width(), NumTenants, Head.numApps());
  if (K == Kind::RetrainLr) {
    // Online RLS retraining, seeded from the head of the first stream.
    ScopedSpan S(T, "ml.rls.seed", 0, Parent);
    std::vector<size_t> SeedRows(RlsSeedRows);
    for (size_t I = 0; I < RlsSeedRows; ++I)
      SeedRows[I] = I;
    F.Online = std::make_unique<ml::RlsLinearRegression>();
    if (Expected<bool> Fit = F.Online->fit(streamRows(Head, SeedRows));
        !Fit) {
      std::fprintf(stderr, "error: %s\n", Fit.error().message().c_str());
      return false;
    }
    F.Engine->enableOnlineRetrain(*F.Online, ml::FitAlgorithm::Rls);
  }
  F.QueryTenantIds = sampleTenants(SeedRng.fork("dashboard"));
  return true;
}

/// FNV-1a over the bit patterns of the per-app energies.
std::string energyHash(const ServingEngine &E) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (uint32_t A = 0; A < E.numApps(); ++A) {
    const double V = E.appEnergy(A);
    unsigned char Bytes[sizeof V];
    std::memcpy(Bytes, &V, sizeof V);
    for (unsigned char B : Bytes)
      H = (H ^ B) * 0x100000001b3ULL;
  }
  char Buf[17];
  std::snprintf(Buf, sizeof Buf, "%016llx", static_cast<unsigned long long>(H));
  return Buf;
}

} // namespace

bool perfbench::runFleet(const RunOptions &Options, Tracer &T, RawResult &R) {
  const Kind K =
      Options.Workload == "fleet_retrain_lr" ? Kind::RetrainLr : Kind::Rf;
  const bool Labeled = K == Kind::RetrainLr;

  // Set-up repetitions rebuild everything; the last one is served. Each
  // repetition drops the previous fleet first, so peak memory is that of
  // one fleet. A traced run sets up once, inside its timeline.
  const size_t Reps = Options.Trace ? 1 : SetupReps;
  std::unique_ptr<Fleet> F;
  for (size_t Rep = 0; Rep < Reps; ++Rep) {
    F.reset();
    T.setEnabled(Options.Trace);
    const int64_t StartNs = nowNs();
    ScopedSpan Setup(T, "op.setup", 0);
    F = std::make_unique<Fleet>();
    if (!setUp(K, Options.Seed, T, Setup.seq(), *F))
      return false;
    R.SetupS.push_back(msBetween(StartNs, nowNs()) / 1e3);
  }
  T.setEnabled(false);
  ServingEngine &Engine = *F->Engine;

  uint64_t Ingested = 0, BadTicks = 0;
  double QuerySink = 0;
  double ErrPctSum = 0, AbsErr = 0, AbsLabel = 0;
  std::vector<double> AppE(Engine.numApps());
  const ServingStats &Stats = Engine.stats();
  OpLoop Loop(Options, MinTicks, TicksPerPass);
  size_t Tick = 0;
  for (; Loop.more(Tick); ++Tick) {
    const bool Traced = Loop.traced(Tick);
    const Counters Before(Stats);
    const size_t Pass = Tick / TicksPerPass;
    const FleetTrace &Trace = F->Streams[Pass % NumStreams];
    const size_t Begin = (Tick % TicksPerPass) * TickObs;
    T.setEnabled(Traced);
    const int64_t StartNs = nowNs();
    int64_t VisibleNs = 0;
    bool Ok = true;
    {
      ScopedSpan Op(T, "op.tick", Tick + 1);
      {
        ScopedSpan S(T, "core.serving.ingest", Tick + 1, Op.seq());
        for (size_t I = Begin; I < Begin + TickObs; ++I) {
          if (Labeled)
            Engine.ingest(Trace.tenant(I), Trace.app(I), Trace.features(I),
                          Trace.label(I));
          else
            Engine.ingest(Trace.tenant(I), Trace.app(I), Trace.features(I));
        }
      }
      const int64_t FoldNs = nowNs();
      {
        ScopedSpan S(T, "core.serving.fold", Tick + 1, Op.seq());
        Engine.endEpoch();
      }
      VisibleNs = nowNs();
      if (Traced)
        R.Series["fold_ms"].push_back(msBetween(FoldNs, VisibleNs));
      Ingested += TickObs;
      double Fleet = 0, AppSum = 0;
      {
        ScopedSpan S(T, "core.query", Tick + 1, Op.seq());
        Fleet = Engine.fleetEnergy();
        for (uint32_t A = 0; A < Engine.numApps(); ++A)
          AppE[A] = Engine.appEnergy(A);
        for (uint32_t Tenant : F->QueryTenantIds)
          QuerySink += Engine.tenantEnergy(Tenant);
      }
      for (double E : AppE)
        AppSum += E;
      Ok = Stats.Observations == Ingested &&
           std::fabs(Fleet - AppSum) <= 1e-9 * std::fabs(Fleet) &&
           std::isfinite(Fleet) && Fleet > 0;
    }
    const int64_t EndNs = nowNs();
    T.setEnabled(false);
    ++R.Attempted;
    if (!Ok) {
      ++R.Failed;
      ++BadTicks;
    }
    const double OpMs = msBetween(StartNs, EndNs);
    R.Series["tick_ms"].push_back(msBetween(StartNs, VisibleNs));
    R.Series["study_ms"].push_back(OpMs);
    R.Series["op_ms"].push_back(OpMs);
    R.Series["op_obs"].push_back(static_cast<double>(TickObs));
    R.Series["op_traced"].push_back(Traced);
    if (Traced) {
      R.Values["core.serving.observations"] +=
          static_cast<double>(Stats.Observations - Before.Observations);
      R.Values["core.serving.epochs"] +=
          static_cast<double>(Stats.Epochs - Before.Epochs);
      R.Values["core.serving.batches"] +=
          static_cast<double>(Stats.Batches - Before.Batches);
      R.Values["core.serving.retrains"] +=
          static_cast<double>(Stats.Retrains - Before.Retrains);
      R.Values["core.query.calls"] +=
          static_cast<double>(1 + AppE.size() + F->QueryTenantIds.size());
    }
    if ((Tick + 1) % TicksPerPass != 0)
      continue;
    if (Pass >= NumStreams)
      continue;
    // First pass over a stream: the seed-determined quality numbers,
    // outside the timed ticks.
    std::vector<size_t> All(Trace.size());
    for (size_t I = 0; I < All.size(); ++I)
      All[I] = I;
    const ml::Dataset Stream = streamRows(Trace, All);
    const ml::Model &Now =
        F->Online ? *F->Online : F->Estimator->model();
    const std::vector<double> Pred = Now.predictBatch(Stream);
    ErrPctSum += stats::predictionErrorSummary(Pred, Stream.targets()).Avg;
    for (size_t I = 0; I < Pred.size(); ++I) {
      AbsErr += std::fabs(Pred[I] - Stream.targets()[I]);
      AbsLabel += std::fabs(Stream.targets()[I]);
    }
    if (Pass + 1 < NumStreams)
      continue;
    R.Values["model_err_pct"] = ErrPctSum / NumStreams;
    // Retraining: the engine's own trace-order score of the model each
    // epoch was served with. Frozen: the same ratio over the streams.
    R.Values["staleness_err"] =
        F->Online ? Stats.stalenessError() : AbsErr / AbsLabel;
    R.Info["energy_hash"] = energyHash(Engine);
  }
  R.Values["query_sink"] = QuerySink;
  R.check("ticks_consistent", BadTicks == 0,
          "every tick folded exactly the ingested observations and "
          "fleetEnergy matched the sum of appEnergy to 1e-9 relative");
  return true;
}
