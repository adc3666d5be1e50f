//===- core/ServingEngine.cpp - Fleet energy-attribution service ----------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "core/ServingEngine.h"

#include "support/PhaseTimers.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <limits>

using namespace slope;
using namespace slope::core;

ServingEngine::ServingEngine(const ml::Model &M, size_t FeatureWidth,
                             uint32_t NumTenants, uint32_t NumApps,
                             ServingConfig Config)
    : Model(&M), Width(FeatureWidth), NumTenants(NumTenants), NumApps(NumApps),
      EpochSize(std::max<size_t>(1, Config.EpochSize)),
      BatchSize(std::max<size_t>(1, Config.BatchSize)),
      ScoreLabels(Config.ScoreLabels) {
  assert(FeatureWidth > 0 && "serving needs at least one feature");
  assert(NumTenants > 0 && NumApps > 0 && "serving needs a fleet shape");
  unsigned NumShards = Config.NumShards > 0
                           ? Config.NumShards
                           : ThreadPool::global().numThreads();
  Shards.resize(std::max(1u, NumShards));
  Stats.ShardBatches.resize(Shards.size());
  const uint32_t ShardCount = static_cast<uint32_t>(Shards.size());
  Slots.resize(NumTenants);
  for (uint32_t T = 0; T < NumTenants; ++T)
    Slots[T] = {T % ShardCount, T / ShardCount * NumApps};
  for (size_t F = 0; F < Width; ++F)
    FeatureNames.push_back("pmc" + std::to_string(F));
  for (size_t SI = 0; SI < Shards.size(); ++SI) {
    // Shard SI owns the striped tenants {SI, SI + S, SI + 2S, ...};
    // shards past the tenant count (more shards than tenants) own none.
    size_t Owned = SI < NumTenants
                       ? (NumTenants - SI + Shards.size() - 1) / Shards.size()
                       : 0;
    Shards[SI].Cells.resize(Owned * NumApps);
    Shards[SI].Marked.resize(Owned * NumApps);
    openBatch(Shards[SI]);
  }
  Folded.resize(static_cast<size_t>(NumTenants) * NumApps);
}

void ServingEngine::enableOnlineRetrain(ml::RlsLinearRegression &OnlineModel,
                                        ml::FitAlgorithm Algo,
                                        const ml::Dataset *SeedHistory) {
  assert(OnlineModel.featureWidth() == Width &&
         "online model width does not match the engine");
  assert(Stats.Observations == 0 && PendingCount == 0 &&
         "enable retrain before ingesting");
  Online = &OnlineModel;
  RetrainAlgo = Algo;
  Model = &OnlineModel;
  if (RetrainAlgo == ml::FitAlgorithm::Refit) {
    assert((!SeedHistory || SeedHistory->numFeatures() == Width) &&
           "seed history width does not match the engine");
    History = SeedHistory ? *SeedHistory : ml::Dataset(FeatureNames);
  }
}

void ServingEngine::openBatch(Shard &S) {
  // Sized once here; flushes recycle the batch, so steady-state ingest
  // never allocates.
  Batch &B = S.Staged.emplace_back();
  B.Cells.resize(BatchSize);
  B.Pred.resize(BatchSize);
  B.Rows.resize(BatchSize * Width);
  B.Columns = ml::Dataset(FeatureNames);
  B.Columns.reserveRows(BatchSize);
}

bool ServingEngine::stage(uint32_t Tenant, uint32_t App,
                          const double *Features, double Label) {
  assert(Tenant < NumTenants && "tenant id out of range");
  assert(App < NumApps && "app id out of range");
  const TenantSlot Slot = Slots[Tenant];
  Shard &S = Shards[Slot.Shard];
  Batch &B = S.Staged[S.Full];
  double *Row = B.Rows.data() + B.N * Width;
  for (size_t F = 0; F < Width; ++F)
    Row[F] = Features[F];
  B.Cells[B.N] = Slot.CellBase + App;
  if (logsLabels() && std::isfinite(Label)) {
    LogFeatures.insert(LogFeatures.end(), Features, Features + Width);
    LogLabels.push_back(Label);
  }
  if (++B.N < BatchSize)
    return false;
  if (++S.Full == StagedBatchesPerShard)
    return true; // The caller flushes before the next row arrives.
  if (S.Full == S.Staged.size())
    openBatch(S);
  return false;
}

void ServingEngine::ingest(uint32_t Tenant, uint32_t App,
                           const double *Features) {
  ingest(Tenant, App, Features, std::numeric_limits<double>::quiet_NaN());
}

void ServingEngine::ingest(uint32_t Tenant, uint32_t App,
                           const double *Features, double Label) {
  const bool Full = stage(Tenant, App, Features, Label);
  if (++PendingCount >= EpochSize)
    foldEpoch();
  else if (Full)
    flushStaged(/*Partial=*/false);
}

void ServingEngine::flushStaged(bool Partial) {
  // The batches to run per shard: the full ones, plus the open one when
  // it holds rows and this flush is partial.
  auto toRun = [Partial](const Shard &S) {
    return S.Full + (Partial && S.Full < StagedBatchesPerShard &&
                     S.Staged[S.Full].N > 0);
  };
  // Jobs in a fixed (shard, batch) order; the pool balances them, so a
  // Zipf-hot shard's batches spread over every thread.
  Jobs.clear();
  for (Shard &S : Shards)
    for (size_t B = 0, N = toRun(S); B < N; ++B)
      Jobs.push_back(&S.Staged[B]);
  parallelFor(0, Jobs.size(), 1, [this](size_t J) {
    Batch &B = *Jobs[J];
    const auto Start = std::chrono::steady_clock::now();
    // Columnar assembly happens here, in parallel, rather than on the
    // ingest thread: staging the columns at ingest instead measured 9-11%
    // slower fleet ticks (see DESIGN.md).
    B.Columns.clearRows();
    for (size_t R = 0; R < B.N; ++R)
      B.Columns.addRow(B.Rows.data() + R * Width, 0.0);
    Model->predictBatchInto(B.Columns, B.Pred.data());
    B.Ms = std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - Start)
               .count();
  });

  // After the join: each shard adds its predictions to its cells in
  // trace order, then recycles the batches it ran.
  for (size_t SI = 0; SI < Shards.size(); ++SI) {
    Shard &S = Shards[SI];
    const size_t Ran = toRun(S);
    for (size_t BI = 0; BI < Ran; ++BI) {
      Batch &B = S.Staged[BI];
      for (size_t R = 0; R < B.N; ++R) {
        const uint32_t Local = B.Cells[R];
        Cell &C = S.Cells[Local];
        C.EnergyJ += B.Pred[R];
        C.Count += 1;
        if (!S.Marked[Local]) { // First touch since the last fold.
          S.Marked[Local] = 1;
          S.Touched.push_back(Local);
        }
      }
      Stats.BatchLatency.record(B.Ms);
      B.N = 0;
    }
    Stats.Batches += Ran;
    Stats.ShardBatches[SI] += Ran;
    // A bound-triggered flush leaves the open batch staged: move it to
    // the front, where the next rows continue it.
    if (Ran > 0 && Ran < S.Staged.size())
      std::swap(S.Staged[0], S.Staged[Ran]);
    S.Full = 0;
  }
}

void ServingEngine::retrainOnLog() {
  if (LogLabels.empty())
    return;

  // Staleness pass: score the epoch-start model — the one this epoch's
  // predictions were actually served with — against the epoch's labels,
  // serially in trace order (bit-identical at any shard/thread count).
  // Runs before any update so frozen and retrained engines are measured
  // on equal footing: the difference between their scores is exactly the
  // staleness the retraining removes.
  const size_t NumLabeled = LogLabels.size();
  std::vector<double> RowBuf;
  for (size_t I = 0; I < NumLabeled; ++I) {
    const double *X = LogFeatures.data() + I * Width;
    double Pred;
    if (Online) {
      Pred = Online->predictRow(X);
    } else {
      RowBuf.assign(X, X + Width);
      Pred = Model->predict(RowBuf);
    }
    Stats.PredictionAbsErrJ += std::abs(Pred - LogLabels[I]);
    Stats.LabelAbsJ += std::abs(LogLabels[I]);
  }
  if (!Online)
    return;

  // Advance the model for the next epoch. Both paths apply the labeled
  // rows serially in trace order, so the retrained coefficients are as
  // shard/thread-invariant as the folded table.
  if (RetrainAlgo == ml::FitAlgorithm::Rls) {
    // O(F^2) per observation, no history: cost per fold is proportional
    // to the epoch, not to the stream consumed so far. One batched call
    // keeps the model state in locals across the whole epoch.
    ScopedPhase Timer(Phase::RlsUpdate);
    Online->update(LogFeatures.data(), LogLabels.data(), NumLabeled);
  } else {
    // The reference: append the epoch to the history and re-solve the
    // batch fit from scratch — O(N*F^2) with N the entire stream so far.
    ScopedPhase Timer(Phase::Refit);
    for (size_t I = 0; I < NumLabeled; ++I)
      History.addRow(LogFeatures.data() + I * Width, LogLabels[I]);
    auto Refitted = Online->fit(History);
    assert(Refitted && "online refit failed on accumulated history");
    (void)Refitted;
  }
  ++Stats.Retrains;
}

void ServingEngine::foldEpoch() {
  ScopedPhase FoldTimer(Phase::ServeFold);
  flushStaged(/*Partial=*/true);

  // Score this epoch against its labels and (in retrain mode) advance
  // the model — the republish point: the next epoch's predictions see
  // the post-update coefficients, this epoch's saw the pre-update ones.
  retrainOnLog();

  // The fold: publish the cells this epoch touched into the
  // query-visible table, in shard order. A cell no row reached since the
  // last fold already holds its published value, so the copy is
  // proportional to the epoch, not to the fleet. Cells are owned by
  // exactly one shard, so this is a snapshot copy, never a cross-shard
  // sum.
  const uint32_t NumShards = static_cast<uint32_t>(Shards.size());
  for (uint32_t SI = 0; SI < NumShards; ++SI) {
    Shard &S = Shards[SI];
    for (uint32_t Local : S.Touched) {
      const uint32_t LocalTenant = Local / NumApps;
      const uint32_t App = Local - LocalTenant * NumApps;
      Folded[(static_cast<size_t>(LocalTenant) * NumShards + SI) * NumApps +
             App] = S.Cells[Local];
      S.Marked[Local] = 0;
    }
    Stats.CellsPublished += S.Touched.size();
    S.Touched.clear();
  }
  Stats.Observations += PendingCount;
  Stats.Epochs += 1;
  PendingCount = 0;
  LogFeatures.clear();
  LogLabels.clear();
}

void ServingEngine::endEpoch() {
  if (PendingCount == 0)
    return;
  foldEpoch();
}

void ServingEngine::replay(const FleetTrace &Trace) {
  assert(Trace.width() == Width && "trace width does not match the engine");
  ScopedPhase Timer(Phase::Serve);
  // Stages exactly as a per-row ingest() loop would (same rows, order,
  // flush points and fold boundaries), in slices that stop at each flush
  // or fold, so the staging and the flushes/folds charge disjoint
  // sub-phases and --bench-json can split replay cost into ingest_ms and
  // fold_ms. The trace's labels ride along for the scoring/retrain fold.
  const bool Logged = logsLabels();
  size_t I = 0;
  while (I < Trace.size()) {
    bool Full = false;
    {
      ScopedPhase IngestTimer(Phase::ServeIngest);
      while (!Full && I < Trace.size() && PendingCount < EpochSize) {
        // The label column is read only when the fold uses it.
        Full = stage(Trace.tenant(I), Trace.app(I), Trace.features(I),
                     Logged ? Trace.label(I) : 0.0);
        ++I;
        ++PendingCount;
      }
    }
    if (PendingCount >= EpochSize) {
      foldEpoch();
    } else if (Full) {
      ScopedPhase FlushTimer(Phase::ServeFold);
      flushStaged(/*Partial=*/false);
    }
  }
  endEpoch();
}

double ServingEngine::tenantEnergy(uint32_t Tenant) const {
  assert(Tenant < NumTenants && "tenant id out of range");
  const Cell *Row = Folded.data() + static_cast<size_t>(Tenant) * NumApps;
  double Sum = 0;
  for (uint32_t A = 0; A < NumApps; ++A)
    Sum += Row[A].EnergyJ;
  return Sum;
}

uint64_t ServingEngine::tenantObservations(uint32_t Tenant) const {
  assert(Tenant < NumTenants && "tenant id out of range");
  const Cell *Row = Folded.data() + static_cast<size_t>(Tenant) * NumApps;
  uint64_t Sum = 0;
  for (uint32_t A = 0; A < NumApps; ++A)
    Sum += Row[A].Count;
  return Sum;
}

double ServingEngine::appEnergy(uint32_t App) const {
  assert(App < NumApps && "app id out of range");
  double Sum = 0;
  for (uint32_t T = 0; T < NumTenants; ++T)
    Sum += Folded[static_cast<size_t>(T) * NumApps + App].EnergyJ;
  return Sum;
}

uint64_t ServingEngine::appObservations(uint32_t App) const {
  assert(App < NumApps && "app id out of range");
  uint64_t Sum = 0;
  for (uint32_t T = 0; T < NumTenants; ++T)
    Sum += Folded[static_cast<size_t>(T) * NumApps + App].Count;
  return Sum;
}

double ServingEngine::fleetEnergy() const {
  double Sum = 0;
  for (uint32_t T = 0; T < NumTenants; ++T)
    Sum += tenantEnergy(T);
  return Sum;
}
