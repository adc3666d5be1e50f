//===- core/ServingEngine.h - Fleet energy-attribution service --*- C++ -*-===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The long-running estimator service the pipeline's artifact plugs into:
/// ingests a stream of (tenant-id, app-id, PMC-vector) observations from
/// a simulated fleet and answers per-tenant / per-app dynamic-energy
/// queries, with inference through the model's batch path in bounded-size
/// batches so latency stays bounded while throughput scales.
///
/// Concurrency follows the per-CPU accumulator + periodic-fold idiom of
/// in-kernel energy models: tenant state is sharded (tenant % NumShards,
/// striped so Zipf-hot low tenant ids spread across shards), and each
/// shard owns plain accumulation slots that only it writes — no locks or
/// atomics on the hot path. An explicit epoch boundary publishes the
/// running totals of every cell the epoch touched into the query-visible
/// table in shard order, so a fold costs what its epoch carried, not
/// what the fleet holds. Until then queries see the previous fold's
/// snapshot, including across bound-triggered mid-epoch flushes.
///
/// Ingest routes each observation into its owning shard's open BatchSize
/// batch (the shard is a pure function of the tenant id). At the fold,
/// and whenever a shard has StagedBatchesPerShard full batches staged,
/// every staged batch of every shard runs in one parallelFor over
/// (shard, batch) jobs in a fixed order, each writing its predictions
/// into the batch's own buffer. Skewed traffic therefore spreads over the whole pool instead
/// of waiting on the hottest shard. After the single join each shard
/// adds its predictions to its cells in trace order (a bound-triggered
/// flush runs full batches only, so per-shard batch counts stay
/// ceil(rows / BatchSize) per epoch).
///
/// Determinism argument (the house bit-identity style): a (tenant, app)
/// cell is owned by exactly one shard, the shard stages its observations
/// in arrival order and accumulates them in that order, and each
/// prediction is a pure function of one feature row — so every cell's
/// float accumulation order is trace order regardless of shard count,
/// thread count, or batch size. Derived aggregates are summed from the
/// folded cells in ascending (tenant, app) order, never across shards,
/// so replaying the same trace is bit-identical at any shard/thread
/// count.
///
//===----------------------------------------------------------------------===//

#ifndef SLOPE_CORE_SERVINGENGINE_H
#define SLOPE_CORE_SERVINGENGINE_H

#include "core/FleetTrace.h"
#include "ml/Model.h"
#include "ml/RlsLinearRegression.h"
#include "support/AlignedBuffer.h"
#include "support/LatencyHistogram.h"

#include <cstdint>
#include <vector>

namespace slope {
namespace core {

/// Serving knobs. None of them changes any query result — they trade
/// wall clock and memory only (EpochSize additionally sets how much
/// ingested traffic may be pending before it becomes query-visible).
struct ServingConfig {
  /// Tenant-state shards; 0 means one per global-pool thread.
  unsigned NumShards = 0;
  /// Observations buffered before an automatic epoch fold.
  size_t EpochSize = 65536;
  /// Maximum rows per inference batch (bounds batch latency).
  size_t BatchSize = 256;
  /// Score labeled observations against the serving model at each fold
  /// (ServingStats staleness counters) even without online retrain. Off
  /// by default: the scoring pass is serial per-row prediction, which a
  /// frozen forest-family replay does not want on its critical path.
  /// Online-retrain mode always scores (its per-row predict is O(F)).
  bool ScoreLabels = false;
};

/// Serving-side counters, populated as batches run and epochs fold.
struct ServingStats {
  uint64_t Observations = 0; ///< Observations folded into the table.
  uint64_t Epochs = 0;       ///< Folds performed.
  uint64_t Batches = 0;      ///< Inference batches run.
  uint64_t Retrains = 0;     ///< Online-retrain passes performed at folds.
  /// Cells copied into the query-visible table, summed over folds. A
  /// fold publishes only the (tenant, app) cells its epoch touched, so
  /// this tracks traffic, not tenants x apps.
  uint64_t CellsPublished = 0;
  /// Batches run per shard (deterministic for a fixed shard count; the
  /// Zipf skew of the traffic shows up here).
  std::vector<uint64_t> ShardBatches;
  /// Sum of |prediction - label| over every labeled observation, with
  /// each epoch's predictions made by the model that epoch was actually
  /// served with (the epoch-start model). This is the staleness measure:
  /// a frozen model accumulates error as the workload drifts; a retrained
  /// one tracks it. Accumulated in one serial trace-order pass per fold,
  /// so it is bit-identical at any shard/thread count.
  double PredictionAbsErrJ = 0;
  double LabelAbsJ = 0; ///< Sum of |label| over the same observations.
  /// Wall-clock latency of every inference batch, recorded in (shard,
  /// batch) order after each flush. Bucket placement is timing; the
  /// count is deterministic for a fixed shard count.
  LatencyHistogram BatchLatency;

  /// \returns the relative staleness error: sum |pred - label| over
  /// sum |label| (0 when no labeled observations were served).
  double stalenessError() const {
    return LabelAbsJ > 0 ? PredictionAbsErrJ / LabelAbsJ : 0;
  }
};

/// A sharded, epoch-folded energy-attribution engine over one fitted
/// model (typically OnlineEstimator::model()).
class ServingEngine {
public:
  /// Serves \p M (borrowed; must outlive the engine and be fitted) for a
  /// fleet of \p NumTenants tenants running \p NumApps app templates,
  /// with \p FeatureWidth PMCs per observation.
  ServingEngine(const ml::Model &M, size_t FeatureWidth, uint32_t NumTenants,
                uint32_t NumApps, ServingConfig Config = ServingConfig());

  /// Switches the engine to online-retrain mode: predictions are served
  /// from \p Online (borrowed; must be fitted — typically seeded from the
  /// head of the stream — and must outlive the engine), and every epoch
  /// fold feeds that epoch's labeled observations back into it, then
  /// republishes the updated model for the next epoch. \p Algo selects
  /// the maintenance path: Rls folds each observation in with an O(F^2)
  /// Sherman-Morrison update; Refit accumulates the full history and
  /// re-runs the O(N*F^2) batch fit every fold (the reference). Either
  /// way the updates are applied serially in trace order at the fold, so
  /// replay stays bit-identical at any shard/thread/batch count. Must be
  /// called before any ingestion.
  ///
  /// \p SeedHistory (Refit mode only): the dataset \p Online was seeded
  /// from. The refit accumulates new epochs on top of it, so the
  /// reference solves the same ridge system the RLS updates maintain —
  /// over the seed plus every epoch — and the two paths' attributions
  /// agree to solver precision.
  void enableOnlineRetrain(ml::RlsLinearRegression &Online,
                           ml::FitAlgorithm Algo,
                           const ml::Dataset *SeedHistory = nullptr);

  /// Stages one observation (\p Features: featureWidth() values) in its
  /// shard's open batch; folds automatically once EpochSize observations
  /// are pending.
  void ingest(uint32_t Tenant, uint32_t App, const double *Features);

  /// Stages one labeled observation: like ingest(), plus a measured
  /// dynamic-energy target the online-retrain fold learns from (and
  /// scores the serving model against — see ServingStats). Without
  /// retrain mode the label only feeds the staleness stats.
  void ingest(uint32_t Tenant, uint32_t App, const double *Features,
              double Label);

  /// Runs every staged batch and publishes every cell touched since the
  /// last fold into the query-visible table (shard order).
  void endEpoch();

  /// Ingests the whole trace and ends the epoch, exactly as a per-row
  /// ingest() loop would; the standard replay driver (charged to
  /// Phase::Serve, with the staging and flush/fold slices sub-attributed
  /// to Phase::ServeIngest / Phase::ServeFold). In
  /// online-retrain mode the trace's labels ride along, so each fold
  /// retrains on the epoch just served.
  void replay(const FleetTrace &Trace);

  /// Folded per-tenant dynamic energy (J) / observation count.
  double tenantEnergy(uint32_t Tenant) const;
  uint64_t tenantObservations(uint32_t Tenant) const;

  /// Folded per-app dynamic energy (J) / observation count, summed over
  /// tenants in ascending order.
  double appEnergy(uint32_t App) const;
  uint64_t appObservations(uint32_t App) const;

  /// Folded fleet-wide dynamic energy: per-tenant totals summed in
  /// ascending tenant order.
  double fleetEnergy() const;

  size_t featureWidth() const { return Width; }
  uint32_t numTenants() const { return NumTenants; }
  uint32_t numApps() const { return NumApps; }
  unsigned numShards() const { return static_cast<unsigned>(Shards.size()); }
  const ServingStats &stats() const { return Stats; }

private:
  /// Full batches a shard may hold before every shard's full batches run
  /// (bounds staging memory at StagedBatchesPerShard * BatchSize rows per
  /// shard, whatever EpochSize is).
  static constexpr size_t StagedBatchesPerShard = 16;

  /// One (tenant, app) accumulation slot.
  struct Cell {
    double EnergyJ = 0;
    uint64_t Count = 0;
  };

  /// One bounded inference batch, staged at ingest in arrival order, with
  /// the caller-owned prediction span its flush job writes.
  struct Batch {
    size_t N = 0;                ///< Rows staged.
    AlignedBuffer<double> Rows;  ///< Staged rows, row-major.
    std::vector<uint32_t> Cells; ///< Accumulation slot per staged row.
    ml::Dataset Columns;         ///< Rows, columnar, at flush.
    std::vector<double> Pred;    ///< Predictions (BatchSize slots).
    double Ms = 0;               ///< Latency of the last run.
  };

  /// Per-shard state. A flush job writes only its own batch's
  /// predictions and latency; everything else is written by the thread
  /// that drives ingest.
  struct Shard {
    /// Running totals, local-tenant-major (localTenant * NumApps + app);
    /// local tenant L is global tenant L * NumShards + shardIndex.
    std::vector<Cell> Cells;
    /// Cells accumulated into since the last fold: Marked[Local] is set
    /// on a cell's first touch, which appends it to Touched. The fold
    /// publishes exactly the Touched cells, then clears both.
    std::vector<uint8_t> Marked;
    std::vector<uint32_t> Touched;
    /// Staged[0..Full) are full batches; Staged[Full] is the open one
    /// (always present below the flush bound). Batches are reused across
    /// flushes.
    std::vector<Batch> Staged;
    size_t Full = 0;
  };

  /// Where a tenant's cells live: its shard (tenant % NumShards) and its
  /// first cell there ((tenant / NumShards) * NumApps). Precomputed, since
  /// a runtime-divisor div per observation would cost more than the rest
  /// of the per-row staging work.
  struct TenantSlot {
    uint32_t Shard;
    uint32_t CellBase;
  };

  /// Appends a fresh batch, sized for BatchSize rows, to \p S.
  void openBatch(Shard &S);

  /// Whether ingest keeps the trace-order labeled log: the fold scores or
  /// retrains on labels.
  bool logsLabels() const { return Online || ScoreLabels; }

  /// Stages one observation in its shard's open batch (and, when labels
  /// are scored, in the trace-order log). \returns true when that shard
  /// now holds StagedBatchesPerShard full batches.
  bool stage(uint32_t Tenant, uint32_t App, const double *Features,
             double Label);

  /// Runs every staged batch of every shard — full batches only unless
  /// \p Partial — in one parallelFor over (shard, batch) jobs, then
  /// accumulates the predictions shard by shard in trace order, marking
  /// each cell's first touch since the last fold.
  void flushStaged(bool Partial);

  /// Runs every staged batch, scores and retrains on the epoch's labeled
  /// log (see retrainOnLog), then publishes the touched cells of every
  /// shard in shard order and clears their marks.
  void foldEpoch();

  /// Online-retrain and label-scoring pass of foldEpoch(): a serial
  /// trace-order pass scores the epoch-start model against the epoch's
  /// labels (staleness stats), then feeds the labeled rows into the
  /// online model (Phase::RlsUpdate) or refits it over the accumulated
  /// history (Phase::Refit) before the next epoch begins.
  void retrainOnLog();

  const ml::Model *Model;
  size_t Width;
  uint32_t NumTenants;
  uint32_t NumApps;
  size_t EpochSize;
  size_t BatchSize;
  bool ScoreLabels;
  std::vector<std::string> FeatureNames; ///< pmc0..pmc<Width-1>.

  std::vector<Shard> Shards;
  std::vector<TenantSlot> Slots; ///< Per tenant.
  std::vector<Batch *> Jobs; ///< Reused flush job list.
  std::vector<Cell> Folded; ///< Query-visible table (tenant * NumApps + app).
  ServingStats Stats;
  size_t PendingCount = 0; ///< Observations staged since the last fold.

  // Online-retrain state: the served-and-updated model (null when the
  // engine serves a frozen model), the maintenance algorithm, and — for
  // the Refit reference — the accumulated labeled history.
  ml::RlsLinearRegression *Online = nullptr;
  ml::FitAlgorithm RetrainAlgo = ml::FitAlgorithm::Rls;
  ml::Dataset History; ///< Refit mode only: every labeled row so far.

  /// Trace-order log of this epoch's labeled rows, kept only when the
  /// fold scores or retrains on labels: flat row-major features and their
  /// finite labels.
  std::vector<double> LogFeatures;
  std::vector<double> LogLabels;
};

} // namespace core
} // namespace slope

#endif // SLOPE_CORE_SERVINGENGINE_H
