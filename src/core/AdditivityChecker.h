//===- core/AdditivityChecker.h - The additivity test -----------*- C++ -*-===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's two-stage additivity test (Sect. 4) and its automation
/// (the AdditivityChecker tool):
///
///   Stage 1 — the PMC must be deterministic and reproducible: its count
///   across repeated runs of the same application must be significant
///   (mean > 10) with a bounded coefficient of variation.
///
///   Stage 2 — for every compound application A;B in the suite, the
///   percentage error  |(mean(e_A) + mean(e_B) - mean(e_AB))| /
///   (mean(e_A) + mean(e_B)) * 100  (Eq. 1) must stay within tolerance
///   (5% by default). The event's additivity error is the maximum over
///   all compounds.
///
/// A PMC passing both stages is *potentially additive*; otherwise it is
/// branded non-additive on this platform for this suite.
///
//===----------------------------------------------------------------------===//

#ifndef SLOPE_CORE_ADDITIVITYCHECKER_H
#define SLOPE_CORE_ADDITIVITYCHECKER_H

#include "sim/Machine.h"

#include <map>
#include <string>

namespace slope {
namespace core {

/// Parameters of the additivity test.
struct AdditivityTestConfig {
  double TolerancePct = 5.0;      ///< Stage-2 pass threshold.
  unsigned ReproducibilityRuns = 5; ///< Stage-1 repetitions per base app.
  double MaxCv = 0.25;            ///< Stage-1 coefficient-of-variation cap.
  double MinMeanCount = 10.0;     ///< Significance filter ("counts <= 10").
  unsigned RunsPerMean = 3;       ///< Runs averaged into each sample mean.
};

/// Stage-2 outcome for one compound application.
struct CompoundError {
  sim::CompoundApplication App;
  double ErrorPct = 0;
};

/// Complete verdict for one event.
struct AdditivityResult {
  pmc::EventId Id = 0;
  std::string Name;
  bool Significant = true;    ///< Mean count above the filter.
  bool Deterministic = true;  ///< Stage 1 passed.
  double WorstCv = 0;         ///< Largest CV observed across base apps.
  double MaxErrorPct = 0;     ///< Stage-2 maximum percentage error.
  bool Additive = false;      ///< Both stages passed within tolerance.
  std::vector<CompoundError> Errors;
};

/// Runs the additivity test against a simulated machine.
///
/// Executions are cached: each base and compound application in the suite
/// is run the required number of times once, and every queried event is
/// read against those stored runs. Counter observations are independent
/// per (run, event) — statistically equivalent to the real tool's
/// re-running per 4-event group, without the redundant simulation cost.
class AdditivityChecker {
public:
  AdditivityChecker(sim::Machine &M,
                    AdditivityTestConfig Config = AdditivityTestConfig());

  /// Tests one event over \p Compounds (and their base applications).
  AdditivityResult check(pmc::EventId Id,
                         const std::vector<sim::CompoundApplication> &Compounds);

  /// Tests many events over one suite, sharing the cached executions.
  /// Executions are materialized first — run seeds forked serially in the
  /// order a lazy serial scan would consume them, the runs in parallel —
  /// then the per-event verdicts, pure reads against the cache, are
  /// computed in parallel on the global thread pool. Results are
  /// bit-identical to calling check() per event, at any thread count.
  std::vector<AdditivityResult>
  checkAll(const std::vector<pmc::EventId> &Ids,
           const std::vector<sim::CompoundApplication> &Compounds);

  const AdditivityTestConfig &config() const { return Config; }

private:
  /// Runs every execution check() would lazily trigger for \p Compounds,
  /// on the run seeds the same machine-run order would draw (forked
  /// serially, executed in parallel), so a subsequent check() is a pure
  /// cache read (and therefore safe to run concurrently per event).
  void prewarm(const std::vector<sim::CompoundApplication> &Compounds);

  /// \returns the cached executions of \p App, running it if needed. The
  /// cache is only mutated when fewer than \p Runs executions are stored;
  /// after prewarm() this is a read-only lookup.
  const std::vector<sim::Execution> &
  executionsFor(const sim::CompoundApplication &App, unsigned Runs);

  /// Mean observed count of \p Id over \p Runs runs of \p App.
  double meanCount(pmc::EventId Id, const sim::CompoundApplication &App,
                   unsigned Runs);

  sim::Machine &M;
  AdditivityTestConfig Config;
  /// Execution cache keyed by the application's string form.
  std::map<std::string, std::vector<sim::Execution>> Cache;
};

} // namespace core
} // namespace slope

#endif // SLOPE_CORE_ADDITIVITYCHECKER_H
