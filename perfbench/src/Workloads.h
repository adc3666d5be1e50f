//===- perfbench/src/Workloads.h - Workload runners and raw results -*- C++ -*-===//
//
// Each workload fills a RawResult: the raw samples, counters and checks
// of one run. perfbench/report.py turns it into the benchmark's metrics;
// this program computes no percentiles itself.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Tracer.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Global thread-pool width every workload runs at.
constexpr unsigned PoolThreads = 4;

/// Hard cap on a run's measuring loop, whatever the sample minimums ask
/// for, so a run always ends well inside its time limit.
constexpr double MaxLoopSeconds = 140;

struct RunOptions {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 0;
  bool Trace = false;
};

struct Check {
  std::string Name;
  bool Ok = false;
  std::string Detail;
};

struct RawResult {
  /// Wall time of each set-up repetition (s).
  std::vector<double> SetupS;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Check> Checks;
  /// Timing samples (ms) by series name.
  std::map<std::string, std::vector<double>> Series;
  /// Scalar measurements and counters.
  std::map<std::string, double> Values;
  /// Descriptive strings (e.g. the per-app energy hash).
  std::map<std::string, std::string> Info;

  void check(const std::string &Name, bool Ok, const std::string &Detail) {
    Checks.push_back({Name, Ok, Detail});
  }
};

/// Closed loop: keeps issuing ops until the time budget is
/// spent and at least MinOps have run (percentiles need their samples),
/// stopping early only at the MaxLoopSeconds cap. In a traced run every
/// odd op is traced and every even op is not, so the traced and untraced
/// latencies interleave and the tracing overhead is measured under the
/// same conditions.
class OpLoop {
public:
  OpLoop(const RunOptions &Options, size_t MinOps, size_t OpsPerRound = 1)
      : Options(Options), MinOps(MinOps), OpsPerRound(OpsPerRound),
        StartNs(nowNs()) {}

  /// \returns whether op \p I should run; only ends at round boundaries.
  bool more(size_t I) const {
    if (I % OpsPerRound != 0)
      return true;
    const double Elapsed = msBetween(StartNs, nowNs()) / 1e3;
    if (Elapsed >= MaxLoopSeconds)
      return false;
    return Elapsed < Options.Seconds || I < MinOps;
  }

  bool traced(size_t I) const { return Options.Trace && I % 2 == 1; }

private:
  const RunOptions &Options;
  size_t MinOps;
  size_t OpsPerRound;
  int64_t StartNs;
};

/// Workload runners; \returns false on an error that stops the run
/// (reported on stderr). Failed checks are recorded in \p R instead.
bool runModelStudy(const RunOptions &Options, Tracer &T, RawResult &R);
bool runFleet(const RunOptions &Options, Tracer &T, RawResult &R);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
