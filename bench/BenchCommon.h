//===- bench/BenchCommon.h - Shared bench-harness helpers -------*- C++ -*-===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared plumbing for the table-reproduction binaries: full paper-scale
/// experiment configurations and measured-vs-paper table rendering.
///
//===----------------------------------------------------------------------===//

#ifndef SLOPE_BENCH_BENCHCOMMON_H
#define SLOPE_BENCH_BENCHCOMMON_H

#include "PaperReference.h"

#include "core/Experiments.h"
#include "core/Report.h"
#include "ml/DecisionTree.h"
#include "ml/NeuralNetwork.h"
#include "ml/RlsLinearRegression.h"
#include "pmc/PlatformEvents.h"
#include "sim/Machine.h"
#include "stats/SimdKernels.h"
#include "support/Cli.h"
#include "support/PhaseTimers.h"
#include "support/Str.h"
#include "support/TablePrinter.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace bench {

/// Output path for the machine-readable timing summary; empty (the
/// default) disables JSON emission entirely.
inline std::string &benchJsonPath() {
  static std::string Path;
  return Path;
}

/// Value of --sweep-repeat (default 1); benches that support repetition
/// forward it into their experiment config.
inline unsigned &sweepRepeatFlag() {
  static unsigned Repeat = 1;
  return Repeat;
}

/// Value of --profile-repeat (default 1); benches that support it forward
/// the count into their experiment config to amplify the profiling
/// campaign for perf gates (extra passes are discarded, output unchanged).
inline unsigned &profileRepeatFlag() {
  static unsigned Repeat = 1;
  return Repeat;
}

/// Thread count requested on the command line (0 = pool default);
/// recorded for the JSON summary.
inline unsigned &requestedThreads() {
  static unsigned Threads = 0;
  return Threads;
}

/// One process-wide kernel switch a driver flag selects. The owning
/// module spells its values once, in the Choice array beside its enum,
/// and the flag takes the same values; the module also reads its SLOPE_*
/// variable at startup (so test and google-benchmark binaries honour it
/// too).
struct KernelSwitch {
  /// Driver flag; its --bench-json key is the name with '-' as '_'.
  const char *Flag;
  /// Declares Flag on a parser: the module's names, routed to its setter.
  void (*Declare)(slope::cli::FlagParser &Flags, const char *Flag);
  /// The value --bench-json reports.
  const char *(*Get)();
};

/// Builds the KernelSwitch row for the names \p Names, setter \p Set
/// and getter \p Get of one module.
template <auto &Names, auto Set, auto Get>
KernelSwitch kernelSwitch(const char *Flag) {
  return {Flag,
          [](slope::cli::FlagParser &Flags, const char *Name) {
            Flags.choice(Name, Names, Set);
          },
          [] {
            if constexpr (std::is_same_v<decltype(Get()), const char *>)
              return Get();
            else
              return slope::cli::nameOf(Names, Get());
          }};
}

/// Every kernel switch all drivers share, in --bench-json order. An
/// explicit list, not self-registration: the modules are static
/// archives, and an unreferenced registration object would be dropped
/// at link time.
inline const std::vector<KernelSwitch> &kernelSwitches() {
  using namespace slope;
  static const std::vector<KernelSwitch> Table = {
      kernelSwitch<ml::TreeAlgorithmNames, ml::setDefaultTreeAlgorithm,
                   ml::defaultTreeAlgorithm>("--tree-algo"),
      kernelSwitch<ml::NnAlgorithmNames, ml::setDefaultNnAlgorithm,
                   ml::defaultNnAlgorithm>("--nn-algo"),
      kernelSwitch<sim::SynthAlgorithmNames, sim::setDefaultSynthAlgorithm,
                   sim::defaultSynthAlgorithm>("--synth-algo"),
      // Reports the *resolved* variant the column-parallel kernels ran
      // with on this host (auto resolves to "avx2" or "scalar"), so
      // archived JSON records what executed rather than what was asked.
      kernelSwitch<stats::SimdModeNames, stats::setDefaultSimdMode,
                   stats::resolvedSimdVariant>("--simd"),
  };
  return Table;
}

/// Parses a driver's command line: \p Flags carries the driver's own
/// flags and positionals; this adds the shared ones, and any unknown flag
/// or bad value exits 2 listing what is accepted. \returns the positional
/// arguments.
///
/// `--threads N` (or SLOPE_THREADS; 0 = pool default) sizes the global
/// experiment thread pool; parallel results are bit-identical at any
/// setting, so the knob trades wall clock only. The kernelSwitches()
/// flags select kernels: `--tree-algo`, `--nn-algo` and `--synth-algo`
/// are bit-neutral (perf gates compare the two sides);
/// `--simd auto|avx2|scalar` picks the SIMD variant (auto enables only
/// the bit-identical column-parallel AVX2 kernels, avx2 also the
/// reassociating K-split ones, scalar forces the reference — see
/// stats/SimdKernels.h). `--bench-json PATH` (or SLOPE_BENCH_JSON)
/// writes a machine-readable timing summary to PATH without changing
/// stdout. `--sweep-repeat N` repeats the model sweep in benches that
/// support it; `--profile-repeat N` likewise repeats the profiling
/// campaign (extra passes discarded).
inline std::vector<std::string>
parseArgs(int Argc, char **Argv, slope::cli::FlagParser Flags = {}) {
  if (const char *Env = std::getenv("SLOPE_BENCH_JSON"))
    benchJsonPath() = Env;
  Flags.number("--threads", requestedThreads(), 0u,
               slope::ThreadPool::MaxThreads);
  for (const KernelSwitch &Switch : kernelSwitches())
    Switch.Declare(Flags, Switch.Flag);
  Flags.text("--bench-json", benchJsonPath(), "PATH");
  Flags.number("--sweep-repeat", sweepRepeatFlag(), 1u);
  Flags.number("--profile-repeat", profileRepeatFlag(), 1u);
  std::vector<std::string> Positional = Flags.parseOrExit(Argc, Argv);
  slope::ThreadPool::setGlobalThreadCount(requestedThreads());
  return Positional;
}

/// Named wall-clock sections recorded for the JSON summary.
inline std::vector<std::pair<std::string, double>> &timedSections() {
  static std::vector<std::pair<std::string, double>> Sections;
  return Sections;
}

/// Extra bench-specific numeric fields appended to the JSON summary
/// (e.g. the serving driver's predictions_per_sec and latency
/// percentiles). Keys must be unique and JSON-safe.
inline std::vector<std::pair<std::string, double>> &extraJsonNumbers() {
  static std::vector<std::pair<std::string, double>> Extras;
  return Extras;
}

/// Records the wall time of one named scope into timedSections().
class ScopedTimer {
public:
  explicit ScopedTimer(std::string Name)
      : Name(std::move(Name)), Start(std::chrono::steady_clock::now()) {}
  ~ScopedTimer() {
    double Ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - Start)
                    .count();
    timedSections().emplace_back(std::move(Name), Ms);
  }

private:
  std::string Name;
  std::chrono::steady_clock::time_point Start;
};

/// Writes the BENCH_*.json timing summary for \p BenchName if JSON output
/// was requested (--bench-json / SLOPE_BENCH_JSON); stdout is untouched
/// either way, so table output stays byte-identical.
inline void writeBenchJson(const char *BenchName) {
  const std::string &Path = benchJsonPath();
  if (Path.empty())
    return;
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "warning: cannot write bench JSON to %s\n",
                 Path.c_str());
    return;
  }
  double TotalMs = 0;
  for (const auto &[Name, Ms] : timedSections())
    TotalMs += Ms;
  std::fprintf(F, "{\n  \"bench\": \"%s\",\n  \"threads\": %u,\n", BenchName,
               requestedThreads());
  for (const KernelSwitch &Switch : kernelSwitches()) {
    std::string Key = Switch.Flag + 2;
    std::replace(Key.begin(), Key.end(), '-', '_');
    std::fprintf(F, "  \"%s\": \"%s\",\n", Key.c_str(), Switch.Get());
  }
  std::fprintf(F, "  \"sweep_repeat\": %u,\n", sweepRepeatFlag());
  std::fprintf(F, "  \"profile_repeat\": %u,\n", profileRepeatFlag());
  std::fprintf(F, "  \"sections\": [\n");
  for (size_t I = 0; I < timedSections().size(); ++I) {
    const auto &[Name, Ms] = timedSections()[I];
    std::fprintf(F, "    {\"name\": \"%s\", \"ms\": %.3f}%s\n", Name.c_str(),
                 Ms, I + 1 < timedSections().size() ? "," : "");
  }
  std::fprintf(F, "  ],\n");
  // Phase counters isolate instrumented kernels (e.g. forest tree
  // training) from the fixed simulator/OOB/evaluation cost that both
  // growth algorithms share, so CI can gate on the kernel alone.
  std::fprintf(F, "  \"tree_fit_ms\": %.3f,\n",
               static_cast<double>(
                   slope::phaseTotalNs(slope::Phase::ForestTreeFit)) /
                   1e6);
  std::fprintf(F, "  \"nn_fit_ms\": %.3f,\n",
               static_cast<double>(slope::phaseTotalNs(slope::Phase::NnFit)) /
                   1e6);
  // profile_ms is charged at campaign level on the calling thread (wall
  // clock), so a parallel campaign reports a smaller number — the CI
  // speedup gate compares exactly this. synth_ms is summed across all
  // threads' readCountersBatch scopes (kernel CPU time).
  std::fprintf(F, "  \"profile_ms\": %.3f,\n",
               static_cast<double>(slope::phaseTotalNs(slope::Phase::Profile)) /
                   1e6);
  // meter_ms is the HclWattsUp readings' share of it (the serial stream
  // plan plus the parallel sampling), also calling-thread wall clock.
  std::fprintf(F, "  \"meter_ms\": %.3f,\n",
               static_cast<double>(slope::phaseTotalNs(slope::Phase::Meter)) /
                   1e6);
  std::fprintf(F, "  \"synth_ms\": %.3f,\n",
               static_cast<double>(slope::phaseTotalNs(slope::Phase::Synth)) /
                   1e6);
  // serve_ms is the ServingEngine replay wall clock on the calling
  // thread (ingest + shard epochs + folds); the CI serving gate compares
  // exactly this across thread counts.
  std::fprintf(F, "  \"serve_ms\": %.3f,\n",
               static_cast<double>(slope::phaseTotalNs(slope::Phase::Serve)) /
                   1e6);
  // Disjoint sub-slices of serve_ms: row staging/ingest vs epoch folds
  // (partition, shard inference, publish, online retrain).
  std::fprintf(
      F, "  \"ingest_ms\": %.3f,\n",
      static_cast<double>(slope::phaseTotalNs(slope::Phase::ServeIngest)) /
          1e6);
  std::fprintf(
      F, "  \"fold_ms\": %.3f,\n",
      static_cast<double>(slope::phaseTotalNs(slope::Phase::ServeFold)) / 1e6);
  // The online-retrain pair the streaming CI gate compares: O(F^2)
  // incremental updates vs the O(N*F^2) full-refit reference.
  std::fprintf(
      F, "  \"rls_update_ms\": %.3f,\n",
      static_cast<double>(slope::phaseTotalNs(slope::Phase::RlsUpdate)) / 1e6);
  std::fprintf(
      F, "  \"refit_ms\": %.3f,\n",
      static_cast<double>(slope::phaseTotalNs(slope::Phase::Refit)) / 1e6);
  for (const auto &[Key, Value] : extraJsonNumbers())
    std::fprintf(F, "  \"%s\": %.3f,\n", Key.c_str(), Value);
  std::fprintf(F, "  \"total_ms\": %.3f\n}\n", TotalMs);
  std::fclose(F);
}

/// The paper-scale Class A configuration (277 base apps, 50 compounds).
inline slope::core::ClassAConfig fullClassA() {
  return slope::core::ClassAConfig();
}

/// The paper-scale Class B/C configuration (801 points, 651/150 split).
inline slope::core::ClassBCConfig fullClassBC() {
  return slope::core::ClassBCConfig();
}

/// Renders one model family with the paper's numbers side by side.
inline std::string
renderFamilyComparison(const std::string &Caption,
                       const std::vector<slope::core::ModelEvalRow> &Rows,
                       const paper::ErrorTriple *Paper, bool WithCoeffs) {
  using slope::str::compact;
  using slope::str::join;
  using slope::str::scientific;
  std::vector<std::string> Headers = {"Model", "PMCs"};
  if (WithCoeffs)
    Headers.push_back("Coefficients");
  Headers.push_back("Reproduced (min, avg, max)");
  Headers.push_back("Paper (min, avg, max)");
  slope::TablePrinter T(Headers);
  T.setCaption(Caption);
  std::vector<std::string> Universe = slope::pmc::haswellClassAPmcNames();
  for (size_t I = 0; I < Rows.size(); ++I) {
    std::vector<std::string> Cells = {
        Rows[I].Label,
        slope::core::compactPmcList(Rows[I].Pmcs, Universe, 'X')};
    if (WithCoeffs) {
      std::vector<std::string> Coeffs;
      for (double C : Rows[I].Coefficients)
        Coeffs.push_back(scientific(C));
      Cells.push_back(join(Coeffs, ", "));
    }
    Cells.push_back(Rows[I].Errors.str());
    Cells.push_back("(" + compact(Paper[I].Min) + ", " +
                    compact(Paper[I].Avg) + ", " + compact(Paper[I].Max) +
                    ")");
    T.addRow(Cells);
  }
  return T.render();
}

/// Prints a short banner so concatenated bench output is navigable.
inline void banner(const char *Title) {
  std::printf("\n===== %s =====\n\n", Title);
}

} // namespace bench

#endif // SLOPE_BENCH_BENCHCOMMON_H
