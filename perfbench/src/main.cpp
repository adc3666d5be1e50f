//===- perfbench/src/main.cpp - Benchmark program entry point ---------------===//
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --raw PATH
//
// Runs one workload in this process with the global pool at PoolThreads
// threads and writes its raw result (samples, counters, checks, spans and
// the host fingerprint) as JSON to PATH. perfbench/run.py builds this
// program, runs it, and turns the raw result into the benchmark's metrics.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "stats/SimdKernels.h"
#include "support/ThreadPool.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <sys/resource.h>
#include <unistd.h>

using namespace perfbench;

namespace {

void usage() {
  std::fprintf(stderr, "usage: perfbench --workload NAME --seed N "
                       "--seconds S --trace 0|1 --raw PATH\n");
}

std::string quoted(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof Buf, "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

/// Full-precision number; non-finite values become null.
std::string number(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[32];
  std::snprintf(Buf, sizeof Buf, "%.17g", V);
  return Buf;
}

std::string compilerName() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

bool writeRaw(const std::string &Path, const RunOptions &O,
              const RawResult &R, const Tracer &T, double PeakRssMb) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::string S = "{\n";
  S += "\"fingerprint\": {\"nproc\": " +
       std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
       ", \"simd\": " + quoted(slope::stats::resolvedSimdVariant()) +
       ", \"compiler\": " + quoted(compilerName()) +
       ", \"build_type\": " + quoted(PERFBENCH_BUILD_TYPE) +
       ", \"pool_threads\": " +
       std::to_string(slope::ThreadPool::globalThreadCount()) +
       ", \"workload\": " + quoted(O.Workload) +
       ", \"seed\": " + std::to_string(O.Seed) + "},\n";
  S += "\"trace\": " + std::string(O.Trace ? "true" : "false") + ",\n";
  S += "\"peak_rss_mb\": " + number(PeakRssMb) + ",\n";
  S += "\"attempted\": " + std::to_string(R.Attempted) + ",\n";
  S += "\"failed\": " + std::to_string(R.Failed) + ",\n";
  S += "\"setup_s\": [";
  for (size_t I = 0; I < R.SetupS.size(); ++I)
    S += (I ? ", " : "") + number(R.SetupS[I]);
  S += "],\n\"checks\": [";
  for (size_t I = 0; I < R.Checks.size(); ++I)
    S += std::string(I ? ",\n  " : "\n  ") + "{\"name\": " +
         quoted(R.Checks[I].Name) +
         ", \"ok\": " + (R.Checks[I].Ok ? "true" : "false") +
         ", \"detail\": " + quoted(R.Checks[I].Detail) + "}";
  S += "],\n\"series\": {";
  bool First = true;
  for (const auto &[Name, Values] : R.Series) {
    S += std::string(First ? "\n  " : ",\n  ") + quoted(Name) + ": [";
    for (size_t I = 0; I < Values.size(); ++I)
      S += (I ? ", " : "") + number(Values[I]);
    S += "]";
    First = false;
  }
  S += "},\n\"values\": {";
  First = true;
  for (const auto &[Name, Value] : R.Values) {
    S += std::string(First ? "\n  " : ",\n  ") + quoted(Name) + ": " +
         number(Value);
    First = false;
  }
  S += "},\n\"info\": {";
  First = true;
  for (const auto &[Name, Value] : R.Info) {
    S += std::string(First ? "" : ", ") + quoted(Name) + ": " + quoted(Value);
    First = false;
  }
  S += "},\n\"spans\": [";
  const std::vector<Span> &Spans = T.spans();
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &Sp = Spans[I];
    S += std::string(I ? ",\n  " : "\n  ") + "[" + quoted(Sp.Name) + ", " +
         std::to_string(Sp.Seq) + ", " + std::to_string(Sp.Parent) + ", " +
         std::to_string(Sp.Id) + ", " + std::to_string(Sp.Tid) + ", " +
         std::to_string(Sp.StartNs) + ", " + std::to_string(Sp.EndNs) + "]";
  }
  S += "]\n}\n";
  const bool Ok = std::fwrite(S.data(), 1, S.size(), F) == S.size();
  return std::fclose(F) == 0 && Ok;
}

} // namespace

int main(int Argc, char **Argv) {
  RunOptions O;
  std::string RawPath;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I + 1 < Argc; I += 2) {
    const std::string Flag = Argv[I], Value = Argv[I + 1];
    char *End = nullptr;
    if (Flag == "--workload") {
      O.Workload = Value;
    } else if (Flag == "--seed") {
      O.Seed = std::strtoull(Value.c_str(), &End, 10);
      HaveSeed = !Value.empty() && *End == '\0';
    } else if (Flag == "--seconds") {
      O.Seconds = std::strtod(Value.c_str(), &End);
      HaveSeconds = !Value.empty() && *End == '\0' && O.Seconds > 0;
    } else if (Flag == "--trace") {
      HaveTrace = Value == "0" || Value == "1";
      O.Trace = Value == "1";
    } else if (Flag == "--raw") {
      RawPath = Value;
    } else {
      usage();
      return 2;
    }
  }
  const bool Fleet =
      O.Workload == "fleet_rf" || O.Workload == "fleet_retrain_lr";
  if ((Argc - 1) % 2 != 0 || !HaveSeed || !HaveSeconds || !HaveTrace ||
      RawPath.empty() || (!Fleet && O.Workload != "model_study")) {
    usage();
    return 2;
  }

  slope::ThreadPool::setGlobalThreadCount(PoolThreads);
  Tracer T;
  RawResult R;
  const bool Ran = Fleet ? runFleet(O, T, R) : runModelStudy(O, T, R);
  if (!Ran)
    return 1;

  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  const double PeakRssMb = static_cast<double>(Usage.ru_maxrss) / 1024.0;
  if (!writeRaw(RawPath, O, R, T, PeakRssMb)) {
    std::fprintf(stderr, "error: cannot write %s\n", RawPath.c_str());
    return 1;
  }
  return 0;
}
