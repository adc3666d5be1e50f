//===- perfbench/src/Tracer.h - Benchmark-side span recorder ----*- C++ -*-===//
//
// Records timed spans around the benchmark's calls into the repository's
// layers. Nothing here reaches into src/: a span brackets one public call
// (or one group of calls) made from the benchmark's own files. Spans stay
// in memory and are written out once, when the run ends.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACER_H
#define PERFBENCH_TRACER_H

#include <chrono>
#include <cstdint>
#include <mutex>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since the process's benchmark epoch (first call).
int64_t nowNs();

/// Milliseconds between two nowNs() readings.
inline double msBetween(int64_t StartNs, int64_t EndNs) {
  return static_cast<double>(EndNs - StartNs) / 1e6;
}

/// One closed span. Seq numbers are unique per process; Parent is the
/// Seq of the enclosing span (0 for a root). Id groups the spans of one
/// study or tick.
struct Span {
  const char *Name = "";
  uint64_t Seq = 0;
  uint64_t Parent = 0;
  uint64_t Id = 0;
  uint32_t Tid = 0;
  int64_t StartNs = 0;
  int64_t EndNs = 0;
};

/// Collects spans from any thread while enabled; a disabled tracer makes
/// ScopedSpan a no-op apart from one branch.
class Tracer {
public:
  void setEnabled(bool On) { Enabled = On; }
  bool enabled() const { return Enabled; }

  /// \returns a fresh span sequence number (never 0).
  uint64_t nextSeq();

  void record(const Span &S);

  /// \returns all recorded spans (call after every worker has finished).
  const std::vector<Span> &spans() const { return Spans; }

private:
  bool Enabled = false;
  std::mutex Mutex;
  uint64_t LastSeq = 0;
  std::vector<Span> Spans;
};

/// RAII span: opens on construction, records on destruction.
class ScopedSpan {
public:
  ScopedSpan(Tracer &T, const char *Name, uint64_t Id, uint64_t Parent = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  /// Sequence number to pass as the Parent of child spans (0 when the
  /// tracer is disabled).
  uint64_t seq() const { return S.Seq; }

private:
  Tracer &T;
  Span S;
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_H
