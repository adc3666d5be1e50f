//===- power/PowerMeter.cpp - System power meter models ----------------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "power/PowerMeter.h"

#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace slope;
using namespace slope::power;
using namespace slope::sim;

// Out-of-line virtual anchor.
PowerMeter::~PowerMeter() = default;

WattsUpProMeter::WattsUpProMeter(WattsUpOptions Options, uint64_t Seed)
    : Options(Options), MeterRng(Seed) {
  assert(Options.SampleHz > 0 && "sampling rate must be positive");
}

namespace {
/// Raw draws per noisy sample: Rng::gaussian is Box-Muller without a
/// cached spare, so it always consumes two uniforms of one draw each.
constexpr uint64_t DrawsPerSample = 2;

/// Readings one pool task samples; each is a few microseconds of work.
constexpr size_t ReadingsPerTask = 16;

/// The device's sample times during a run of \p TotalSec whose first
/// sample falls at \p Offset: Offset, Offset + Dt, ... (accumulated step
/// by step) below TotalSec. Calls \p AtTime on each, in order, and
/// \returns how many there were. Both the stream plan and the sampling
/// walk this one schedule, so they cannot disagree on a reading's draws.
template <typename Fn>
size_t forEachSampleTime(double Offset, double TotalSec, double Dt,
                         Fn &&AtTime) {
  size_t Count = 0;
  for (double Time = Offset; Time < TotalSec; Time += Dt, ++Count)
    AtTime(Time);
  return Count;
}
} // namespace

double WattsUpProMeter::sample(Rng &Stream, double TrueW) const {
  double Noisy = TrueW * (1.0 + Options.GainError) +
                 Stream.gaussian(0.0, Options.SensorNoiseFraction * TrueW);
  if (Options.QuantizationW <= 0)
    return Noisy;
  return std::round(Noisy / Options.QuantizationW) * Options.QuantizationW;
}

double WattsUpProMeter::sampleReading(const Machine &M, const Execution &Exec,
                                      Rng &Stream) const {
  double Idle = M.platform().IdlePowerWatts;
  double Total = Exec.totalTimeSec();
  assert(Total > 0 && "execution with no duration");

  // Build the piecewise-constant power profile: per phase, idle power
  // plus that phase's average dynamic power.
  std::vector<double> PhaseEnd;
  std::vector<double> PhasePower;
  double T = 0;
  for (const ExecutionPhase &Phase : Exec.Phases) {
    double DynamicJ =
        M.energyModel().dynamicEnergyJoules(Phase.Activities);
    T += Phase.TimeSec;
    PhaseEnd.push_back(T);
    PhasePower.push_back(Idle + DynamicJ / Phase.TimeSec);
  }

  auto PowerAt = [&](double Time) {
    for (size_t I = 0; I < PhaseEnd.size(); ++I)
      if (Time < PhaseEnd[I])
        return PhasePower[I];
    return PhasePower.back();
  };

  // Sample at the device rate with a random phase offset; the reading is
  // the mean sampled power times the (precisely known) duration.
  double Dt = 1.0 / Options.SampleHz;
  double Offset = Stream.uniform() * Dt;
  double Sum = 0;
  size_t Count = forEachSampleTime(Offset, Total, Dt, [&](double Time) {
    Sum += sample(Stream, PowerAt(Time));
  });
  if (Count == 0) {
    // Sub-sample-period run: one reading mid-run is all the device sees.
    Sum = sample(Stream, PowerAt(Total / 2));
    Count = 1;
  }
  return Sum / static_cast<double>(Count) * Total;
}

void WattsUpProMeter::measureTotalEnergiesJ(const Machine &M,
                                            std::span<const Execution> Execs,
                                            std::span<double> TotalJ) {
  assert(Execs.size() == TotalJ.size() && "one reading slot per execution");
  const size_t N = Execs.size();
  if (N <= ReadingsPerTask || ThreadPool::global().numThreads() == 1) {
    // Nothing to fan out: sample straight from the meter's stream.
    for (size_t I = 0; I < N; ++I)
      TotalJ[I] = sampleReading(M, Execs[I], MeterRng);
    return;
  }

  // Plan serially: a reading consumes one draw for its offset, then
  // DrawsPerSample per sample (one sample for a sub-period run), so its
  // offset and duration fix where the next reading starts. Record each
  // start and skip the rest; the meter ends where a serial scan would.
  const double Dt = 1.0 / Options.SampleHz;
  std::vector<Rng> Starts;
  Starts.reserve(N);
  for (const Execution &Exec : Execs) {
    Starts.push_back(MeterRng);
    double Offset = MeterRng.uniform() * Dt;
    size_t Count =
        forEachSampleTime(Offset, Exec.totalTimeSec(), Dt, [](double) {});
    MeterRng.discard(DrawsPerSample * std::max<size_t>(Count, 1));
  }
  // Sample: each reading replays its own slice of the stream from its
  // recorded start into its own slot.
  parallelFor(0, N, ReadingsPerTask, [&](size_t I) {
    Rng Stream = Starts[I];
    TotalJ[I] = sampleReading(M, Execs[I], Stream);
  });
}

double WattsUpProMeter::measureIdlePowerW(const Machine &M, double Seconds) {
  assert(Seconds > 0 && "idle observation needs a duration");
  double Idle = M.platform().IdlePowerWatts;
  double Dt = 1.0 / Options.SampleHz;
  double Sum = 0;
  size_t Count = 0;
  for (double Time = 0; Time < Seconds; Time += Dt) {
    Sum += sample(MeterRng, Idle);
    ++Count;
  }
  assert(Count > 0 && "no idle samples taken");
  return Sum / static_cast<double>(Count);
}
