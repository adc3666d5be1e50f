//===- tests/power/PowerMeterTest.cpp - Power meter tests -----------------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "power/PowerMeter.h"

#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

using namespace slope;
using namespace slope::power;
using namespace slope::sim;

namespace {
Execution longRun(Machine &M) {
  return M.run(Application(KernelKind::MklDgemm, 16000)); // ~10 s class.
}
} // namespace

TEST(WattsUpProMeter, TotalEnergyNearTruth) {
  Machine M(Platform::intelHaswellServer(), 1);
  WattsUpProMeter Meter;
  Execution E = longRun(M);
  double Truth = E.TrueDynamicEnergyJ +
                 M.platform().IdlePowerWatts * E.totalTimeSec();
  double Measured = Meter.measureTotalEnergyJ(M, E);
  EXPECT_NEAR(Measured / Truth, 1.0, 0.03);
}

TEST(WattsUpProMeter, RepeatedMeasurementsDiffer) {
  Machine M(Platform::intelHaswellServer(), 2);
  WattsUpProMeter Meter;
  Execution E = longRun(M);
  double A = Meter.measureTotalEnergyJ(M, E);
  double B = Meter.measureTotalEnergyJ(M, E);
  EXPECT_NE(A, B); // Fresh sampling alignment and sensor noise.
  EXPECT_NEAR(A / B, 1.0, 0.05);
}

TEST(WattsUpProMeter, ShortRunStillMeasured) {
  // Sub-second runs fall below the 1 Hz sampling period; the device
  // takes a single mid-run sample.
  Machine M(Platform::intelHaswellServer(), 3);
  WattsUpProMeter Meter;
  Execution E = M.run(Application(KernelKind::MklDgemm, 1024));
  ASSERT_LT(E.totalTimeSec(), 1.0);
  double Measured = Meter.measureTotalEnergyJ(M, E);
  EXPECT_GT(Measured, 0.0);
}

TEST(WattsUpProMeter, IdlePowerCalibration) {
  Machine M(Platform::intelSkylakeServer(), 4);
  WattsUpProMeter Meter;
  double Idle = Meter.measureIdlePowerW(M, 60.0);
  EXPECT_NEAR(Idle, 32.0, 0.5);
}

TEST(WattsUpProMeter, GainErrorBiasesReadings) {
  Machine M(Platform::intelHaswellServer(), 5);
  WattsUpOptions Drifted;
  Drifted.GainError = 0.10;
  Drifted.SensorNoiseFraction = 0.0;
  Drifted.QuantizationW = 0.0;
  WattsUpProMeter Meter(Drifted);
  double Idle = Meter.measureIdlePowerW(M, 10.0);
  EXPECT_NEAR(Idle, 58.0 * 1.10, 1e-9);
}

TEST(WattsUpProMeter, QuantizationRoundsToResolution) {
  Machine M(Platform::intelHaswellServer(), 6);
  WattsUpOptions Clean;
  Clean.SensorNoiseFraction = 0.0;
  Clean.QuantizationW = 0.5;
  WattsUpProMeter Meter(Clean);
  double Idle = Meter.measureIdlePowerW(M, 5.0);
  EXPECT_DOUBLE_EQ(std::fmod(Idle, 0.5), 0.0);
}

TEST(WattsUpProMeter, CompoundProfileIntegratesBothPhases) {
  Machine M(Platform::intelHaswellServer(), 7);
  WattsUpProMeter Meter;
  CompoundApplication App(Application(KernelKind::MklDgemm, 14000),
                          Application(KernelKind::Stream, 1500000000u));
  Execution E = M.run(App);
  double Truth = E.TrueDynamicEnergyJ +
                 M.platform().IdlePowerWatts * E.totalTimeSec();
  EXPECT_NEAR(Meter.measureTotalEnergyJ(M, E) / Truth, 1.0, 0.04);
}

namespace {
/// The seed-era single-reading algorithm, kept verbatim as the reference
/// a batch must reproduce bit for bit: the sampling stream advances per
/// reading, in order.
double referenceReading(const Machine &M, const Execution &Exec,
                        const WattsUpOptions &Options, Rng &MeterRng) {
  auto Sample = [&](double TrueW) {
    double Noisy =
        TrueW * (1.0 + Options.GainError) +
        MeterRng.gaussian(0.0, Options.SensorNoiseFraction * TrueW);
    if (Options.QuantizationW <= 0)
      return Noisy;
    return std::round(Noisy / Options.QuantizationW) * Options.QuantizationW;
  };
  double Idle = M.platform().IdlePowerWatts;
  double Total = Exec.totalTimeSec();
  std::vector<double> PhaseEnd, PhasePower;
  double T = 0;
  for (const ExecutionPhase &Phase : Exec.Phases) {
    T += Phase.TimeSec;
    PhaseEnd.push_back(T);
    PhasePower.push_back(
        Idle + M.energyModel().dynamicEnergyJoules(Phase.Activities) /
                   Phase.TimeSec);
  }
  auto PowerAt = [&](double Time) {
    for (size_t I = 0; I < PhaseEnd.size(); ++I)
      if (Time < PhaseEnd[I])
        return PhasePower[I];
    return PhasePower.back();
  };
  double Dt = 1.0 / Options.SampleHz;
  double Offset = MeterRng.uniform() * Dt;
  double Sum = 0;
  size_t Count = 0;
  for (double Time = Offset; Time < Total; Time += Dt) {
    Sum += Sample(PowerAt(Time));
    ++Count;
  }
  if (Count == 0) {
    Sum = Sample(PowerAt(Total / 2));
    Count = 1;
  }
  return Sum / static_cast<double>(Count) * Total;
}

/// A batch mixing sub-sample-period runs, long single-kernel runs and
/// multi-phase compounds, long enough to fan out over the pool.
std::vector<Execution> mixedBatch(Machine &M) {
  CompoundApplication Triple;
  Triple.Phases = {Application(KernelKind::MklDgemm, 2048),
                   Application(KernelKind::MklFft, 8000),
                   Application(KernelKind::MklDgemm, 6000)};
  const CompoundApplication Apps[] = {
      CompoundApplication(Application(KernelKind::MklDgemm, 1024)),
      CompoundApplication(Application(KernelKind::MklDgemm, 9000)),
      CompoundApplication(Application(KernelKind::MklDgemm, 14000),
                          Application(KernelKind::Stream, 1500000000u)),
      CompoundApplication(Application(KernelKind::MklFft, 25000)),
      Triple,
  };
  std::vector<Execution> Execs;
  for (int Round = 0; Round < 14; ++Round)
    for (const CompoundApplication &App : Apps)
      Execs.push_back(M.run(App));
  return Execs;
}

/// Restores automatic pool sizing on scope exit.
struct PoolWidthGuard {
  ~PoolWidthGuard() { ThreadPool::setGlobalThreadCount(0); }
};

/// Meter configurations that change the draw count or the arithmetic.
std::vector<WattsUpOptions> meterConfigs() {
  WattsUpOptions Default;
  WattsUpOptions Exact; // Unquantized, drifted, sampled at 3 Hz.
  Exact.QuantizationW = 0.0;
  Exact.GainError = 0.02;
  Exact.SampleHz = 3.0;
  WattsUpOptions Slow; // A 0.25 Hz device misses more short runs.
  Slow.SampleHz = 0.25;
  Slow.GainError = -0.01;
  return {Default, Exact, Slow};
}
} // namespace

TEST(WattsUpProMeter, BatchMatchesPerReadingSerialReference) {
  PoolWidthGuard Guard;
  Machine M(Platform::intelHaswellServer(), 8);
  std::vector<Execution> Execs = mixedBatch(M);
  bool SawSubPeriod = false, SawCompound = false;
  for (const Execution &E : Execs) {
    SawSubPeriod |= E.totalTimeSec() < 1.0;
    SawCompound |= E.Phases.size() > 1;
  }
  ASSERT_TRUE(SawSubPeriod && SawCompound);

  for (const WattsUpOptions &Options : meterConfigs()) {
    Rng RefRng(0x3A77);
    std::vector<double> Ref;
    for (const Execution &E : Execs)
      Ref.push_back(referenceReading(M, E, Options, RefRng));
    for (unsigned Threads : {1u, 2u, 8u}) {
      ThreadPool::setGlobalThreadCount(Threads);
      WattsUpProMeter Meter(Options);
      std::vector<double> Got(Execs.size());
      Meter.measureTotalEnergiesJ(M, Execs, Got);
      EXPECT_EQ(0, std::memcmp(Got.data(), Ref.data(),
                               Ref.size() * sizeof(double)))
          << "SampleHz " << Options.SampleHz << " at " << Threads
          << " threads";
    }
  }
}

TEST(WattsUpProMeter, BatchLeavesStreamWhereSerialScanDoes) {
  // A batch followed by single readings must continue the stream exactly
  // as single readings throughout would.
  PoolWidthGuard Guard;
  Machine M(Platform::intelHaswellServer(), 9);
  std::vector<Execution> Execs = mixedBatch(M);
  Execution Next = M.run(Application(KernelKind::MklDgemm, 12000));
  for (const WattsUpOptions &Options : meterConfigs()) {
    WattsUpProMeter Serial(Options);
    for (const Execution &E : Execs)
      (void)Serial.measureTotalEnergyJ(M, E);
    double SerialNext[2] = {Serial.measureTotalEnergyJ(M, Next),
                            Serial.measureTotalEnergyJ(M, Next)};
    for (unsigned Threads : {1u, 2u, 8u}) {
      ThreadPool::setGlobalThreadCount(Threads);
      WattsUpProMeter Batched(Options);
      std::vector<double> Ignored(Execs.size());
      Batched.measureTotalEnergiesJ(M, Execs, Ignored);
      double BatchedNext[2] = {Batched.measureTotalEnergyJ(M, Next),
                               Batched.measureTotalEnergyJ(M, Next)};
      EXPECT_EQ(0, std::memcmp(BatchedNext, SerialNext, sizeof(SerialNext)))
          << "SampleHz " << Options.SampleHz << " at " << Threads
          << " threads";
    }
  }
}
