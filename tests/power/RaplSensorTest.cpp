//===- tests/power/RaplSensorTest.cpp - On-chip sensor tests --------------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "power/RaplSensor.h"

#include "power/HclWattsUp.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace slope;
using namespace slope::power;
using namespace slope::sim;

TEST(RaplSensor, IdleReadingMissesBoardPower) {
  Machine M(Platform::intelHaswellServer(), 1);
  RaplSensor Sensor;
  double Idle = Sensor.measureIdlePowerW(M, 10.0);
  EXPECT_NEAR(Idle, 58.0 * 0.80, 1.0);
}

TEST(RaplSensor, LowVarianceAcrossReadings) {
  Machine M(Platform::intelHaswellServer(), 2);
  RaplSensor Sensor;
  Execution E = M.run(Application(KernelKind::MklDgemm, 14000));
  double A = Sensor.measureTotalEnergyJ(M, E);
  double B = Sensor.measureTotalEnergyJ(M, E);
  EXPECT_NE(A, B);
  EXPECT_NEAR(A / B, 1.0, 0.01); // Bias, not noise, is its weakness.
}

TEST(RaplSensor, ComputeBoundWorkloadReadsHigh) {
  // CoreGain 1.05 over-attributes compute energy.
  Machine M(Platform::intelSkylakeServer(), 3);
  RaplSensor Sensor;
  Execution E = M.run(Application(KernelKind::MklDgemm, 16000));
  EnergyModel::EnergySplit Split =
      M.energyModel().dynamicEnergySplit(E.totalActivities());
  ASSERT_GT(Split.ComputeJ, Split.MemoryJ); // DGEMM is compute-bound.
  double TrueDynamic = E.TrueDynamicEnergyJ;
  double SensorDynamic =
      Sensor.measureTotalEnergyJ(M, E) -
      Sensor.measureIdlePowerW(M, 5.0) * E.totalTimeSec();
  EXPECT_GT(SensorDynamic, TrueDynamic * 0.98);
}

TEST(RaplSensor, MemoryBoundWorkloadReadsLow) {
  // DramGain 0.82 under-reports the memory plane.
  Machine M(Platform::intelHaswellServer(), 4);
  RaplSensor Sensor;
  Execution E = M.run(Application(KernelKind::Stream, 4000000000ull));
  double TrueDynamic = E.TrueDynamicEnergyJ;
  double SensorDynamic =
      Sensor.measureTotalEnergyJ(M, E) -
      Sensor.measureIdlePowerW(M, 5.0) * E.totalTimeSec();
  EXPECT_LT(SensorDynamic, TrueDynamic);
}

TEST(RaplSensor, UnbiasedConfigurationTracksTruth) {
  RaplOptions Perfect;
  Perfect.CoreGain = 1.0;
  Perfect.DramGain = 1.0;
  Perfect.IdleVisibleFraction = 1.0;
  Perfect.NoiseSigma = 0.0;
  Machine M(Platform::intelHaswellServer(), 5);
  RaplSensor Sensor(Perfect);
  Execution E = M.run(Application(KernelKind::MklDgemm, 12000));
  double Expected = E.TrueDynamicEnergyJ +
                    M.platform().IdlePowerWatts * E.totalTimeSec();
  // The sensor reconstructs energy from the activity model, so even with
  // unit gains it misses the run's unobservable thermal/voltage variance
  // (~3% lognormal) that TrueDynamicEnergyJ carries.
  EXPECT_NEAR(Sensor.measureTotalEnergyJ(M, E) / Expected, 1.0, 0.1);
}

TEST(RaplSensor, WorksAsHclWattsUpBackend) {
  // The facade accepts any PowerMeter, including the on-chip sensor.
  Machine M(Platform::intelSkylakeServer(), 6);
  HclWattsUp Rig(M, std::make_unique<RaplSensor>());
  EnergyReading Reading =
      Rig.measureRun(CompoundApplication(Application(KernelKind::MklFft,
                                                     26000)));
  EXPECT_GT(Reading.DynamicEnergyJ, 0.0);
  EXPECT_NEAR(Reading.DynamicEnergyJ,
              Reading.TotalEnergyJ - Rig.staticPowerW() * Reading.TimeSec,
              1e-9);
}

TEST(RaplSensor, Name) {
  EXPECT_EQ(RaplSensor().name(), "RAPL (on-chip)");
}

TEST(RaplSensor, BatchMatchesPerReadingLoop) {
  Machine M(Platform::intelHaswellServer(), 6);
  std::vector<Execution> Execs;
  for (int I = 0; I < 40; ++I)
    Execs.push_back(M.run(CompoundApplication(
        Application(KernelKind::MklDgemm, 4000 + 500 * (I % 7)),
        Application(KernelKind::MklFft, 9000))));
  RaplSensor Single, Batched;
  std::vector<double> Ref;
  for (const Execution &E : Execs)
    Ref.push_back(Single.measureTotalEnergyJ(M, E));
  std::vector<double> Got(Execs.size());
  Batched.measureTotalEnergiesJ(M, Execs, Got);
  EXPECT_EQ(Got, Ref);
  // Both sensors continue from the same stream position.
  EXPECT_EQ(Batched.measureTotalEnergyJ(M, Execs[0]),
            Single.measureTotalEnergyJ(M, Execs[0]));
}
