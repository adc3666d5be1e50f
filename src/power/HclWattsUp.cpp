//===- power/HclWattsUp.cpp - HCLWattsUp API facade ---------------------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "power/HclWattsUp.h"

#include "support/PhaseTimers.h"

#include <cassert>

using namespace slope;
using namespace slope::power;
using namespace slope::sim;

HclWattsUp::HclWattsUp(Machine &M, std::unique_ptr<PowerMeter> Meter,
                       double CalibrationSeconds)
    : M(M), Meter(std::move(Meter)) {
  assert(this->Meter && "HclWattsUp needs a power meter");
  StaticPowerW = this->Meter->measureIdlePowerW(M, CalibrationSeconds);
}

EnergyReading HclWattsUp::readingFor(const Execution &Exec) {
  return readingsFor({&Exec, 1}).front();
}

std::vector<EnergyReading>
HclWattsUp::readingsFor(std::span<const Execution> Execs) {
  ScopedPhase Timer(Phase::Meter);
  std::vector<double> TotalJ(Execs.size());
  Meter->measureTotalEnergiesJ(M, Execs, TotalJ);
  std::vector<EnergyReading> Readings(Execs.size());
  for (size_t I = 0; I < Execs.size(); ++I) {
    EnergyReading &Reading = Readings[I];
    Reading.TimeSec = Execs[I].totalTimeSec();
    Reading.TotalEnergyJ = TotalJ[I];
    Reading.DynamicEnergyJ =
        Reading.TotalEnergyJ - StaticPowerW * Reading.TimeSec;
  }
  return Readings;
}

EnergyReading HclWattsUp::measureRun(const CompoundApplication &App) {
  Execution Exec = M.run(App);
  return readingFor(Exec);
}

MeasurementResult
HclWattsUp::measureDynamicEnergy(const CompoundApplication &App,
                                 const MeasurementPolicy &Policy) {
  return measureRepeatedly(
      [this, &App]() { return measureRun(App).DynamicEnergyJ; }, Policy);
}
