//===- power/RaplSensor.cpp - On-chip energy sensor model -----------------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "power/RaplSensor.h"

#include <cassert>

using namespace slope;
using namespace slope::power;
using namespace slope::sim;

RaplSensor::RaplSensor(RaplOptions Options, uint64_t Seed)
    : Options(Options), SensorRng(Seed) {
  assert(Options.CoreGain > 0 && Options.DramGain > 0 &&
         "sensor gains must be positive");
}

void RaplSensor::measureTotalEnergiesJ(const Machine &M,
                                       std::span<const Execution> Execs,
                                       std::span<double> TotalJ) {
  assert(Execs.size() == TotalJ.size() && "one reading slot per execution");
  for (size_t I = 0; I < Execs.size(); ++I) {
    // Per-domain energies from the machine's true activity, each through
    // its biased counter model. The overlap term belongs to the shared
    // rails; the package counter attributes it to the core domain.
    double CoreJ = 0, DramJ = 0;
    for (const ExecutionPhase &Phase : Execs[I].Phases) {
      EnergyModel::EnergySplit Split =
          M.energyModel().dynamicEnergySplit(Phase.Activities);
      CoreJ += (Split.ComputeJ - Split.OverlapJ) * Options.CoreGain;
      DramJ += Split.MemoryJ * Options.DramGain;
    }
    double IdleJ = M.platform().IdlePowerWatts * Options.IdleVisibleFraction *
                   Execs[I].totalTimeSec();
    TotalJ[I] = (CoreJ + DramJ + IdleJ) *
                SensorRng.lognormalFactor(Options.NoiseSigma);
  }
}

double RaplSensor::measureIdlePowerW(const Machine &M, double Seconds) {
  assert(Seconds > 0 && "idle observation needs a duration");
  return M.platform().IdlePowerWatts * Options.IdleVisibleFraction *
         SensorRng.lognormalFactor(Options.NoiseSigma);
}
