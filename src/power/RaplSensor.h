//===- power/RaplSensor.h - On-chip energy sensor model ----------*- C++ -*-===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// RAPL-style on-chip energy counters — the paper's "second approach"
/// to energy measurement, of which it notes there are "no definitive
/// research works proving its accuracy". The sensor model makes that
/// concern concrete: per-domain (core vs DRAM) energy estimates carry
/// systematic gain biases and the package counter misses PSU/board
/// losses, so models trained against it inherit a bias relative to the
/// wall-meter ground truth. bench_sensor_comparison quantifies it.
///
//===----------------------------------------------------------------------===//

#ifndef SLOPE_POWER_RAPLSENSOR_H
#define SLOPE_POWER_RAPLSENSOR_H

#include "power/PowerMeter.h"

namespace slope {
namespace power {

/// Bias/noise parameters of the on-chip sensor model.
struct RaplOptions {
  /// Multiplicative gain of the core-domain energy model.
  double CoreGain = 1.05;
  /// Multiplicative gain of the DRAM-domain energy model (RAPL DRAM
  /// plane famously under-reports on many parts).
  double DramGain = 0.82;
  /// Fraction of wall idle power visible to the package counter (the
  /// rest is PSU loss, fans, and board components outside the socket).
  double IdleVisibleFraction = 0.80;
  /// Counter-update noise (lognormal sigma); tiny — the weakness of the
  /// sensor is bias, not variance.
  double NoiseSigma = 0.002;
};

/// On-chip sensor: practically continuous sampling, near-zero variance,
/// but domain-model bias. Reports the energy the *package* believes it
/// spent, not what the wall sees.
class RaplSensor : public PowerMeter {
public:
  explicit RaplSensor(RaplOptions Options = RaplOptions(),
                      uint64_t Seed = 0x8A91);

  /// Reads each execution in order; a reading is one lognormal draw, so
  /// there is nothing to fan out.
  void measureTotalEnergiesJ(const sim::Machine &M,
                             std::span<const sim::Execution> Execs,
                             std::span<double> TotalJ) override;
  double measureIdlePowerW(const sim::Machine &M, double Seconds) override;
  std::string name() const override { return "RAPL (on-chip)"; }

private:
  RaplOptions Options;
  Rng SensorRng;
};

} // namespace power
} // namespace slope

#endif // SLOPE_POWER_RAPLSENSOR_H
