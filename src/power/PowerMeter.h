//===- power/PowerMeter.h - System power meter models -----------*- C++ -*-===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// System-level power measurement, standing in for the paper's WattsUp
/// Pro meters (periodically calibrated against a Yokogawa WT210). A meter
/// observes the machine's wall power — idle power plus the running
/// application's dynamic power profile — through sampling, quantization,
/// and sensor noise. Models are trained/validated against these readings,
/// which the paper treats as the ground truth.
///
//===----------------------------------------------------------------------===//

#ifndef SLOPE_POWER_POWERMETER_H
#define SLOPE_POWER_POWERMETER_H

#include "sim/Machine.h"

#include <span>
#include <string>

namespace slope {
namespace power {

/// Abstract wall-power meter.
class PowerMeter {
public:
  virtual ~PowerMeter();

  /// Measures the total (static + dynamic) energy in joules consumed
  /// while each of \p Execs ran on \p M, writing Execs[I]'s reading to
  /// \p TotalJ[I] (sizes must match). Each reading models a fresh
  /// measurement (fresh sampling alignment and sensor noise); a batch is
  /// bit-identical to measuring its executions one after the other, in
  /// order, and leaves the meter where that serial scan would.
  virtual void measureTotalEnergiesJ(const sim::Machine &M,
                                     std::span<const sim::Execution> Execs,
                                     std::span<double> TotalJ) = 0;

  /// One reading: the batch of one.
  double measureTotalEnergyJ(const sim::Machine &M,
                             const sim::Execution &Exec) {
    double TotalJ = 0;
    measureTotalEnergiesJ(M, {&Exec, 1}, {&TotalJ, 1});
    return TotalJ;
  }

  /// Measures the idle machine's power (watts) by observing it for
  /// \p Seconds with no load. Used for static-power calibration.
  virtual double measureIdlePowerW(const sim::Machine &M,
                                   double Seconds) = 0;

  /// \returns a short device name.
  virtual std::string name() const = 0;
};

/// Configuration of the WattsUp Pro model.
struct WattsUpOptions {
  double SampleHz = 1.0;          ///< Device reports ~1 sample/second.
  double QuantizationW = 0.1;     ///< Reading resolution.
  double SensorNoiseFraction = 0.005; ///< Gaussian sigma, fraction of P.
  /// Calibration drift: multiplicative gain error, re-zeroed when the
  /// meters are calibrated against the revenue-grade reference.
  double GainError = 0.0;
};

/// WattsUp Pro: samples the power profile at ~1 Hz, quantizes to 0.1 W,
/// adds proportional sensor noise, and integrates samples over the run.
///
/// A reading's draw count is fixed by its first draw (the sampling
/// offset) and the run's duration, so a batch plans the stream serially
/// — recording each reading's start state and skipping its draws with
/// Rng::discard — and then samples the readings in parallel from their
/// own copies. Readings and the final stream position match a serial
/// scan bit for bit at any thread count.
class WattsUpProMeter : public PowerMeter {
public:
  explicit WattsUpProMeter(WattsUpOptions Options = WattsUpOptions(),
                           uint64_t Seed = 0x3A77);

  void measureTotalEnergiesJ(const sim::Machine &M,
                             std::span<const sim::Execution> Execs,
                             std::span<double> TotalJ) override;
  double measureIdlePowerW(const sim::Machine &M, double Seconds) override;
  std::string name() const override { return "WattsUp Pro"; }

private:
  /// One noisy, quantized sample of an instantaneous power \p TrueW.
  double sample(Rng &Stream, double TrueW) const;

  /// Samples one reading of \p Exec from \p Stream, which must sit at
  /// the reading's first draw; leaves it after the reading's last.
  double sampleReading(const sim::Machine &M, const sim::Execution &Exec,
                       Rng &Stream) const;

  WattsUpOptions Options;
  Rng MeterRng;
};

} // namespace power
} // namespace slope

#endif // SLOPE_POWER_POWERMETER_H
