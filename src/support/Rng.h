//===- support/Rng.h - Deterministic random number generation --*- C++ -*-===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded, splittable random number generation. Every stochastic component
/// of the simulator draws from an Rng constructed from an explicit seed so
/// that experiments are reproducible run to run; "independent" streams are
/// derived with fork() so adding draws in one component does not perturb
/// another.
///
//===----------------------------------------------------------------------===//

#ifndef SLOPE_SUPPORT_RNG_H
#define SLOPE_SUPPORT_RNG_H

#include <cstdint>
#include <string_view>

namespace slope {

/// Deterministic pseudo-random generator (xoshiro256** core, SplitMix64
/// seeding).
///
/// Not cryptographic; chosen for speed, quality, and a trivially portable
/// implementation with exactly reproducible streams across platforms.
class Rng {
public:
  /// Seeds the generator. Equal seeds give equal streams.
  explicit Rng(uint64_t Seed = 0x9E3779B97F4A7C15ULL);

  /// \returns the next raw 64-bit draw.
  uint64_t next();

  /// Advances the stream by \p N raw draws, exactly as \p N next() calls
  /// would. Lets a serial planning pass skip over a consumer's draws
  /// once it knows their count, leaving the draws themselves to run
  /// later from a copy taken at the consumer's start.
  void discard(uint64_t N);

  /// \returns a uniform double in [0, 1).
  double uniform();

  /// \returns a uniform double in [Lo, Hi).
  double uniform(double Lo, double Hi);

  /// \returns a uniform integer in [0, N). Asserts N > 0.
  uint64_t below(uint64_t N);

  /// \returns a standard normal draw (Box-Muller, no cached spare so the
  /// stream position is a pure function of the number of calls).
  double gaussian();

  /// \returns a normal draw with the given mean and standard deviation.
  double gaussian(double Mean, double Sigma);

  /// \returns a lognormal multiplicative factor with median 1 and the given
  /// sigma of the underlying normal; useful for "noisy but positive"
  /// perturbations of counters and energies.
  double lognormalFactor(double Sigma);

  /// Derives an independent child generator. The child stream is a pure
  /// function of (parent seed, Tag), so components identified by stable
  /// tags get stable streams regardless of call order elsewhere. This is
  /// also the parallel seeding API: a task indexed I draws from
  /// fork(I), which depends on neither sibling tasks nor thread
  /// scheduling, so parallel experiments reproduce serial ones bit for
  /// bit (see support/ThreadPool.h).
  Rng fork(uint64_t Tag) const;

  /// Derives an independent child generator from a string tag (FNV-1a).
  Rng fork(std::string_view Tag) const;

private:
  uint64_t State[4];
  uint64_t Seed;
};

/// FNV-1a hash of a string; used for stable stream tags.
uint64_t hashTag(std::string_view Tag);

} // namespace slope

#endif // SLOPE_SUPPORT_RNG_H
