//===- support/LatencyHistogram.h - Bounded latency histogram ---*- C++ -*-===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed log-bucket latency histogram for long-running services. It
/// holds NumBuckets counters however many samples it records, so a
/// service that times every batch keeps constant memory, and a quantile
/// query walks the counters instead of copying and sorting samples.
///
/// Bucket B covers [2^(B/4), 2^((B+1)/4)) nanoseconds (four buckets per
/// octave, the first bucket also taking everything below 1 ns and the
/// last everything from 2^32 ns ~ 4.3 s up), so a reported quantile is
/// the geometric midpoint of the bucket that holds the exact sample
/// quantile: within a factor 2^(1/8) (~9%) of it inside the covered
/// range. Counts do not depend on the order samples arrive in.
///
//===----------------------------------------------------------------------===//

#ifndef SLOPE_SUPPORT_LATENCYHISTOGRAM_H
#define SLOPE_SUPPORT_LATENCYHISTOGRAM_H

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace slope {

/// Constant-memory latency histogram with log-spaced buckets.
class LatencyHistogram {
public:
  static constexpr size_t NumBuckets = 128;
  static constexpr double BucketsPerOctave = 4;

  /// Records one latency of \p Ms milliseconds.
  void record(double Ms) {
    const double Ns = Ms * 1e6;
    const double B = Ns > 1 ? std::floor(std::log2(Ns) * BucketsPerOctave) : 0;
    ++Counts[static_cast<size_t>(
        std::min(B, static_cast<double>(NumBuckets - 1)))];
    ++Total;
  }

  /// \returns the number of recorded latencies.
  uint64_t count() const { return Total; }

  /// \returns the \p Q quantile (0..1) in milliseconds: the geometric
  /// midpoint of the bucket holding the sample of rank floor(Q * (n-1)),
  /// or 0 when nothing was recorded.
  double quantileMs(double Q) const {
    if (Total == 0)
      return 0;
    const uint64_t Rank = static_cast<uint64_t>(
        std::clamp(Q, 0.0, 1.0) * static_cast<double>(Total - 1));
    uint64_t Seen = 0;
    size_t B = 0;
    while ((Seen += Counts[B]) <= Rank)
      ++B;
    return std::exp2((static_cast<double>(B) + 0.5) / BucketsPerOctave) /
           1e6;
  }

private:
  std::array<uint64_t, NumBuckets> Counts{};
  uint64_t Total = 0;
};

} // namespace slope

#endif // SLOPE_SUPPORT_LATENCYHISTOGRAM_H
