//===- tests/support/LatencyHistogramTest.cpp - Latency histogram tests ---===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "support/LatencyHistogram.h"

#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

using namespace slope;

namespace {

TEST(LatencyHistogram, EmptyReportsZero) {
  LatencyHistogram H;
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.quantileMs(0.5), 0.0);
}

TEST(LatencyHistogram, QuantilesAreWithinHalfABucketOfTheExactSample) {
  // Log-uniform latencies from 1 us to 100 ms; each reported quantile is
  // its bucket's geometric midpoint, so it lies within a factor 2^(1/8)
  // of the exact sample quantile of the same rank.
  Rng R(7);
  std::vector<double> Samples;
  LatencyHistogram H;
  for (int I = 0; I < 5000; ++I) {
    Samples.push_back(std::pow(10.0, R.uniform(-3.0, 2.0)));
    H.record(Samples.back());
  }
  std::sort(Samples.begin(), Samples.end());
  ASSERT_EQ(H.count(), Samples.size());
  for (double Q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
    const double Exact = Samples[static_cast<size_t>(
        Q * static_cast<double>(Samples.size() - 1))];
    const double Ratio = H.quantileMs(Q) / Exact;
    EXPECT_LE(Ratio, std::exp2(0.125) * (1 + 1e-12)) << "q=" << Q;
    EXPECT_GE(Ratio, std::exp2(-0.125) * (1 - 1e-12)) << "q=" << Q;
  }
}

TEST(LatencyHistogram, QuantilesIgnoreRecordingOrder) {
  std::vector<double> Samples;
  Rng R(9);
  for (int I = 0; I < 1000; ++I)
    Samples.push_back(R.uniform(0.0, 3.0));
  LatencyHistogram Forward, Backward;
  for (double S : Samples)
    Forward.record(S);
  for (auto It = Samples.rbegin(); It != Samples.rend(); ++It)
    Backward.record(*It);
  for (int P = 0; P <= 100; ++P)
    ASSERT_EQ(Forward.quantileMs(P / 100.0), Backward.quantileMs(P / 100.0))
        << P;
}

TEST(LatencyHistogram, OutOfRangeLatenciesLandInTheEdgeBuckets) {
  LatencyHistogram H;
  H.record(0.0); // Below 1 ns: the first bucket.
  H.record(1e7); // ~2.8 hours: the last bucket.
  EXPECT_EQ(H.count(), 2u);
  EXPECT_EQ(H.quantileMs(0.0), std::exp2(0.5 / 4) / 1e6);
  EXPECT_EQ(H.quantileMs(1.0),
            std::exp2((LatencyHistogram::NumBuckets - 0.5) / 4) / 1e6);
}

} // namespace
