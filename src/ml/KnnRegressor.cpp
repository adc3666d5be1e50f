//===- ml/KnnRegressor.cpp - Nearest-neighbour energy model --------------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "ml/KnnRegressor.h"

#include <algorithm>
#include <cmath>

using namespace slope;
using namespace slope::ml;

Expected<bool> KnnRegressor::fit(const Dataset &Training) {
  if (Training.numRows() == 0)
    return makeError("cannot fit k-NN on an empty dataset");
  if (Training.numFeatures() == 0)
    return makeError("cannot fit k-NN without features");
  assert(Options.K > 0 && "neighbourhood size must be positive");

  size_t N = Training.numRows(), D = Training.numFeatures();
  FeatureMean.assign(D, 0.0);
  FeatureStd.assign(D, 1.0);
  for (size_t C = 0; C < D; ++C) {
    const double *Col = Training.column(C);
    double Sum = 0;
    for (size_t R = 0; R < N; ++R)
      Sum += Col[R];
    FeatureMean[C] = Sum / static_cast<double>(N);
    double Sq = 0;
    for (size_t R = 0; R < N; ++R) {
      double Dx = Col[R] - FeatureMean[C];
      Sq += Dx * Dx;
    }
    double Std = std::sqrt(Sq / static_cast<double>(N));
    FeatureStd[C] = Std > 1e-12 ? Std : 1.0;
  }

  Rows.assign(N * D, 0.0);
  Targets.assign(N, 0.0);
  for (size_t R = 0; R < N; ++R) {
    for (size_t C = 0; C < D; ++C)
      Rows[R * D + C] =
          (Training.column(C)[R] - FeatureMean[C]) / FeatureStd[C];
    Targets[R] = Training.target(R);
  }
  Fitted = true;
  return true;
}

double KnnRegressor::predictStandardized(
    const double *Query,
    std::vector<std::pair<double, size_t>> &Distances) const {
  size_t N = Targets.size();
  size_t D = FeatureMean.size();

  // Partial sort of (distance^2, index) pairs; N is small enough that a
  // full nth_element is the simplest correct choice.
  Distances.clear();
  for (size_t R = 0; R < N; ++R) {
    const double *Row = &Rows[R * D];
    double Sq = 0;
    for (size_t C = 0; C < D; ++C) {
      double Dx = Row[C] - Query[C];
      Sq += Dx * Dx;
    }
    Distances.emplace_back(Sq, R);
  }
  size_t K = std::min(Options.K, N);
  std::nth_element(Distances.begin(), Distances.begin() + (K - 1),
                   Distances.end());

  double WeightSum = 0, ValueSum = 0;
  for (size_t I = 0; I < K; ++I) {
    const auto &[Sq, R] = Distances[I];
    if (Options.DistanceWeighted) {
      // An exact hit dominates; return its target directly.
      if (Sq < 1e-24)
        return Targets[R];
      double W = 1.0 / std::sqrt(Sq);
      WeightSum += W;
      ValueSum += W * Targets[R];
    } else {
      WeightSum += 1;
      ValueSum += Targets[R];
    }
  }
  return ValueSum / WeightSum;
}

double KnnRegressor::predict(const std::vector<double> &Features) const {
  assert(Fitted && "predicting with an unfitted k-NN model");
  assert(Features.size() == FeatureMean.size() &&
         "feature width does not match the fitted model");

  std::vector<double> Query(Features.size());
  for (size_t C = 0; C < Features.size(); ++C)
    Query[C] = (Features[C] - FeatureMean[C]) / FeatureStd[C];

  std::vector<std::pair<double, size_t>> Distances;
  Distances.reserve(Targets.size());
  return predictStandardized(Query.data(), Distances);
}

void KnnRegressor::predictBatchInto(const Dataset &Data, double *Out) const {
  assert(Fitted && "predicting with an unfitted k-NN model");
  assert(Data.numFeatures() == FeatureMean.size() &&
         "feature width does not match the fitted model");
  size_t D = FeatureMean.size();
  // One standardized-query buffer and one distance scratch reused across
  // rows, filled from the columnar storage; each row runs exactly the
  // neighbourhood vote predict() runs, on identical inputs.
  std::vector<double> Query(D);
  std::vector<std::pair<double, size_t>> Distances;
  Distances.reserve(Targets.size());
  for (size_t R = 0; R < Data.numRows(); ++R) {
    for (size_t C = 0; C < D; ++C)
      Query[C] = (Data.column(C)[R] - FeatureMean[C]) / FeatureStd[C];
    Out[R] = predictStandardized(Query.data(), Distances);
  }
}
