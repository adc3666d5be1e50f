//===- tests/ml/QuantizedModelTest.cpp - Fixed-point error-bound suite ----------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
//
// Property suite for ml::QuantizedModel: unlike the repo's bit-identical
// kernel pairs, quantized inference ships with an error *bound* — this
// suite checks |quantized - fp| relative error stays below the documented
// 1e-4 for trees and forests on held-out synthetic rows and on a real
// machine-profiled paper dataset, that every other family is refused, and
// that the integer path itself is internally bit-identical (predict ==
// predictBatch) and deterministic.
//
//===----------------------------------------------------------------------===//

#include "ml/QuantizedModel.h"

#include "core/DatasetBuilder.h"
#include "core/ModelZoo.h"
#include "ml/KnnRegressor.h"
#include "ml/LinearRegression.h"
#include "ml/NeuralNetwork.h"
#include "ml/RandomForest.h"
#include "pmc/PlatformEvents.h"
#include "sim/Machine.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

using namespace slope;
using namespace slope::ml;

namespace {

/// The documented bound (QuantizedModel.h); the suite asserts against
/// exactly this value, the serving CI gate re-checks it end to end.
constexpr double ErrorBound = 1e-4;

Dataset syntheticData(uint64_t Seed, size_t Rows, size_t Cols,
                      double Scale = 10.0) {
  Rng R(Seed);
  std::vector<std::string> Names;
  for (size_t J = 0; J < Cols; ++J)
    Names.push_back("f" + std::to_string(J));
  Dataset D(Names);
  for (size_t I = 0; I < Rows; ++I) {
    std::vector<double> X(Cols);
    double Y = 0;
    for (size_t J = 0; J < Cols; ++J) {
      X[J] = R.uniform(0, Scale);
      Y += static_cast<double>(J + 1) * X[J];
    }
    D.addRow(X, Y + R.gaussian(0, 0.5));
  }
  return D;
}

/// A fresh 30-tree forest; seeded, so two calls fit identical models.
std::unique_ptr<Model> forest(uint64_t Seed = 5) {
  RandomForestOptions Options;
  Options.NumTrees = 30;
  Options.Seed = Seed;
  return std::make_unique<RandomForest>(Options);
}

/// Builds the quantized twin of a fresh fit of \p Fp on \p Train and
/// checks its predictions on \p Test against the FP reference.
void expectQuantizedWithinBound(std::unique_ptr<Model> Fp,
                                const Dataset &Train, const Dataset &Test) {
  ASSERT_TRUE(bool(Fp->fit(Train)));
  const std::vector<double> Reference = Fp->predictBatch(Test);
  auto Q = QuantizedModel::build(std::move(Fp), Train);
  ASSERT_TRUE(bool(Q)) << Q.error().message();
  const std::vector<double> Quantized = (*Q)->predictBatch(Test);
  EXPECT_LT(maxRelativeError(Reference, Quantized), ErrorBound)
      << (*Q)->name();
}

TEST(QuantizedModel, DecisionTreeWithinBound) {
  Dataset Train = syntheticData(5, 150, 4);
  Dataset Test = syntheticData(6, 60, 4);
  expectQuantizedWithinBound(std::make_unique<DecisionTree>(), Train, Test);
}

TEST(QuantizedModel, RandomForestWithinBound) {
  Dataset Train = syntheticData(7, 150, 4);
  Dataset Test = syntheticData(8, 60, 4);
  RandomForestOptions Options;
  Options.NumTrees = 30;
  expectQuantizedWithinBound(std::make_unique<RandomForest>(Options), Train,
                             Test);
}

TEST(QuantizedModel, WideFeatureScaleSpreadWithinBound) {
  // Columns spanning ten orders of magnitude — per-feature scales must
  // keep each column's resolution independent of the others.
  Rng R(15);
  Dataset Train({"tiny", "small", "unit", "big", "huge"});
  Dataset Test({"tiny", "small", "unit", "big", "huge"});
  const double Scales[5] = {1e-6, 1e-2, 1.0, 1e3, 1e6};
  for (int I = 0; I < 140; ++I) {
    std::vector<double> X(5);
    double Y = 0;
    for (size_t J = 0; J < 5; ++J) {
      X[J] = R.uniform(0, Scales[J]);
      Y += X[J] / Scales[J];
    }
    (I % 2 ? Test : Train).addRow(X, Y + R.gaussian(0, 0.01));
  }
  expectQuantizedWithinBound(forest(), Train, Test);
}

TEST(QuantizedModel, ExtrapolationInsideHeadroomWithinBound) {
  // quantizeRow saturates at 16x the calibration maximum; queries at 4x
  // (well inside the headroom) must still satisfy the bound even though
  // calibration never saw them.
  Dataset Train = syntheticData(16, 120, 4, 10.0);
  Dataset Test = syntheticData(17, 60, 4, 40.0);
  expectQuantizedWithinBound(forest(), Train, Test);
}

TEST(QuantizedModel, PaperForestOnMachineDataWithinBound) {
  // The real thing: the paper-configured forest trained on a
  // machine-profiled (PMC..., energy) dataset, exactly what the serving
  // engine deploys.
  sim::Machine M(sim::Platform::intelSkylakeServer(), 42);
  power::HclWattsUp Meter(M, std::make_unique<power::WattsUpProMeter>());
  core::DatasetBuilder Builder(M, Meter);
  std::vector<sim::CompoundApplication> Apps;
  for (uint64_t N = 7000; N <= 20000; N += 500)
    Apps.emplace_back(sim::Application(sim::KernelKind::MklDgemm, N));
  std::vector<std::string> Pa = pmc::skylakePaNames();
  auto Train = Builder.buildByName(Apps, {Pa[0], Pa[1], Pa[3], Pa[7]});
  ASSERT_TRUE(bool(Train));

  std::unique_ptr<Model> Fp =
      core::fitPaperModel(core::ModelFamily::RF, /*Seed=*/1, *Train);
  const std::vector<double> Reference = Fp->predictBatch(*Train);
  auto Q = QuantizedModel::build(std::move(Fp), *Train);
  ASSERT_TRUE(bool(Q)) << Q.error().message();
  const std::vector<double> Quantized = (*Q)->predictBatch(*Train);
  EXPECT_LT(maxRelativeError(Reference, Quantized), ErrorBound);
}

// LR, NN (whatever its transfer) and k-NN have no integer kernel: each
// ran no faster than its FP model. The *WithinBound tests below keep the
// names, data and options they had when those kernels existed; each now
// checks that build() refuses the fitted model and names its family, so
// no caller gets a twin whose bound nothing checks.

/// Fits \p Fp on \p Train and checks build() refuses it, naming the family.
void expectRefused(std::unique_ptr<Model> Fp, const Dataset &Train) {
  ASSERT_TRUE(bool(Fp->fit(Train)));
  const std::string Family = Fp->name();
  auto Q = QuantizedModel::build(std::move(Fp), Train);
  ASSERT_FALSE(bool(Q)) << Family;
  EXPECT_NE(Q.error().message().find("'" + Family + "'"), std::string::npos)
      << Q.error().message();
}

TEST(QuantizedModel, LinearWithinBound) {
  expectRefused(std::make_unique<LinearRegression>(), syntheticData(1, 120, 5));
}

TEST(QuantizedModel, PaperLinearWithinBound) {
  // The paper configuration: zero intercept, non-negative coefficients.
  expectRefused(std::make_unique<LinearRegression>(
                    LinearRegressionOptions::paperDefault()),
                syntheticData(3, 120, 5));
}

TEST(QuantizedModel, IdentityNnWithinBound) {
  // An identity-transfer network is affine end to end, but an FP affine
  // map is already faster than the int64 dot product it would fold to.
  NeuralNetworkOptions Options;
  Options.Transfer = Activation::Identity;
  Options.Epochs = 60;
  expectRefused(std::make_unique<NeuralNetwork>(Options),
                syntheticData(9, 120, 5));
}

TEST(QuantizedModel, KnnWithinBound) {
  expectRefused(std::make_unique<KnnRegressor>(), syntheticData(11, 100, 4));
}

TEST(QuantizedModel, KnnUnweightedWithinBound) {
  KnnOptions Options;
  Options.K = 3;
  Options.DistanceWeighted = false;
  expectRefused(std::make_unique<KnnRegressor>(Options),
                syntheticData(13, 80, 3));
}

TEST(QuantizedModel, RefusesNonIdentityNn) {
  NeuralNetworkOptions Options;
  Options.Transfer = Activation::ReLU;
  Options.Epochs = 10;
  expectRefused(std::make_unique<NeuralNetwork>(Options),
                syntheticData(22, 80, 3));
}

TEST(QuantizedModel, PredictMatchesPredictBatchBitIdentical) {
  // The integer kernels are deterministic, so the single-row and batch
  // paths must agree bit for bit (the house predictBatch contract).
  Dataset Train = syntheticData(18, 120, 4);
  Dataset Test = syntheticData(19, 40, 4);
  RandomForestOptions ForestOptions;
  ForestOptions.NumTrees = 20;
  std::vector<std::unique_ptr<Model>> Models;
  Models.push_back(std::make_unique<DecisionTree>());
  Models.push_back(std::make_unique<RandomForest>(ForestOptions));
  for (auto &Fp : Models) {
    ASSERT_TRUE(bool(Fp->fit(Train)));
    auto Q = QuantizedModel::build(std::move(Fp), Train);
    ASSERT_TRUE(bool(Q)) << Q.error().message();
    const std::vector<double> Batch = (*Q)->predictBatch(Test);
    for (size_t R = 0; R < Test.numRows(); ++R) {
      const double Single = (*Q)->predict(Test.row(R));
      EXPECT_EQ(std::memcmp(&Batch[R], &Single, sizeof(double)), 0)
          << (*Q)->name() << " row " << R;
    }
  }
}

TEST(QuantizedModel, NamePrefixesReference) {
  Dataset Train = syntheticData(20, 80, 3);
  auto Fp = forest();
  ASSERT_TRUE(bool(Fp->fit(Train)));
  auto Q = QuantizedModel::build(std::move(Fp), Train);
  ASSERT_TRUE(bool(Q));
  EXPECT_EQ((*Q)->name(), "QRF");
  EXPECT_EQ((*Q)->reference().name(), "RF");
}

TEST(QuantizedModel, OutputBaseIsAPowerOfTwo) {
  // Power-of-two scales make every rescale exact in FP — the foundation
  // of the error-bound argument.
  Dataset Train = syntheticData(21, 100, 4);
  auto Fp = forest();
  ASSERT_TRUE(bool(Fp->fit(Train)));
  auto Q = QuantizedModel::build(std::move(Fp), Train);
  ASSERT_TRUE(bool(Q));
  const double Log2 = std::log2((*Q)->outputBase());
  EXPECT_EQ(Log2, std::floor(Log2));
  EXPECT_GT((*Q)->outputBase(), 0.0);
}

TEST(QuantizedModel, RefusesDirectFit) {
  Dataset Train = syntheticData(23, 80, 3);
  auto Fp = forest();
  ASSERT_TRUE(bool(Fp->fit(Train)));
  auto Q = QuantizedModel::build(std::move(Fp), Train);
  ASSERT_TRUE(bool(Q));
  EXPECT_FALSE(bool((*Q)->fit(Train)));
}

TEST(QuantizedModel, RefusesEmptyCalibration) {
  Dataset Train = syntheticData(24, 80, 3);
  auto Fp = forest();
  ASSERT_TRUE(bool(Fp->fit(Train)));
  Dataset Empty({"f0", "f1", "f2"});
  auto Q = QuantizedModel::build(std::move(Fp), Empty);
  ASSERT_FALSE(bool(Q));
}

TEST(QuantizedModel, RefusesWidthMismatch) {
  // A forest that splits on features the calibration data lacks. (A
  // wider calibration set is undetectable: trees do not record their
  // fitted width, and the extra columns are never read.)
  Dataset Train = syntheticData(25, 80, 5);
  auto Fp = forest();
  ASSERT_TRUE(bool(Fp->fit(Train)));
  Dataset Narrower = syntheticData(26, 20, 3);
  auto Q = QuantizedModel::build(std::move(Fp), Narrower);
  ASSERT_FALSE(bool(Q));
}

TEST(QuantizedModel, RefusesNullModel) {
  Dataset Train = syntheticData(27, 20, 3);
  auto Q = QuantizedModel::build(nullptr, Train);
  ASSERT_FALSE(bool(Q));
}

TEST(MaxRelativeError, BasicProperties) {
  EXPECT_EQ(maxRelativeError({}, {}), 0.0);
  EXPECT_EQ(maxRelativeError({1.0, -2.0, 3.0}, {1.0, -2.0, 3.0}), 0.0);
  // |1.1 - 1.0| / 1.0 = 0.1 dominates.
  EXPECT_NEAR(maxRelativeError({1.0, 2.0}, {1.1, 2.0}), 0.1, 1e-12);
  // Near-zero reference entries are floored at 1e-9 x max|ref| instead of
  // dividing by ~0.
  EXPECT_LT(maxRelativeError({1.0, 1e-300}, {1.0, 2e-300}), 1e-200);
}

TEST(InferenceAlgorithm, DefaultIsOverridable) {
  const InferenceAlgorithm Saved = defaultInferenceAlgorithm();
  setDefaultInferenceAlgorithm(InferenceAlgorithm::Quantized);
  EXPECT_EQ(defaultInferenceAlgorithm(), InferenceAlgorithm::Quantized);
  setDefaultInferenceAlgorithm(InferenceAlgorithm::Fp);
  EXPECT_EQ(defaultInferenceAlgorithm(), InferenceAlgorithm::Fp);
  setDefaultInferenceAlgorithm(Saved);
}

} // namespace
