//===- tests/core/ModelZooTest.cpp - Paper model factory tests ------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "core/ModelZoo.h"

#include "support/Rng.h"

#include <cmath>
#include <gtest/gtest.h>

using namespace slope;
using namespace slope::core;

namespace {

constexpr ModelFamily AllFamilies[] = {ModelFamily::LR, ModelFamily::RF,
                                       ModelFamily::NN, ModelFamily::Knn};

/// A well-conditioned mini regression problem: positive linear targets
/// (the paper LR solves non-negative least squares) with mild noise.
ml::Dataset miniDataset(size_t Width, uint64_t Seed) {
  Rng R(Seed);
  std::vector<std::string> Names;
  for (size_t F = 0; F < Width; ++F)
    Names.push_back("pmc" + std::to_string(F));
  ml::Dataset Data(Names);
  for (int I = 0; I < 80; ++I) {
    std::vector<double> X(Width);
    double Y = 0;
    for (size_t F = 0; F < Width; ++F) {
      X[F] = R.uniform(0.5, 8.0);
      Y += static_cast<double>(F + 1) * X[F];
    }
    Data.addRow(X, Y + R.gaussian(0, 0.05));
  }
  return Data;
}

} // namespace

TEST(ModelZoo, FamilyNames) {
  EXPECT_STREQ(modelFamilyName(ModelFamily::LR), "LR");
  EXPECT_STREQ(modelFamilyName(ModelFamily::RF), "RF");
  EXPECT_STREQ(modelFamilyName(ModelFamily::NN), "NN");
  EXPECT_STREQ(modelFamilyName(ModelFamily::Knn), "kNN");
}

// Every family must construct, train, and predict.
TEST(ModelZoo, RoundTripEveryFamily) {
  ml::Dataset Train = miniDataset(4, 0x200);
  for (ModelFamily Family : AllFamilies) {
    SCOPED_TRACE(modelFamilyName(Family));
    std::unique_ptr<ml::Model> M = fitPaperModel(Family, 1, Train);
    ASSERT_NE(M, nullptr);
    const double P = M->predict(Train.row(0));
    EXPECT_TRUE(std::isfinite(P));
  }
}
