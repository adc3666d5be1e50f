//===- ml/LinearRegression.cpp - Linear energy models ----------------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "ml/LinearRegression.h"

#include "stats/Nnls.h"
#include "stats/Solve.h"

#include <algorithm>

using namespace slope;
using namespace slope::ml;

Expected<bool> LinearRegression::fit(const Dataset &Training) {
  if (Training.numRows() == 0)
    return makeError("cannot fit a linear model on an empty dataset");
  if (Training.numFeatures() == 0)
    return makeError("cannot fit a linear model without features");

  // With an intercept, the design matrix carries a leading constant-1
  // column whose coefficient becomes the intercept afterwards; it is
  // assembled straight from the columnar store.
  stats::Matrix X = Training.designMatrix(!Options.ZeroIntercept);

  std::vector<double> Beta;
  if (Options.NonNegative) {
    auto Solution = stats::solveNnls(X, Training.targets(), Options.Lambda);
    if (!Solution)
      return Solution.error();
    Beta = std::move(Solution->X);
  } else {
    auto Solution = Options.Lambda > 0
                        ? stats::solveNormalEquations(X, Training.targets(),
                                                      Options.Lambda)
                        : stats::solveLeastSquaresQR(X, Training.targets());
    if (!Solution)
      return Solution.error();
    Beta = Solution.takeValue();
  }

  if (Options.ZeroIntercept) {
    Intercept = 0;
    Coefficients = std::move(Beta);
  } else {
    Intercept = Beta.front();
    Coefficients.assign(Beta.begin() + 1, Beta.end());
  }
  Fitted = true;
  return true;
}

double LinearRegression::predict(const std::vector<double> &Features) const {
  assert(Fitted && "predicting with an unfitted model");
  assert(Features.size() == Coefficients.size() &&
         "feature width does not match the fitted model");
  double Sum = Intercept;
  for (size_t C = 0; C < Features.size(); ++C)
    Sum += Coefficients[C] * Features[C];
  return Sum;
}

void LinearRegression::predictBatchInto(const Dataset &Data,
                                        double *Out) const {
  assert(Fitted && "predicting with an unfitted model");
  assert(Data.numFeatures() == Coefficients.size() &&
         "feature width does not match the fitted model");
  // Accumulate per row in ascending feature order — the same order as
  // predict() — streaming each column once.
  const size_t N = Data.numRows();
  std::fill(Out, Out + N, Intercept);
  for (size_t C = 0; C < Coefficients.size(); ++C) {
    const double *Col = Data.column(C);
    double W = Coefficients[C];
    for (size_t R = 0; R < N; ++R)
      Out[R] += W * Col[R];
  }
}
