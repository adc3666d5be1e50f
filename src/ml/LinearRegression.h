//===- ml/LinearRegression.h - Linear energy models -------------*- C++ -*-===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Linear regression in the three flavours the project needs: ordinary
/// least squares, ridge, and the paper's configuration — penalized
/// regression with zero intercept and non-negative coefficients (solved as
/// NNLS), which respects the physical constraint that each counted event
/// contributes non-negative dynamic energy.
///
//===----------------------------------------------------------------------===//

#ifndef SLOPE_ML_LINEARREGRESSION_H
#define SLOPE_ML_LINEARREGRESSION_H

#include "ml/Model.h"

namespace slope {
namespace ml {

/// Configuration of a linear model.
struct LinearRegressionOptions {
  bool ZeroIntercept = true;   ///< No intercept term (paper default).
  bool NonNegative = true;     ///< Coefficients forced >= 0 (paper default).
  double Lambda = 0.0;         ///< Ridge penalty.

  /// The paper's Table 3 configuration.
  static LinearRegressionOptions paperDefault() {
    LinearRegressionOptions Options;
    Options.ZeroIntercept = true;
    Options.NonNegative = true;
    Options.Lambda = 1e-6;
    return Options;
  }

  /// Plain ordinary least squares with intercept (ablation baseline).
  static LinearRegressionOptions ols() {
    LinearRegressionOptions Options;
    Options.ZeroIntercept = false;
    Options.NonNegative = false;
    Options.Lambda = 0.0;
    return Options;
  }
};

/// Linear regression model (see LinearRegressionOptions).
class LinearRegression : public Model {
public:
  explicit LinearRegression(
      LinearRegressionOptions Options = LinearRegressionOptions::paperDefault())
      : Options(Options) {}

  Expected<bool> fit(const Dataset &Training) override;
  double predict(const std::vector<double> &Features) const override;
  void predictBatchInto(const Dataset &Data, double *Out) const override;
  std::string name() const override { return "LR"; }

  /// \returns the fitted coefficients (one per feature). Valid after fit.
  const std::vector<double> &coefficients() const {
    assert(Fitted && "model not fitted");
    return Coefficients;
  }

  /// \returns the fitted intercept (0 when ZeroIntercept). Valid after fit.
  double intercept() const {
    assert(Fitted && "model not fitted");
    return Intercept;
  }

private:
  LinearRegressionOptions Options;
  std::vector<double> Coefficients;
  double Intercept = 0;
  bool Fitted = false;
};

} // namespace ml
} // namespace slope

#endif // SLOPE_ML_LINEARREGRESSION_H
