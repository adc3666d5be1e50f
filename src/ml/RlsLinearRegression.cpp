//===- ml/RlsLinearRegression.cpp - Online least squares -------------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "ml/RlsLinearRegression.h"

#include "stats/Solve.h"

#include <algorithm>
#include <array>
#include <utility>

using namespace slope;
using namespace slope::ml;

namespace {
/// Sherman-Morrison on P = G^-1 for G' = G + x x^T, row by row over \p N
/// rows of \p Rows (row width \p StateWidth minus the intercept slot):
///   Px    = P x
///   denom = 1 + x^T P x            (> 0: P is positive definite)
///   w    += Px * (y - x^T w) / denom
///   P    -= Px Px^T / denom        (stays symmetric by construction)
/// Every dot is a serial chain ascending from index 0 and every update
/// is element-wise, so the bits are those of the scalar stats::dot /
/// stats::axpy reference whatever the batch size.
///
/// Fixed > 0 fixes the state width at compile time: W and P are copied
/// into locals the compiler can keep in registers and fully unroll over,
/// and copied back once per batch. Fixed == 0 is the runtime-width
/// fallback, which updates \p WState / \p PState in place and takes P*x
/// and the augmented row from \p Scratch (2 * StateWidth).
template <size_t Fixed>
void shermanMorrison(size_t StateWidth, bool Intercept, const double *Rows,
                     const double *Targets, size_t N, double *WState,
                     double *PState, double *Scratch) {
  const size_t SW = Fixed ? Fixed : StateWidth;
  const size_t RowWidth = SW - Intercept;
  std::array<double, Fixed + Fixed * Fixed + 2 * Fixed> Local{};
  double *W = WState, *P = PState, *Px = Scratch;
  if constexpr (Fixed > 0) {
    W = Local.data();
    P = W + SW;
    Px = P + SW * SW;
    std::copy_n(WState, SW, W);
    std::copy_n(PState, SW * SW, P);
  }
  double *XAug = Px + SW;
  XAug[0] = 1.0;

  for (size_t I = 0; I < N; ++I) {
    const double *X = Rows + I * RowWidth;
    if (Intercept) {
      std::copy_n(X, SW - 1, XAug + 1);
      X = XAug;
    }
    for (size_t R = 0; R < SW; ++R) {
      double Sum = 0;
      for (size_t C = 0; C < SW; ++C)
        Sum += P[R * SW + C] * X[C];
      Px[R] = Sum;
    }
    double XPx = 0, XW = 0;
    for (size_t C = 0; C < SW; ++C)
      XPx += X[C] * Px[C];
    for (size_t C = 0; C < SW; ++C)
      XW += X[C] * W[C];
    const double Denom = 1.0 + XPx;
    const double Err = Targets[I] - XW;

    const double Step = Err / Denom;
    for (size_t C = 0; C < SW; ++C)
      W[C] += Step * Px[C];
    for (size_t R = 0; R < SW; ++R) {
      const double Scale = -Px[R] / Denom;
      for (size_t C = 0; C < SW; ++C)
        P[R * SW + C] += Scale * Px[C];
    }
  }

  if constexpr (Fixed > 0) {
    std::copy_n(W, SW, WState);
    std::copy_n(P, SW * SW, PState);
  }
}

using ShermanMorrisonKernel = void (*)(size_t, bool, const double *,
                                       const double *, size_t, double *,
                                       double *, double *);

template <size_t... Widths>
constexpr std::array<ShermanMorrisonKernel, sizeof...(Widths)>
kernelTable(std::index_sequence<Widths...>) {
  return {&shermanMorrison<Widths>...};
}

/// Compile-time-width kernels indexed by state width, for the widths the
/// paper's PMC subsets produce (up to 8 counters, with or without the
/// intercept slot); entry 0 is the runtime-width fallback.
constexpr auto FixedWidthKernels = kernelTable(std::make_index_sequence<10>());
} // namespace

Expected<bool> RlsLinearRegression::fit(const Dataset &Training) {
  if (Training.numRows() == 0)
    return makeError("cannot fit an RLS model on an empty dataset");
  if (Training.numFeatures() == 0)
    return makeError("cannot fit an RLS model without features");
  if (!(Options.Lambda > 0))
    return makeError("RLS needs Lambda > 0: the ridge prior is what keeps "
                     "the inverse Gram defined for rank-deficient seeds");

  Width = Training.numFeatures();
  const size_t SW = stateWidth();

  // The seed solve is the exact ridge system LinearRegression solves with
  // NonNegative off: (X^T X + Lambda I) w = X^T y.
  stats::Matrix X = Training.designMatrix(!Options.ZeroIntercept);
  auto Solution =
      stats::solveNormalEquations(X, Training.targets(), Options.Lambda);
  if (!Solution)
    return Solution.error();
  W = Solution.takeValue();

  // Seed the inverse Gram P = (X^T X + Lambda I)^-1 column by column
  // (Cholesky solve against each unit vector). Each solve refactorizes —
  // O(SW^4) total — but SW is tens at most and fits are rare next to the
  // O(SW^2) updates they amortize over.
  stats::Matrix G = X.gram();
  for (size_t D = 0; D < SW; ++D)
    G.at(D, D) += Options.Lambda;
  P.assign(SW * SW, 0.0);
  std::vector<double> Unit(SW, 0.0);
  for (size_t C = 0; C < SW; ++C) {
    Unit[C] = 1.0;
    auto Col = stats::solveCholesky(G, Unit);
    Unit[C] = 0.0;
    if (!Col)
      return Col.error();
    for (size_t R = 0; R < SW; ++R)
      P[R * SW + C] = (*Col)[R];
  }

  if (Options.ZeroIntercept) {
    Intercept = 0;
    Coefficients = W;
  } else {
    Intercept = W.front();
    Coefficients.assign(W.begin() + 1, W.end());
  }
  Scratch.assign(2 * SW, 0.0);
  Seen = Training.numRows();
  Fitted = true;
  return true;
}

void RlsLinearRegression::update(const double *Rows, const double *Targets,
                                 size_t N) {
  assert(Fitted && "updating an unfitted model; call fit() first");
  const size_t SW = stateWidth();
  const auto Kernel = SW < FixedWidthKernels.size() ? FixedWidthKernels[SW]
                                                    : &shermanMorrison<0>;
  Kernel(SW, !Options.ZeroIntercept, Rows, Targets, N, W.data(), P.data(),
         Scratch.data());

  if (Options.ZeroIntercept) {
    Coefficients = W;
  } else {
    Intercept = W.front();
    Coefficients.assign(W.begin() + 1, W.end());
  }
  Seen += N;
}

double RlsLinearRegression::predictRow(const double *Features) const {
  assert(Fitted && "predicting with an unfitted model");
  double Sum = Intercept;
  for (size_t C = 0; C < Width; ++C)
    Sum += Coefficients[C] * Features[C];
  return Sum;
}

double RlsLinearRegression::predict(const std::vector<double> &Features) const {
  assert(Features.size() == Width &&
         "feature width does not match the fitted model");
  return predictRow(Features.data());
}

void RlsLinearRegression::predictBatchInto(const Dataset &Data,
                                           double *Out) const {
  assert(Fitted && "predicting with an unfitted model");
  assert(Data.numFeatures() == Width &&
         "feature width does not match the fitted model");
  // Accumulate per row in ascending feature order — the same order as
  // predictRow() — streaming each column once.
  const size_t N = Data.numRows();
  std::fill(Out, Out + N, Intercept);
  for (size_t C = 0; C < Width; ++C) {
    const double *Col = Data.column(C);
    double Wc = Coefficients[C];
    for (size_t R = 0; R < N; ++R)
      Out[R] += Wc * Col[R];
  }
}
