//===- stats/SimdKernels.cpp - SIMD mode resolution and dispatch -----------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "stats/SimdKernels.h"

#include "support/CpuFeatures.h"

#include <cmath>

using namespace slope;
using namespace slope::stats;

namespace {

/// True when the AVX2 variants were compiled at all (x86-64 toolchain
/// with -mavx2 -mfma) and the CPU/OS can run them.
bool avx2Available() {
#ifdef SLOPE_SIMD_AVX2_COMPILED
  return cpuHasAvx2();
#else
  return false;
#endif
}

SimdMode GlobalSimdMode =
    cli::envChoice("SLOPE_SIMD", SimdModeNames, SimdMode::Auto);

void resolveDispatch() {
  const bool Available = avx2Available();
  detail::ColumnKernelsAvx2Flag =
      Available && GlobalSimdMode != SimdMode::Scalar;
  detail::KSplitKernelsAvx2Flag =
      Available && GlobalSimdMode == SimdMode::Avx2;
}

// Resolves the SLOPE_SIMD mode's dispatch before main() runs.
const bool EnvInitDone = (resolveDispatch(), true);

} // namespace

bool detail::ColumnKernelsAvx2Flag = false;
bool detail::KSplitKernelsAvx2Flag = false;

void stats::setDefaultSimdMode(SimdMode M) {
  GlobalSimdMode = M;
  resolveDispatch();
}

SimdMode stats::defaultSimdMode() { return GlobalSimdMode; }

const char *stats::resolvedSimdVariant() {
  return detail::ColumnKernelsAvx2Flag ? "avx2" : "scalar";
}

bool stats::simdColumnKernelsActive() {
  return detail::ColumnKernelsAvx2Flag;
}

bool stats::simdKSplitKernelsActive() {
  return detail::KSplitKernelsAvx2Flag;
}

double stats::weightedIndexedSum(const double *Weight, const uint32_t *Index,
                                 size_t N, const double *Values) {
#ifdef SLOPE_SIMD_AVX2_COMPILED
  if (detail::KSplitKernelsAvx2Flag)
    return detail::weightedIndexedSumAvx2(Weight, Index, N, Values);
#endif
  double Sum = 0;
  for (size_t I = 0; I < N; ++I)
    Sum += Weight[I] * Values[Index[I]];
  return Sum;
}

double stats::sum(const double *X, size_t N) {
#ifdef SLOPE_SIMD_AVX2_COMPILED
  if (detail::KSplitKernelsAvx2Flag)
    return detail::sumAvx2(X, N);
#endif
  double Sum = 0;
  for (size_t I = 0; I < N; ++I)
    Sum += X[I];
  return Sum;
}

void stats::adamStep(double *W, double *M, double *V, const double *Grad,
                     size_t N, double L2, double Beta1, double Beta2,
                     double Corr1, double Corr2, double Lr, double Eps) {
#ifdef SLOPE_SIMD_AVX2_COMPILED
  if (detail::ColumnKernelsAvx2Flag)
    return detail::adamStepAvx2(W, M, V, Grad, N, L2, Beta1, Beta2, Corr1,
                                Corr2, Lr, Eps);
#endif
  for (size_t I = 0; I < N; ++I) {
    const double G = Grad[I] + L2 * W[I];
    M[I] = Beta1 * M[I] + (1 - Beta1) * G;
    V[I] = Beta2 * V[I] + (1 - Beta2) * G * G;
    W[I] -= Lr * (M[I] / Corr1) / (std::sqrt(V[I] / Corr2) + Eps);
  }
}
