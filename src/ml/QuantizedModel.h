//===- ml/QuantizedModel.h - Fixed-point inference fast path ----*- C++ -*-===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Quantized fixed-point inference for tree ensembles: an integer twin of
/// a fitted DecisionTree or RandomForest, built once from the trained
/// nodes plus a calibration dataset, so the serving hot loop walks the
/// forest in pure integer arithmetic over one flat node arena (~5x faster
/// than the FP pointer walk). The other families have no integer kernel,
/// because one did not beat FP (4096 rows x 6 features, 4-CPU AVX2 host):
/// the int64 LR dot product ran 1.9x slower than FP LR, the k-NN scan
/// 1.15x slower, and an identity-transfer NN won only by folding to that
/// same dot product. build() refuses them.
///
/// Quantization scheme (all scales are powers of two, so every rescale is
/// exact in FP):
///
///  * Features: per-feature scale chosen from the calibration range so the
///    calibration maximum lands near 2^24 quanta; quantizeRow() saturates
///    at +/-2^28, i.e. 16x headroom over anything seen at calibration.
///  * Nodes are flattened into one contiguous arena of 16-byte nodes
///    (int32 threshold in feature quanta, uint16 feature, two absolute
///    child indices); leaves self-loop, so the walk is branchless —
///    node = child[q[feat] > thresh] for the tree's fitted depth — with
///    no pointer chasing. Leaf values are int64 quanta on an output base
///    chosen from the trained leaf range (the kernel EM_TO_INT idiom with
///    an adaptive base); forest predictions accumulate in int64 (<= 2^44
///    per leaf, so thousands of trees fit).
///
/// Unlike the repo's other selectable kernels, quantized inference cannot
/// be bit-identical to the FP reference. Leaf rounding contributes
/// O(2^-24) per tree, but a feature within one quantum of a split
/// threshold can take the other branch, and then the row's prediction
/// moves by a whole leaf difference. The documented 1e-4 relative bound
/// (maxRelativeError below) holds on the held-out rows of
/// tests/ml/QuantizedModelTest.cpp and on the serving CI gate's
/// attribution tables, but not on every served row: over perfbench fleet
/// traces ~0.15% of rows miss it (44-49 of 32768 on seeds 1-3, worst
/// 4.0e-2). ROADMAP item 1b (threshold-rank quantization) makes every
/// decision exact.
///
//===----------------------------------------------------------------------===//

#ifndef SLOPE_ML_QUANTIZEDMODEL_H
#define SLOPE_ML_QUANTIZEDMODEL_H

#include "ml/Model.h"
#include "stats/SimdKernels.h"
#include "support/Cli.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>

#if defined(__x86_64__) || defined(_M_X64)
#include <emmintrin.h>
#endif

namespace slope {
namespace ml {

/// Inference-kernel selection for a served model. Unlike the bit-neutral
/// --tree-algo/--nn-algo switches this one changes numerics (within the
/// documented error bound), so only the serving driver exposes it, and
/// the serving gate compares the two sides.
enum class InferenceAlgorithm {
  Fp,        ///< The fitted FP model as-is (reference; default).
  Quantized, ///< Fixed-point twin built by QuantizedModel::build.
};

/// Spellings of the inference algorithms, for bench_serving_engine's
/// --infer-algo.
inline constexpr cli::Choice<InferenceAlgorithm> InferenceAlgorithmNames[] = {
    {"fp", InferenceAlgorithm::Fp},
    {"quantized", InferenceAlgorithm::Quantized},
};

/// Overrides the process-wide inference algorithm (initially Fp), which
/// core::OnlineEstimator::train follows.
void setDefaultInferenceAlgorithm(InferenceAlgorithm A);

/// \returns the process-wide default inference algorithm.
InferenceAlgorithm defaultInferenceAlgorithm();

/// \returns max_i |Got[i] - Ref[i]| / max(|Ref[i]|, Floor) over both
/// vectors, where Floor is 1e-9 x max_i |Ref[i]| so near-zero reference
/// entries cannot blow the ratio up. The error-bound property tests and
/// the serving tolerance gate measure exactly this. Asserts equal sizes;
/// \returns 0 for empty input.
double maxRelativeError(const std::vector<double> &Ref,
                        const std::vector<double> &Got);

/// An integer fixed-point twin of a fitted tree or forest (see file
/// comment). Owns the FP reference it was built from; predict/predictBatch
/// run the integer kernel, and the serving engine uses the quantizeRow /
/// predictQuantizedMany split: rows are quantized once at ingest and the
/// batched integer kernel dequantizes only its results.
class QuantizedModel : public Model {
public:
  /// Builds the fixed-point twin of \p Reference (a fitted DecisionTree or
  /// RandomForest; the twin takes ownership). \p Calibration supplies the
  /// per-feature value ranges the feature scales are chosen from —
  /// normally the training dataset. \returns an error naming the family
  /// for any other model (LR, NN, k-NN), and for empty calibration data, a
  /// feature-width mismatch, or more than 64 features.
  static Expected<std::unique_ptr<QuantizedModel>>
  build(std::unique_ptr<Model> Reference, const Dataset &Calibration);

  /// Quantized models take at most 64 features, so a quantized row fits
  /// a stack buffer of this size.
  static constexpr size_t MaxWidth = 64;

  /// Feature quanta saturate at +/-2^28 — 16x headroom over the 2^24
  /// calibration target.
  static constexpr int64_t SaturationQuanta = INT64_C(1) << 28;

  /// Quantizes one value: round(X * Scale), saturated. The
  /// single place the rounding rule lives, so predict, predictBatch, and
  /// the serving engine's ingest-time quantization cannot drift apart.
  /// On x86-64 the rounding is a single cvtsd2si (round-to-nearest-even
  /// under the default MXCSR mode) — std::llround is a libm call the
  /// compiler cannot inline without -fno-math-errno, and this runs once
  /// per feature per served observation.
  static int32_t quantizeValue(double X, double Scale) {
#if defined(__x86_64__) || defined(_M_X64)
    const int64_t Q = _mm_cvtsd_si64(_mm_set_sd(X * Scale));
#else
    const int64_t Q = std::llround(X * Scale);
#endif
    return static_cast<int32_t>(
        std::max(-SaturationQuanta, std::min(SaturationQuanta, Q)));
  }

  /// Quantized models are built from fitted FP models, never fitted
  /// directly; \returns an error unconditionally.
  Expected<bool> fit(const Dataset &Training) override;

  double predict(const std::vector<double> &Features) const override;
  void predictBatchInto(const Dataset &Data, double *Out) const override;

  /// "Q" + the reference family name ("QRF", "QTree"), so a quantized
  /// model can never masquerade as its FP reference in a table or log.
  std::string name() const override { return "Q" + Ref->name(); }

  /// The FP model this twin was built from.
  const Model &reference() const { return *Ref; }

  size_t featureWidth() const { return QuantScale.size(); }

  /// Quantizes one raw feature row into \p Out (featureWidth() values):
  /// Out[f] = round(x[f] * scale[f]), saturated at +/-2^28. Routed
  /// through stats::quantizeScaleClamp — eight-wide AVX2 under the
  /// default SIMD dispatch, two-wide SSE2 otherwise, with bit-identical
  /// results either way (the rounding rule is quantizeValue's in every
  /// variant).
  void quantizeRow(const double *Features, int32_t *Out) const {
    stats::quantizeScaleClamp(Features, QuantScale.data(), QuantScale.size(),
                              SaturationQuanta, Out);
  }

  /// Integer-only prediction over a quantized row, in output quanta.
  /// Pure given the row — no allocation, no FP — so shards may call it
  /// concurrently.
  int64_t predictQuantized(const int32_t *QRow) const;

  /// Batched predictQuantized + dequantize: runs the integer kernel over
  /// the \p N consecutive rows of \p Rows (featureWidth() values each)
  /// and writes dequantize(result quanta) to Out[i]. One kernel dispatch
  /// per batch instead of per row — the serving hot loop's entry point.
  void predictQuantizedMany(const int32_t *Rows, size_t N,
                            double *Out) const;

  /// Output quanta -> target units (J). The factor is
  /// 1 / (output base * ensemble size).
  double dequantize(int64_t PredQ) const {
    return static_cast<double>(PredQ) * DequantScale;
  }

  /// Output quanta per target unit (the model's adaptive EM_TO_INT base;
  /// exposed for tests and the DESIGN.md scale-selection argument).
  double outputBase() const { return OutputBase; }

private:
  QuantizedModel() = default;

  /// One flattened tree node: go to Child[q[Feat] > Thresh]. Leaves point
  /// both children at themselves, which keeps the walk branchless.
  struct QNode {
    int32_t Thresh;
    uint16_t Feat;
    int32_t Child[2];
  };

  std::unique_ptr<Model> Ref;

  /// Feature quantization: q = round(x * QuantScale).
  std::vector<double> QuantScale;

  double OutputBase = 1;    ///< Output quanta per target unit.
  double DequantScale = 1;  ///< 1 / (OutputBase * ensemble size).

  // One arena over all trees, per-tree roots and depths.
  std::vector<QNode> Nodes;
  std::vector<int64_t> LeafQ;     ///< Leaf value quanta per arena node.
  std::vector<uint32_t> Roots;
  std::vector<uint8_t> Depths;    ///< Fitted depth per tree (walk length).
};

} // namespace ml
} // namespace slope

#endif // SLOPE_ML_QUANTIZEDMODEL_H
