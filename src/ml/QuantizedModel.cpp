//===- ml/QuantizedModel.cpp - Fixed-point inference fast path -------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "ml/QuantizedModel.h"

#include "ml/RandomForest.h"

#include <algorithm>
#include <cmath>

using namespace slope;
using namespace slope::ml;

namespace {

/// Fixed-point budget (see the header's scheme): calibration maxima land
/// near 2^24 feature quanta, saturation at 2^28 leaves 16x headroom, and
/// leaf quanta stay <= 2^44 so even thousand-tree forests accumulate in
/// int64.
constexpr double FeatureTargetQuanta = 16777216.0;        // 2^24
constexpr double LeafCapQuanta = 17592186044416.0;        // 2^44
constexpr size_t MaxQuantizedWidth = QuantizedModel::MaxWidth;

InferenceAlgorithm GlobalInferenceAlgorithm = InferenceAlgorithm::Fp;

/// The largest power of two <= \p X (X > 0), computed exactly.
double floorPow2(double X) {
  assert(X > 0 && std::isfinite(X) && "scale selection needs a finite range");
  return std::exp2(std::floor(std::log2(X)));
}

/// Per-feature scale from a calibration column: the column's absolute
/// maximum lands in (2^23, 2^24] quanta. All-zero (or degenerate) columns
/// scale by 1 — every value quantizes to 0 anyway.
double featureScaleFor(const double *Col, size_t N) {
  double MaxAbs = 0;
  for (size_t R = 0; R < N; ++R)
    MaxAbs = std::max(MaxAbs, std::fabs(Col[R]));
  if (!(MaxAbs > 0) || !std::isfinite(MaxAbs))
    return 1.0;
  return floorPow2(FeatureTargetQuanta / MaxAbs);
}

} // namespace

void ml::setDefaultInferenceAlgorithm(InferenceAlgorithm A) {
  GlobalInferenceAlgorithm = A;
}

InferenceAlgorithm ml::defaultInferenceAlgorithm() {
  return GlobalInferenceAlgorithm;
}

double ml::maxRelativeError(const std::vector<double> &Ref,
                            const std::vector<double> &Got) {
  assert(Ref.size() == Got.size() && "comparing mismatched prediction sets");
  double MaxAbsRef = 0;
  for (double V : Ref)
    MaxAbsRef = std::max(MaxAbsRef, std::fabs(V));
  const double Floor = 1e-9 * MaxAbsRef;
  double Worst = 0;
  for (size_t I = 0; I < Ref.size(); ++I) {
    const double Denom = std::max(std::fabs(Ref[I]), Floor);
    if (Denom > 0)
      Worst = std::max(Worst, std::fabs(Got[I] - Ref[I]) / Denom);
  }
  return Worst;
}

Expected<std::unique_ptr<QuantizedModel>>
QuantizedModel::build(std::unique_ptr<Model> Reference,
                      const Dataset &Calibration) {
  if (!Reference)
    return makeError("cannot quantize a null model");
  if (Calibration.numRows() == 0)
    return makeError("quantization needs a non-empty calibration dataset");
  const size_t Width = Calibration.numFeatures();
  if (Width == 0 || Width > MaxQuantizedWidth)
    return makeError("quantized inference supports 1.." +
                     std::to_string(MaxQuantizedWidth) + " features, got " +
                     std::to_string(Width));

  // Trees and forests share the flattened-arena kernel; no other family
  // has an integer kernel.
  std::vector<const DecisionTree *> Trees;
  if (const auto *Tree = dynamic_cast<const DecisionTree *>(Reference.get())) {
    Trees.push_back(Tree);
  } else if (const auto *Forest =
                 dynamic_cast<const RandomForest *>(Reference.get())) {
    for (size_t T = 0; T < Forest->numTrees(); ++T)
      Trees.push_back(&Forest->tree(T));
  } else {
    return makeError("model family '" + Reference->name() +
                     "' has no quantized inference kernel (trees and "
                     "forests only)");
  }

  auto Q = std::unique_ptr<QuantizedModel>(new QuantizedModel());
  Q->QuantScale.resize(Width);
  for (size_t F = 0; F < Width; ++F)
    Q->QuantScale[F] =
        featureScaleFor(Calibration.column(F), Calibration.numRows());

  double MaxAbsLeaf = 0;
  size_t TotalNodes = 0;
  for (const DecisionTree *Tree : Trees) {
    TotalNodes += Tree->numNodes();
    for (size_t I = 0; I < Tree->numNodes(); ++I) {
      const DecisionTree::NodeView N = Tree->node(I);
      if (N.Feature == SIZE_MAX)
        MaxAbsLeaf = std::max(MaxAbsLeaf, std::fabs(N.LeafValue));
      else if (N.Feature >= Width)
        return makeError("calibration width does not match the fitted "
                         "model");
    }
  }
  Q->OutputBase = MaxAbsLeaf > 0 ? floorPow2(LeafCapQuanta / MaxAbsLeaf)
                                 : std::exp2(40);
  Q->DequantScale = 1.0 / (Q->OutputBase * static_cast<double>(Trees.size()));
  Q->Nodes.reserve(TotalNodes);
  Q->LeafQ.reserve(TotalNodes);
  Q->Roots.reserve(Trees.size());
  Q->Depths.reserve(Trees.size());
  for (const DecisionTree *Tree : Trees) {
    const uint32_t Base = static_cast<uint32_t>(Q->Nodes.size());
    Q->Roots.push_back(Base);
    Q->Depths.push_back(static_cast<uint8_t>(Tree->fittedDepth()));
    for (size_t I = 0; I < Tree->numNodes(); ++I) {
      const DecisionTree::NodeView N = Tree->node(I);
      QNode Out;
      if (N.Feature == SIZE_MAX) {
        // Leaf: self-loop on a comparison that reads feature 0; the walk
        // stays put for its remaining fixed-depth iterations.
        Out.Thresh = INT32_MAX;
        Out.Feat = 0;
        Out.Child[0] = Out.Child[1] = static_cast<int32_t>(Base + I);
        Q->LeafQ.push_back(std::llround(N.LeafValue * Q->OutputBase));
      } else {
        const double ScaledT = N.Threshold * Q->QuantScale[N.Feature];
        const double Clamped =
            std::max(-1073741824.0, std::min(1073741824.0, ScaledT));
        Out.Thresh = static_cast<int32_t>(std::llround(Clamped));
        Out.Feat = static_cast<uint16_t>(N.Feature);
        Out.Child[0] = static_cast<int32_t>(Base) + N.Left;
        Out.Child[1] = static_cast<int32_t>(Base) + N.Right;
        Q->LeafQ.push_back(0);
      }
      Q->Nodes.push_back(Out);
    }
  }
  Q->Ref = std::move(Reference);
  return Q;
}

Expected<bool> QuantizedModel::fit(const Dataset &) {
  return makeError("quantized models are built from fitted FP models via "
                   "QuantizedModel::build, never fitted directly");
}

int64_t QuantizedModel::predictQuantized(const int32_t *QRow) const {
  int64_t Acc = 0;
  const QNode *Arena = Nodes.data();
  for (size_t T = 0; T < Roots.size(); ++T) {
    uint32_t I = Roots[T];
    for (unsigned D = Depths[T]; D-- > 0;) {
      const QNode &N = Arena[I];
      I = static_cast<uint32_t>(N.Child[QRow[N.Feat] > N.Thresh]);
    }
    Acc += LeafQ[I];
  }
  return Acc;
}

void QuantizedModel::predictQuantizedMany(const int32_t *Rows, size_t N,
                                          double *Out) const {
  const size_t Width = QuantScale.size();
  // Tree-major with four rows in flight: a row-major walk is one
  // dependent load chain per row (every node load waits on the
  // previous one), while four independent walks saturate the load
  // ports, and visiting one tree across a block of rows keeps that
  // tree's arena slice cache-hot for 4+ reuses per node instead of
  // touching every tree per row. Same int64 tree sum per row, just
  // reordered — integer accumulation is exact, so the result is
  // bit-identical to predictQuantized.
  constexpr size_t Block = 256;
  int64_t Acc[Block];
  const QNode *Arena = Nodes.data();
  const int64_t *Leaf = LeafQ.data();
  for (size_t First = 0; First < N; First += Block) {
    const size_t M = std::min(Block, N - First);
    const int32_t *Base = Rows + First * Width;
    std::fill(Acc, Acc + M, INT64_C(0));
    for (size_t T = 0; T < Roots.size(); ++T) {
      const uint32_t Root = Roots[T];
      const unsigned Depth = Depths[T];
      size_t I = 0;
      for (; I + 4 <= M; I += 4) {
        const int32_t *R0 = Base + I * Width;
        const int32_t *R1 = R0 + Width;
        const int32_t *R2 = R1 + Width;
        const int32_t *R3 = R2 + Width;
        uint32_t N0 = Root, N1 = Root, N2 = Root, N3 = Root;
        for (unsigned D = Depth; D-- > 0;) {
          const QNode &A0 = Arena[N0];
          N0 = static_cast<uint32_t>(A0.Child[R0[A0.Feat] > A0.Thresh]);
          const QNode &A1 = Arena[N1];
          N1 = static_cast<uint32_t>(A1.Child[R1[A1.Feat] > A1.Thresh]);
          const QNode &A2 = Arena[N2];
          N2 = static_cast<uint32_t>(A2.Child[R2[A2.Feat] > A2.Thresh]);
          const QNode &A3 = Arena[N3];
          N3 = static_cast<uint32_t>(A3.Child[R3[A3.Feat] > A3.Thresh]);
        }
        Acc[I] += Leaf[N0];
        Acc[I + 1] += Leaf[N1];
        Acc[I + 2] += Leaf[N2];
        Acc[I + 3] += Leaf[N3];
      }
      for (; I < M; ++I) {
        const int32_t *R = Base + I * Width;
        uint32_t Node = Root;
        for (unsigned D = Depth; D-- > 0;) {
          const QNode &A = Arena[Node];
          Node = static_cast<uint32_t>(A.Child[R[A.Feat] > A.Thresh]);
        }
        Acc[I] += Leaf[Node];
      }
    }
    for (size_t I = 0; I < M; ++I)
      Out[First + I] = dequantize(Acc[I]);
  }
}

double QuantizedModel::predict(const std::vector<double> &Features) const {
  assert(Features.size() == QuantScale.size() &&
         "feature width does not match the quantized model");
  int32_t QRow[MaxQuantizedWidth];
  quantizeRow(Features.data(), QRow);
  return dequantize(predictQuantized(QRow));
}

void QuantizedModel::predictBatchInto(const Dataset &Data, double *Out) const {
  assert(Data.numFeatures() == QuantScale.size() &&
         "feature width does not match the quantized model");
  const size_t N = Data.numRows();
  const size_t Width = QuantScale.size();
  // Quantize column by column (one streaming pass per feature), then run
  // the batched integer kernel over the contiguous rows — identical
  // arithmetic to predict() (the forest kernel only reorders an exact
  // int64 sum), so the two paths agree bit for bit.
  std::vector<int32_t> QBuf(N * Width);
  for (size_t F = 0; F < Width; ++F) {
    const double *Col = Data.column(F);
    const double Scale = QuantScale[F];
    for (size_t R = 0; R < N; ++R)
      QBuf[R * Width + F] = quantizeValue(Col[R], Scale);
  }
  predictQuantizedMany(QBuf.data(), N, Out);
}
