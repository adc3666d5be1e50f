//===- ml/RandomForest.cpp - Bagged regression forest -----------------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "ml/RandomForest.h"

#include "support/PhaseTimers.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

using namespace slope;
using namespace slope::ml;

Expected<bool> RandomForest::fit(const Dataset &Training) {
  if (Training.numRows() == 0)
    return makeError("cannot fit a forest on an empty dataset");
  if (Training.numFeatures() == 0)
    return makeError("cannot fit a forest without features");
  assert(Options.NumTrees > 0 && "a forest needs at least one tree");

  size_t Mtry = Options.Tree.MaxFeatures;
  if (Mtry == 0) {
    Mtry = static_cast<size_t>(
        std::ceil(Options.FeatureFraction *
                  static_cast<double>(Training.numFeatures())));
    if (Mtry == 0)
      Mtry = 1;
  }

  // Trees are independent given their forked Rng streams (a pure function
  // of the forest seed and the tree index), so fitting parallelizes over
  // trees. Each task records its out-of-bag predictions; the OOB reduction
  // below runs serially in tree order, keeping the floating-point addition
  // order — and hence every result bit — identical to a serial fit. Each
  // task then flattens its tree and drops the DecisionTree, whose node
  // vector is reserved for the worst case, so at most one grown tree per
  // worker is alive at a time.
  // All trees share one forest-wide presort of the training rows; each
  // tree derives its bootstrap sample's per-feature orderings from it in
  // linear time (see DatasetPresort). Skipped when the resolved algorithm
  // is the naive reference, which never reads it.
  TreeAlgorithm Algo = Options.Tree.Algorithm == TreeAlgorithm::Default
                           ? defaultTreeAlgorithm()
                           : Options.Tree.Algorithm;
  std::unique_ptr<DatasetPresort> Master;
  if (Algo != TreeAlgorithm::Naive)
    Master = std::make_unique<DatasetPresort>(Training);

  Rng ForestRng(Options.Seed);
  size_t N = Training.numRows();
  std::vector<FlatTree> Flat(Options.NumTrees);
  std::vector<std::vector<bool>> InBags(Options.NumTrees);
  std::vector<std::vector<double>> OobPreds(Options.NumTrees);
  std::vector<std::string> FitErrors(Options.NumTrees);

  parallelFor(0, Options.NumTrees, 1, [&](size_t T) {
    Rng TreeRng = ForestRng.fork(T);
    std::vector<size_t> Bootstrap(N);
    std::vector<bool> InBag(N, false);
    for (size_t I = 0; I < N; ++I) {
      Bootstrap[I] = TreeRng.below(N);
      InBag[Bootstrap[I]] = true;
    }

    DecisionTreeOptions TreeOptions = Options.Tree;
    TreeOptions.MaxFeatures = Mtry;
    DecisionTree Tree(TreeOptions, TreeRng.fork("splits"));
    Expected<bool> Fit = [&] {
      // Charged to the tree-fit phase so perf gates can compare growth
      // kernels without the bootstrap/OOB work that both algorithms share.
      ScopedPhase Timer(Phase::ForestTreeFit);
      return Tree.fitRows(Training, Bootstrap, Master.get());
    }();
    if (!Fit) {
      FitErrors[T] = Fit.error().message();
      return;
    }

    std::vector<double> Preds(N, 0.0);
    std::vector<double> RowBuf;
    for (size_t R = 0; R < N; ++R)
      if (!InBag[R]) {
        Training.gatherRow(R, RowBuf);
        Preds[R] = Tree.predictRow(RowBuf.data());
      }
    Flat[T] = flattenTree(Tree);
    InBags[T] = std::move(InBag);
    OobPreds[T] = std::move(Preds);
  });

  for (size_t T = 0; T < Options.NumTrees; ++T)
    if (Flat[T].Nodes.empty())
      return makeError(FitErrors[T]);

  // Out-of-bag bookkeeping: sum/count of OOB predictions per row.
  std::vector<double> OobSum(N, 0.0);
  std::vector<unsigned> OobCount(N, 0);
  for (size_t T = 0; T < Options.NumTrees; ++T)
    for (size_t R = 0; R < N; ++R) {
      if (InBags[T][R])
        continue;
      OobSum[R] += OobPreds[T][R];
      ++OobCount[R];
    }

  double SumSq = 0;
  size_t Counted = 0;
  for (size_t R = 0; R < N; ++R) {
    if (OobCount[R] == 0)
      continue;
    double Err = OobSum[R] / OobCount[R] - Training.target(R);
    SumSq += Err * Err;
    ++Counted;
  }
  OobMse = Counted ? SumSq / static_cast<double>(Counted)
                   : std::nan("");
  Trees = std::move(Flat);
  Width = Training.numFeatures();
  Fitted = true;
  return true;
}

double RandomForest::predict(const std::vector<double> &Features) const {
  assert(Fitted && "predicting with an unfitted forest");
  assert(Features.size() == Width &&
         "feature width does not match the fitted forest");
  return predictFlatRow(Trees, Features.data());
}

void RandomForest::predictBatchInto(const Dataset &Data, double *Out) const {
  assert(Fitted && "predicting with an unfitted forest");
  assert(Data.numFeatures() == Width &&
         "feature width does not match the fitted forest");
  predictFlatBatch(Trees, Data, Out);
}

//===----------------------------------------------------------------------===//
// Flat forest walk
//===----------------------------------------------------------------------===//

static_assert(sizeof(FlatTree::Node) == 16, "four flat nodes per cache line");

FlatTree ml::flattenTree(const DecisionTree &Tree) {
  const size_t N = Tree.numNodes();
  assert(N > 0 && N <= std::numeric_limits<uint32_t>::max() &&
         "flattening an unfitted or oversized tree");
  // Breadth-first renumbering: Order[I] is the tree node placed at flat
  // index I (the root, 0, at 0). A split's children are placed as a pair,
  // right then left, at the next free index, which becomes the split's
  // Base.
  std::vector<uint32_t> Order(N), Level(N);
  FlatTree Flat;
  Flat.Nodes.resize(N);
  Flat.Leaf.assign(N, 0.0);
  uint32_t Next = 1;
  for (uint32_t I = 0; I < Next; ++I) {
    const DecisionTree::NodeView Src = Tree.node(Order[I]);
    if (Src.Feature == SIZE_MAX) {
      Flat.Nodes[I] = {std::numeric_limits<double>::quiet_NaN(), 0, I};
      Flat.Leaf[I] = Src.LeafValue;
      Flat.Depth = std::max(Flat.Depth, Level[I]);
      continue;
    }
    assert(Next + 2 <= N && "tree node reachable twice");
    Flat.Nodes[I] = {Src.Threshold, static_cast<uint32_t>(Src.Feature), Next};
    Order[Next] = static_cast<uint32_t>(Src.Right);
    Order[Next + 1] = static_cast<uint32_t>(Src.Left);
    Level[Next] = Level[Next + 1] = Level[I] + 1;
    Next += 2;
  }
  assert(Next == N && "tree node unreachable from the root");
  return Flat;
}

namespace {

/// One step of a flat walk from node \p P, reading feature values from
/// the columns \p Cols at row \p R.
inline uint32_t step(const FlatTree::Node *Nodes, uint32_t P,
                     const double *const *Cols, size_t R) {
  const FlatTree::Node &A = Nodes[P];
  return A.Base + (Cols[A.Feat][R] <= A.Thresh);
}

} // namespace

double ml::predictFlatRow(const std::vector<FlatTree> &Trees,
                          const double *Row) {
  double Sum = 0;
  for (const FlatTree &T : Trees) {
    const FlatTree::Node *Nodes = T.Nodes.data();
    uint32_t P = 0;
    for (unsigned D = T.Depth; D-- > 0;)
      P = Nodes[P].Base + (Row[Nodes[P].Feat] <= Nodes[P].Thresh);
    Sum += T.Leaf[P];
  }
  return Sum / static_cast<double>(Trees.size());
}

void ml::predictFlatBatch(const std::vector<FlatTree> &Trees,
                          const Dataset &Data, double *Out) {
  const size_t N = Data.numRows();
  std::vector<const double *> Cols(Data.numFeatures());
  for (size_t F = 0; F < Cols.size(); ++F)
    Cols[F] = Data.column(F);
  const double *const *C = Cols.data();
  // Tree-major over blocks of rows: one tree's nodes stay cache-hot for
  // the whole block, and eight independent walks keep the load ports
  // busy where a single walk is one dependent load chain. Each row still
  // adds its trees in ensemble order, so the sums match predictFlatRow.
  constexpr size_t Block = 256;
  double Acc[Block];
  for (size_t First = 0; First < N; First += Block) {
    const size_t M = std::min(Block, N - First);
    std::fill(Acc, Acc + M, 0.0);
    for (const FlatTree &T : Trees) {
      const FlatTree::Node *Nodes = T.Nodes.data();
      const double *Leaf = T.Leaf.data();
      size_t I = 0;
      for (; I + 8 <= M; I += 8) {
        const size_t R = First + I;
        uint32_t P0 = 0, P1 = 0, P2 = 0, P3 = 0, P4 = 0, P5 = 0, P6 = 0,
                 P7 = 0;
        for (unsigned D = T.Depth; D-- > 0;) {
          P0 = step(Nodes, P0, C, R);
          P1 = step(Nodes, P1, C, R + 1);
          P2 = step(Nodes, P2, C, R + 2);
          P3 = step(Nodes, P3, C, R + 3);
          P4 = step(Nodes, P4, C, R + 4);
          P5 = step(Nodes, P5, C, R + 5);
          P6 = step(Nodes, P6, C, R + 6);
          P7 = step(Nodes, P7, C, R + 7);
        }
        Acc[I] += Leaf[P0];
        Acc[I + 1] += Leaf[P1];
        Acc[I + 2] += Leaf[P2];
        Acc[I + 3] += Leaf[P3];
        Acc[I + 4] += Leaf[P4];
        Acc[I + 5] += Leaf[P5];
        Acc[I + 6] += Leaf[P6];
        Acc[I + 7] += Leaf[P7];
      }
      for (; I < M; ++I) {
        uint32_t P = 0;
        for (unsigned D = T.Depth; D-- > 0;)
          P = step(Nodes, P, C, First + I);
        Acc[I] += Leaf[P];
      }
    }
    const double NumTrees = static_cast<double>(Trees.size());
    for (size_t I = 0; I < M; ++I)
      Out[First + I] = Acc[I] / NumTrees;
  }
}
