//===- ml/RandomForest.h - Bagged regression forest -------------*- C++ -*-===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Random forest regression (Breiman 2001): bootstrap-sampled CART trees
/// with per-split feature subsampling, averaged predictions. The paper's
/// RF family (Table 4). Note the forest predicts within the convex hull of
/// training targets — it cannot extrapolate, which is exactly why compound
/// test applications (whose counters exceed the training range) produce
/// the large maximum errors the paper reports.
///
/// Each tree is grown as a DecisionTree and then kept only in flat form
/// (FlatTree): 16-byte nodes whose walk is branchless and fixed-depth.
/// The flat walk takes the same `x <= t` decisions on the same doubles as
/// DecisionTree::predictRow, and every row sums its trees in ensemble
/// order before dividing by the tree count, so predictions are
/// bit-identical to averaging the pointer walks.
///
//===----------------------------------------------------------------------===//

#ifndef SLOPE_ML_RANDOMFOREST_H
#define SLOPE_ML_RANDOMFOREST_H

#include "ml/DecisionTree.h"

#include <cstdint>

namespace slope {
namespace ml {

/// One fitted tree in the forest's flat layout.
struct FlatTree {
  /// A step goes to Base + (x[Feat] <= Thresh): the right child sits at
  /// Base and the left child at Base + 1. A leaf stores Thresh = NaN and
  /// Base = its own index, so it loops on itself for any input (NaN
  /// included), and every walk runs the tree's full Depth with no branch.
  /// NaN features compare false and go right, as in the pointer walk.
  struct Node {
    double Thresh;
    uint32_t Feat;
    uint32_t Base;
  };
  std::vector<Node> Nodes;  ///< Breadth-first; the root is node 0.
  std::vector<double> Leaf; ///< Leaf value per node (0 at splits).
  unsigned Depth = 0;       ///< Steps from the root to the deepest leaf.
};

/// Flattens a fitted \p Tree. RandomForest::fit flattens every tree it
/// grows with this; a one-tree walk then returns Tree.predictRow bit for
/// bit.
FlatTree flattenTree(const DecisionTree &Tree);

/// \returns the mean of \p Trees' walks over one raw row, summed in
/// ensemble order. Allocates nothing.
double predictFlatRow(const std::vector<FlatTree> &Trees, const double *Row);

/// Writes predictFlatRow of every row of \p Data to Out[r], walking tree
/// by tree over blocks of rows with eight walks in flight.
void predictFlatBatch(const std::vector<FlatTree> &Trees, const Dataset &Data,
                      double *Out);

/// Hyper-parameters of a random forest.
struct RandomForestOptions {
  size_t NumTrees = 100;
  DecisionTreeOptions Tree;
  /// mtry as a fraction of the feature count (ceil); 1/3 is the classic
  /// regression default. Ignored if Tree.MaxFeatures != 0.
  double FeatureFraction = 1.0 / 3.0;
  uint64_t Seed = 0xF0535;
};

/// Bagged CART ensemble.
class RandomForest : public Model {
public:
  explicit RandomForest(RandomForestOptions Options = RandomForestOptions())
      : Options(Options) {}

  Expected<bool> fit(const Dataset &Training) override;
  /// Both prediction paths assert that the input has the fitted width.
  double predict(const std::vector<double> &Features) const override;
  void predictBatchInto(const Dataset &Data, double *Out) const override;
  std::string name() const override { return "RF"; }

  size_t numTrees() const { return Trees.size(); }

  /// Out-of-bag mean-squared error estimated during fit; NaN if no row was
  /// ever out of bag (tiny datasets).
  double oobMse() const {
    assert(Fitted && "model not fitted");
    return OobMse;
  }

private:
  RandomForestOptions Options;
  std::vector<FlatTree> Trees;
  size_t Width = 0; ///< Feature count of the training data.
  double OobMse = 0;
  bool Fitted = false;
};

} // namespace ml
} // namespace slope

#endif // SLOPE_ML_RANDOMFOREST_H
