//===- ml/Model.cpp - Regression model interface ---------------------------===//
//
// Part of SLOPE-PMC++. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "ml/Model.h"

using namespace slope;
using namespace slope::ml;

// Out-of-line virtual anchor.
Model::~Model() = default;

void Model::predictBatchInto(const Dataset &Data, double *Out) const {
  std::vector<double> RowBuf;
  for (size_t R = 0; R < Data.numRows(); ++R) {
    Data.gatherRow(R, RowBuf);
    Out[R] = predict(RowBuf);
  }
}
