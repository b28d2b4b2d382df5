/// \file sparse_glm.h
/// \brief GLM loss over CSR design matrices.
///
/// Training on CSR data runs through the representation-polymorphic trainer:
/// `ml::TrainGlmOnOperand(laopt::Operand(laopt::Borrow(x)), y, config)`
/// dispatches every X·w and Xᵀ·r to the O(nnz) CSR kernels. This header
/// keeps the row-wise sparse loss, an independent reference for it.
#ifndef DMML_ML_SPARSE_GLM_H_
#define DMML_ML_SPARSE_GLM_H_

#include "la/sparse_matrix.h"
#include "ml/glm.h"
#include "util/result.h"

namespace dmml::ml {

/// \brief Mean family loss on sparse data (mirrors ml::GlmLoss).
Result<double> GlmLossSparse(const la::SparseMatrix& x, const la::DenseMatrix& y,
                             const la::DenseMatrix& w, double intercept,
                             GlmFamily family, double l2);

}  // namespace dmml::ml

#endif  // DMML_ML_SPARSE_GLM_H_
