#include "ml/sparse_glm.h"

#include <cmath>

namespace dmml::ml {

using la::DenseMatrix;
using la::SparseMatrix;

Result<double> GlmLossSparse(const SparseMatrix& x, const DenseMatrix& y,
                             const DenseMatrix& w, double intercept,
                             GlmFamily family, double l2) {
  const size_t n = x.rows();
  if (n == 0) return Status::InvalidArgument("GlmLossSparse: empty data");
  if (y.rows() != n || y.cols() != 1 || w.rows() != x.cols()) {
    return Status::InvalidArgument("GlmLossSparse: shape mismatch");
  }
  double acc = 0;
  for (size_t i = 0; i < n; ++i) {
    double score = intercept;
    for (size_t k = x.RowBegin(i); k < x.RowEnd(i); ++k) {
      score += x.values()[k] * w.At(x.col_idx()[k], 0);
    }
    if (family == GlmFamily::kGaussian) {
      double r = score - y.At(i, 0);
      acc += 0.5 * r * r;
    } else {
      double sign_y = y.At(i, 0) > 0.5 ? 1.0 : -1.0;
      double m = sign_y * score;
      acc += m > 0 ? std::log1p(std::exp(-m)) : -m + std::log1p(std::exp(m));
    }
  }
  double loss = acc / static_cast<double>(n);
  if (l2 > 0) {
    double w2 = 0;
    for (size_t j = 0; j < w.rows(); ++j) w2 += w.At(j, 0) * w.At(j, 0);
    loss += 0.5 * l2 * w2;
  }
  return loss;
}

}  // namespace dmml::ml
