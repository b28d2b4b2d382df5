#include "ml/kmeans.h"

#include <limits>

#include "la/kernels.h"
#include "ml/unified_trainers.h"

namespace dmml::ml {

using la::DenseMatrix;

namespace {

// Index of the nearest center for row i.
int Nearest(const DenseMatrix& x, size_t i, const DenseMatrix& centers) {
  int best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (size_t c = 0; c < centers.rows(); ++c) {
    double d = la::RowSquaredDistance(x, i, centers, c);
    if (d < best_d) {
      best_d = d;
      best = static_cast<int>(c);
    }
  }
  return best;
}

}  // namespace

Result<std::vector<int>> KMeansModel::Predict(const DenseMatrix& x) const {
  if (x.cols() != centers.cols()) {
    return Status::InvalidArgument("k-means model dimensionality mismatch");
  }
  std::vector<int> out(x.rows());
  for (size_t i = 0; i < x.rows(); ++i) out[i] = Nearest(x, i, centers);
  return out;
}

Result<KMeansModel> TrainKMeans(const DenseMatrix& x, const KMeansConfig& config,
                                ThreadPool* pool) {
  return TrainKMeansOnOperand(BorrowOperand(x), config, pool);
}

}  // namespace dmml::ml
