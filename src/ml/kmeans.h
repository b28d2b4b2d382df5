/// \file kmeans.h
/// \brief Lloyd's k-means with k-means++ initialization.
#ifndef DMML_ML_KMEANS_H_
#define DMML_ML_KMEANS_H_

#include <cstdint>
#include <vector>

#include "la/dense_matrix.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace dmml::ml {

/// \brief k-means hyperparameters.
struct KMeansConfig {
  size_t k = 8;
  size_t max_iters = 100;
  double tolerance = 1e-6;  ///< Relative inertia-improvement stop criterion.
  uint64_t seed = 42;
  bool kmeanspp_init = true;  ///< Otherwise: uniform random point init.
};

/// \brief A fitted k-means clustering.
struct KMeansModel {
  la::DenseMatrix centers;   ///< k x d centroids.
  std::vector<int> labels;   ///< Training assignment.
  double inertia = 0.0;      ///< Final within-cluster SSE.
  size_t iters_run = 0;
  std::vector<double> inertia_history;

  /// \brief Assigns each row of `x` to its nearest centroid.
  Result<std::vector<int>> Predict(const la::DenseMatrix& x) const;
};

/// \brief Runs Lloyd's algorithm on dense (n x d) data: the dense binding of
/// ml::TrainKMeansOnOperand (ml/unified_trainers.h), which documents the
/// initialization, empty-cluster and final-assignment rules.
Result<KMeansModel> TrainKMeans(const la::DenseMatrix& x, const KMeansConfig& config,
                                ThreadPool* pool = nullptr);

}  // namespace dmml::ml

#endif  // DMML_ML_KMEANS_H_
