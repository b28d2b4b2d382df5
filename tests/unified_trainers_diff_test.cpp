// Differential test of the representation-polymorphic trainers: one logical
// design matrix bound as dense, CSR, CLA-compressed and factorized
// (normalized-join) operands must train to the same GLM and the same
// k-means clustering, with and without a thread pool. The dense binding
// without a pool is the reference.
//
// The matrix is built in normalized form (entity columns plus one attribute
// table joined through a sorted foreign key), then materialized for the
// other bindings, so all four describe the same cells exactly. Its columns
// are low-cardinality by construction, cycling through three shapes that
// steer the CLA planner to a different encoding each:
//   * entity column, few distinct values in random order  -> DDC
//   * entity column, mostly zero with a few distinct values -> OLE
//   * attribute column gathered through the sorted key      -> RLE
// Distinct values are random doubles, not integers, so exact distance ties
// (which any rounding difference would break differently) do not occur.
//
// This suite is a sanitizer target: it stays green under
// -DDMML_SANITIZE=thread and address,undefined.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "cla/compressed_matrix.h"
#include "factorized/factorized_operand.h"
#include "factorized/normalized_matrix.h"
#include "la/sparse_matrix.h"
#include "laopt/operand.h"
#include "ml/unified_trainers.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dmml::ml {
namespace {

using la::DenseMatrix;
using laopt::Operand;
using laopt::Repr;

// Tolerance against the serial dense reference, relative to max(1, |ref|).
// Every binding computes the same products; they differ only in summation
// order — CSR skips zeros, CLA pre-aggregates over dictionary entries,
// the factorized kernels sum per attribute table and scatter through the
// key, and a pool splits long reductions into per-chunk partials. Each of
// those perturbs a result by a few ulps per epoch.
double Tolerance(Repr repr) {
  switch (repr) {
    case Repr::kDense:
      return 1e-12;
    case Repr::kSparse:
    case Repr::kCompressed:
    case Repr::kFactorized:
      return 1e-9;
  }
  return 0;
}

void ExpectClose(double got, double want, double tol, const std::string& what) {
  EXPECT_LE(std::fabs(got - want), tol * std::max(1.0, std::fabs(want)))
      << what << ": got " << got << ", want " << want;
}

void ExpectMatrixClose(const DenseMatrix& got, const DenseMatrix& want,
                       double tol, const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    ExpectClose(got.data()[i], want.data()[i], tol,
                what + "[" + std::to_string(i) + "]");
  }
}

// Picks uniformly from a small set of random values.
std::vector<double> Dictionary(Rng* rng, size_t size) {
  std::vector<double> values(size);
  for (double& v : values) v = rng->Normal(0.0, 2.0);
  return values;
}

// The logical matrix of width d, in normalized form.
factorized::NormalizedMatrix MakeNormalized(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  const size_t dr = std::max<size_t>(1, d / 3);  // A third, at least one.
  const size_t ds = d - dr;
  DenseMatrix xs(n, ds);
  for (size_t j = 0; j < ds; ++j) {
    const std::vector<double> dict = Dictionary(&rng, 4);
    const bool sparse_col = j % 2 == 1;
    for (size_t i = 0; i < n; ++i) {
      if (sparse_col && rng.Uniform() >= 0.1) continue;
      xs.At(i, j) = dict[rng.UniformInt(uint64_t{dict.size()})];
    }
  }
  const size_t nr = 6;
  DenseMatrix xr(nr, dr);
  for (size_t r = 0; r < nr; ++r) {
    for (size_t j = 0; j < dr; ++j) xr.At(r, j) = rng.Normal(0.0, 2.0);
  }
  std::vector<uint32_t> fk(n);
  for (size_t i = 0; i < n; ++i) fk[i] = static_cast<uint32_t>(i * nr / n);
  return factorized::NormalizedMatrix::Make(std::move(xs), {{xr, fk}})
      .ValueOrDie();
}

struct Bindings {
  factorized::NormalizedMatrix normalized;
  DenseMatrix dense;
  la::SparseMatrix sparse;
  cla::CompressedMatrix compressed;

  std::vector<Operand> All() const {
    return {Operand(laopt::Borrow(dense)), Operand(laopt::Borrow(sparse)),
            Operand(laopt::Borrow(compressed)),
            factorized::MakeFactorizedOperand(laopt::Borrow(normalized))};
  }
};

Bindings MakeBindings(size_t n, size_t d, uint64_t seed) {
  factorized::NormalizedMatrix nm = MakeNormalized(n, d, seed);
  DenseMatrix dense = nm.Materialize();
  la::SparseMatrix sparse = la::SparseMatrix::FromDense(dense);
  cla::CompressedMatrix compressed = cla::CompressedMatrix::Compress(dense);
  return {std::move(nm), std::move(dense), std::move(sparse),
          std::move(compressed)};
}

std::set<cla::GroupFormat> Formats(const cla::CompressedMatrix& m) {
  std::set<cla::GroupFormat> formats;
  for (const auto& g : m.groups()) formats.insert(g->format());
  return formats;
}

constexpr size_t kRows = 240;
const size_t kWidths[] = {1, 2, 3, 7};

std::string Label(const Operand& x, ThreadPool* pool) {
  return std::string(laopt::ReprName(x.repr())) +
         (pool != nullptr ? " + pool" : "");
}

TEST(UnifiedTrainersDiffTest, CompressedBindingCoversDdcRleOle) {
  for (size_t d : kWidths) {
    const Bindings b = MakeBindings(kRows, d, 100 + d);
    const std::set<cla::GroupFormat> formats = Formats(b.compressed);
    SCOPED_TRACE("d = " + std::to_string(d));
    EXPECT_TRUE(formats.count(cla::GroupFormat::kRle));
    EXPECT_EQ(formats.count(cla::GroupFormat::kDdc), d >= 2 ? 1u : 0u);
    EXPECT_EQ(formats.count(cla::GroupFormat::kOle), d >= 3 ? 1u : 0u);
  }
}

TEST(UnifiedTrainersDiffTest, GlmAgreesAcrossBindingsAndPools) {
  ThreadPool pool(4);
  for (size_t d : kWidths) {
    const Bindings b = MakeBindings(kRows, d, 100 + d);
    Rng rng(200 + d);
    DenseMatrix y_reg(kRows, 1);
    DenseMatrix y_cls(kRows, 1);
    for (size_t i = 0; i < kRows; ++i) {
      double s = 0;
      for (size_t j = 0; j < d; ++j) s += (j % 2 ? -0.5 : 0.7) * b.dense.At(i, j);
      y_reg.At(i, 0) = s + rng.Normal(0.0, 0.1);
      y_cls.At(i, 0) = s + rng.Normal(0.0, 0.5) > 0 ? 1.0 : 0.0;
    }
    for (GlmFamily family : {GlmFamily::kGaussian, GlmFamily::kBinomial}) {
      GlmConfig config;
      config.family = family;
      config.learning_rate = 0.05;
      config.l2 = 0.01;
      config.max_epochs = 20;
      config.tolerance = 0;  // Fixed work: every binding runs every epoch.
      const DenseMatrix& y = family == GlmFamily::kGaussian ? y_reg : y_cls;
      auto ref = TrainGlmOnOperand(Operand(laopt::Borrow(b.dense)), y, config);
      ASSERT_TRUE(ref.ok()) << ref.status().ToString();
      for (const Operand& x : b.All()) {
        for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
          const std::string what =
              "d=" + std::to_string(d) + " " + Label(x, p) +
              (family == GlmFamily::kGaussian ? " gaussian" : " binomial");
          auto got = TrainGlmOnOperand(x, y, config, p);
          ASSERT_TRUE(got.ok()) << what << ": " << got.status().ToString();
          const double tol = Tolerance(x.repr());
          ExpectMatrixClose(got->weights, ref->weights, tol, what + " weights");
          ExpectClose(got->intercept, ref->intercept, tol, what + " intercept");
          ASSERT_EQ(got->epochs_run, ref->epochs_run) << what;
          for (size_t e = 0; e < ref->loss_history.size(); ++e) {
            ExpectClose(got->loss_history[e], ref->loss_history[e], tol,
                        what + " loss epoch " + std::to_string(e));
          }
        }
      }
    }
  }
}

TEST(UnifiedTrainersDiffTest, KMeansAgreesAcrossBindingsAndPools) {
  ThreadPool pool(4);
  for (size_t d : kWidths) {
    const Bindings b = MakeBindings(kRows, d, 100 + d);
    for (bool kmeanspp : {true, false}) {
      KMeansConfig config;
      config.k = 4;
      config.max_iters = 12;
      config.seed = 300 + d;
      config.kmeanspp_init = kmeanspp;
      auto ref = TrainKMeansOnOperand(Operand(laopt::Borrow(b.dense)), config);
      ASSERT_TRUE(ref.ok()) << ref.status().ToString();
      for (const Operand& x : b.All()) {
        for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
          const std::string what = "d=" + std::to_string(d) + " " +
                                   Label(x, p) +
                                   (kmeanspp ? " kmeans++" : " uniform");
          auto got = TrainKMeansOnOperand(x, config, p);
          ASSERT_TRUE(got.ok()) << what << ": " << got.status().ToString();
          const double tol = Tolerance(x.repr());
          EXPECT_EQ(got->labels, ref->labels) << what;
          ExpectMatrixClose(got->centers, ref->centers, tol, what + " centers");
          ExpectClose(got->inertia, ref->inertia, tol, what + " inertia");
          EXPECT_EQ(got->iters_run, ref->iters_run) << what;
        }
      }
    }
  }
}

}  // namespace
}  // namespace dmml::ml
