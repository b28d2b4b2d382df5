// grid_cla: the model-selection pillar. One op is a whole 5-fold cross-
// validated grid of 16 binomial GLM configs (4 learning rates x 4 L2
// strengths, 30 epochs) over a CLA-compressed low-cardinality matrix:
// modelsel::SharedScanTrain trains every fold x config in one shared scan,
// then modelsel::ScoreConfigsOnWindow scores each fold's validation window.
// The rows are permuted once (MakeContiguousFolds) and compressed in set-up.
#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "cla/compressed_matrix.h"
#include "harness.h"
#include "ml/unified_trainers.h"
#include "modelsel/model_selection.h"
#include "modelsel/shared_scan.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using dmml::Result;
using dmml::Status;
using dmml::ThreadPool;
using dmml::la::DenseMatrix;
using dmml::modelsel::FoldRange;
using dmml::modelsel::SharedScanResult;

constexpr size_t kCols = 30;
constexpr size_t kCardinality = 5;  ///< Distinct nonzero values per column.
constexpr double kZeroShare = 0.6;
constexpr size_t kFolds = 5;
constexpr size_t kEpochs = 30;
constexpr double kWeightTol = 1e-9;  ///< CLA vs dense binding.

/// One grid op's output: per-fold weights plus each config's mean score.
struct GridOutput {
  SharedScanResult trained;
  std::vector<double> mean_scores;
};

/// obs registry counter -> per-layer metric name (per-op delta).
const CounterDeltas::Names& TracedCounters() {
  static const CounterDeltas::Names names = {
      {"modelsel.shared.epochs_saved", "modelsel.epochs_saved"},
      {"laopt.sched.runs", "laopt.runs"},
      {"la.inplace.allocs", "la.inplace_allocs"},
      {"cla.decompress_fallback", "cla.decompress_fallback"},
      {"laopt.repr.densify_fallbacks", "laopt.repr.densify_fallbacks"}};
  return names;
}

class GridWorkload : public Workload {
 public:
  GridWorkload(size_t rows, uint64_t seed) : rows_(rows), seed_(seed) {
    const double lrs[] = {0.05, 0.1, 0.2, 0.4};
    const double l2s[] = {0.0, 1e-3, 1e-2, 1e-1};
    for (double lr : lrs) {
      for (double l2 : l2s) {
        dmml::ml::GlmConfig c;
        c.family = dmml::ml::GlmFamily::kBinomial;
        c.learning_rate = lr;
        c.l2 = l2;
        c.max_epochs = kEpochs;
        c.tolerance = 0;
        configs_.push_back(c);
      }
    }
  }

  Status Setup(ThreadPool* pool) override;
  Status Prepare(ThreadPool* pool, ThreadPool* pool1) override;
  bool RunOp(ThreadPool* pool) override { return Check(RunGrid(x_, pool, nullptr)); }
  double CellEpochsPerOp() const override;
  void AddSetupSamples(Samples* samples) const override {
    samples->Add("cla.compress_ms", compress_ms_);
    samples->Add("cla.compression_ratio", compression_ratio_);
  }
  void TraceIteration(ThreadPool* pool, ThreadPool* pool1, SpanRecorder* rec,
                      uint64_t* op_id, Samples* samples,
                      RunResult* result) override;

 private:
  Result<GridOutput> RunGrid(const dmml::laopt::Operand& x, ThreadPool* pool,
                             StageContext* ctx) const;
  bool Check(const Result<GridOutput>& out) const;

  size_t rows_;
  uint64_t seed_;
  std::vector<dmml::ml::GlmConfig> configs_;
  std::vector<FoldRange> folds_;
  DenseMatrix xp_;  ///< Fold-permuted dense rows (the reference binding).
  DenseMatrix yp_;
  dmml::laopt::Operand x_;  ///< The compressed binding every op trains on.
  double compress_ms_ = 0;
  double compression_ratio_ = 0;
  GridOutput reference_;
};

Status GridWorkload::Setup(ThreadPool* pool) {
  dmml::Rng rng(seed_);
  DenseMatrix x(rows_, kCols);
  for (size_t c = 0; c < kCols; ++c) {
    double dict[kCardinality];
    for (double& v : dict) v = rng.Uniform(-1.0, 1.0);
    for (size_t r = 0; r < rows_; ++r) {
      const bool zero = rng.Uniform() < kZeroShare;
      x.At(r, c) = zero ? 0.0 : dict[rng.UniformInt(kCardinality)];
    }
  }
  std::vector<double> w(kCols);
  for (double& v : w) v = rng.Normal(0, 2.0);
  DenseMatrix y(rows_, 1);
  for (size_t r = 0; r < rows_; ++r) {
    double s = 0;
    for (size_t c = 0; c < kCols; ++c) s += x.At(r, c) * w[c];
    y.At(r, 0) = rng.Bernoulli(1.0 / (1.0 + std::exp(-s))) ? 1.0 : 0.0;
  }

  DMML_ASSIGN_OR_RETURN(dmml::modelsel::KFold kf,
                        dmml::modelsel::KFold::Make(rows_, kFolds, seed_));
  dmml::modelsel::ContiguousFolds cf = dmml::modelsel::MakeContiguousFolds(kf);
  folds_ = std::move(cf.folds);
  xp_ = dmml::modelsel::GatherRows(x, cf.order);
  yp_ = dmml::modelsel::GatherRows(y, cf.order);

  const double t0 = NowUs();
  auto xc = std::make_shared<const dmml::cla::CompressedMatrix>(
      dmml::cla::CompressedMatrix::Compress(xp_, {}, pool));
  compress_ms_ = (NowUs() - t0) / 1e3;
  compression_ratio_ = xc->CompressionRatio();
  x_ = dmml::laopt::Operand(std::move(xc));
  return Status::OK();
}

Result<GridOutput> GridWorkload::RunGrid(const dmml::laopt::Operand& x,
                                         ThreadPool* pool,
                                         StageContext* ctx) const {
  StageContext none;
  if (ctx == nullptr) ctx = &none;
  GridOutput out;
  {
    ScopedStage s(ctx, "modelsel.rung");
    DMML_ASSIGN_OR_RETURN(out.trained, dmml::modelsel::SharedScanTrain(
                                           x, yp_, folds_, configs_, pool));
  }
  ScopedStage s(ctx, "modelsel.score");
  out.mean_scores.assign(configs_.size(), 0.0);
  for (size_t f = 0; f < folds_.size(); ++f) {
    const dmml::modelsel::SharedScanFold& fold = out.trained.folds[f];
    DMML_ASSIGN_OR_RETURN(
        std::vector<double> scores,
        dmml::modelsel::ScoreConfigsOnWindow(
            x, yp_, folds_[f].begin, folds_[f].end, fold.weights,
            fold.intercepts, dmml::ml::GlmFamily::kBinomial,
            dmml::modelsel::FoldMetric::kAccuracy, pool));
    for (size_t c = 0; c < scores.size(); ++c) {
      out.mean_scores[c] += scores[c] / static_cast<double>(folds_.size());
    }
  }
  return out;
}

Status GridWorkload::Prepare(ThreadPool* pool, ThreadPool* /*pool1*/) {
  // Reference: the same grid over the dense binding of the same rows.
  DMML_ASSIGN_OR_RETURN(reference_,
                        RunGrid(dmml::ml::BorrowOperand(xp_), pool, nullptr));
  if (!Check(RunGrid(x_, pool, nullptr))) {
    return Status::Internal("compressed grid disagrees with the dense reference");
  }
  return Status::OK();
}

bool GridWorkload::Check(const Result<GridOutput>& out) const {
  if (!out.ok() || out->trained.epochs_run != kEpochs ||
      out->trained.folds.size() != reference_.trained.folds.size() ||
      out->mean_scores.size() != configs_.size()) {
    return false;
  }
  for (size_t f = 0; f < out->trained.folds.size(); ++f) {
    const dmml::modelsel::SharedScanFold& a = out->trained.folds[f];
    const dmml::modelsel::SharedScanFold& b = reference_.trained.folds[f];
    if (!a.weights.ApproxEquals(b.weights, kWeightTol)) return false;
    for (size_t c = 0; c < configs_.size(); ++c) {
      if (!(std::fabs(a.intercepts[c] - b.intercepts[c]) <= kWeightTol)) {
        return false;
      }
    }
  }
  for (size_t c = 0; c < configs_.size(); ++c) {
    if (!(std::fabs(out->mean_scores[c] - reference_.mean_scores[c]) <= 1e-12)) {
      return false;
    }
  }
  return true;
}

double GridWorkload::CellEpochsPerOp() const {
  double training_rows = 0;  // Each fold trains on the rows outside its window.
  for (const FoldRange& f : folds_) {
    training_rows += static_cast<double>(rows_ - (f.end - f.begin));
  }
  return training_rows * kCols * kEpochs * static_cast<double>(configs_.size());
}

void GridWorkload::TraceIteration(ThreadPool* pool, ThreadPool* pool1,
                                  SpanRecorder* rec, uint64_t* op_id,
                                  Samples* samples, RunResult* result) {
  const uint64_t faults0 = MinorFaults();
  double t0 = NowUs();
  result->Check(Check(RunGrid(x_, pool, nullptr)));
  samples->Add("op.plain_ms", (NowUs() - t0) / 1e3);
  samples->Add("proc.minflt_per_op",
               static_cast<double>(MinorFaults() - faults0));

  const CounterDeltas counters(TracedCounters());
  StageContext ctx{rec, ++*op_id, -1, {}};
  ctx.parent = rec->Begin("op", ctx.op, -1);
  result->Check(Check(RunGrid(x_, pool, &ctx)));
  samples->Add("op.traced_ms", rec->End(ctx.parent));
  for (const auto& [name, ms] : ctx.layer_ms) samples->Add(name + "_ms", ms);
  counters.AddTo(samples);

  StageContext ctx1{rec, ++*op_id, -1, {}};
  ctx1.parent = rec->Begin("op.1thread", ctx1.op, -1);
  result->Check(Check(RunGrid(x_, pool1, &ctx1)));
  rec->End(ctx1.parent);
  samples->Add("modelsel.rung_ms.1thread", ctx1.layer_ms["modelsel.rung"]);
}

}  // namespace

std::unique_ptr<Workload> MakeGridWorkload(uint64_t seed, bool smoke) {
  return std::make_unique<GridWorkload>(smoke ? 500 : 1000, seed);
}

}  // namespace perfbench
