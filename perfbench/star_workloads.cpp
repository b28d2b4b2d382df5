// The learning-over-joins workloads: orders ⋈ products → Gaussian GLM
// through the declarative pipeline, from catalog tables to fitted model.
//
//   star_factorized  tuple ratio 100, kAuto must choose the factorized route.
//   star_onehot      the same star plus a string `category` on products, which
//                    forces the materialized CSR route (hash join, one-hot
//                    assembly, sparse kernels).
//
// The traced pass re-runs each fit stage by stage through the modules' public
// functions (EstimateCardinality, ExecutePlan, AssembleFeaturesCsr /
// Table::ToMatrix, NormalizedMatrix::Make, TrainGlmOnOperand) with a span
// around each call, mirroring what Pipeline::TrainGlm does internally.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "factorized/factorized_operand.h"
#include "factorized/normalized_matrix.h"
#include "harness.h"
#include "laopt/profile.h"
#include "ml/encoding.h"
#include "ml/unified_trainers.h"
#include "pipeline/pipeline.h"
#include "relational/logical_plan.h"
#include "storage/catalog.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using dmml::Result;
using dmml::Status;
using dmml::ThreadPool;
using dmml::pipeline::Binding;
using dmml::pipeline::Route;

constexpr size_t kEpochs = 30;
constexpr double kFilterCut = -1.5;  // orders.xs0 > -1.5 keeps ~93% of rows.

struct StarSpec {
  size_t ns = 0;          ///< orders rows
  size_t nr = 0;          ///< products rows
  size_t ds = 4;          ///< fact-side features
  size_t dr = 40;         ///< dimension-side features
  size_t categories = 0;  ///< distinct products.category values (0: none)
  Route expect_route = Route::kFactorized;
  Binding expect_binding = Binding::kAuto;
  double weight_tol = 1e-7;  ///< Oracle tolerance against the reference.
};

bool SpecFor(const std::string& name, bool smoke, StarSpec* spec) {
  if (name == "star_factorized") {
    spec->ns = smoke ? 2000 : 20000;
    spec->nr = smoke ? 20 : 200;
  } else if (name == "star_onehot") {
    spec->ns = smoke ? 1000 : 10000;
    spec->nr = smoke ? 40 : 200;
    spec->categories = smoke ? 20 : 200;
    spec->expect_route = Route::kMaterialize;
    spec->expect_binding = Binding::kCsr;
    spec->weight_tol = 0;  // Same kernels as the staged reference: bit-equal.
  } else {
    return false;
  }
  return true;
}

/// Maximum absolute weight/intercept difference between two models, or
/// infinity when their shapes differ.
double ModelDistance(const dmml::ml::GlmModel& a, const dmml::ml::GlmModel& b) {
  if (a.weights.rows() != b.weights.rows() ||
      a.weights.cols() != b.weights.cols()) {
    return INFINITY;
  }
  double d = std::fabs(a.intercept - b.intercept);
  for (size_t i = 0; i < a.weights.rows(); ++i) {
    d = std::max(d, std::fabs(a.weights.At(i, 0) - b.weights.At(i, 0)));
  }
  return std::isfinite(d) ? d : INFINITY;
}

/// Per-repr sum of node self time (ms) from a PlanProfile's EXPLAIN ANALYZE
/// JSON — the public read side of the profile. Input leaves are excluded.
std::map<std::string, double> KernelMsByRepr(const std::string& json) {
  std::map<std::string, double> out;
  const std::string op_key = "\"op\":\"";
  size_t pos = 0;
  while ((pos = json.find(op_key, pos)) != std::string::npos) {
    pos += op_key.size();
    const std::string op = json.substr(pos, json.find('"', pos) - pos);
    const size_t next = json.find(op_key, pos);
    const size_t actual = json.find("\"actual\":{", pos);
    if (op == "input" || actual == std::string::npos || actual > next) continue;
    const size_t self = json.find("\"self_us\":", actual);
    const size_t disp = json.find("\"dispatch\":\"", actual);
    if (self == std::string::npos || disp == std::string::npos) continue;
    const double us = std::strtod(json.c_str() + self + 10, nullptr);
    const size_t d0 = disp + 12;
    out[json.substr(d0, json.find('"', d0) - d0)] += us / 1e3;
  }
  return out;
}

/// obs registry counter -> per-layer metric name (per-op delta).
const CounterDeltas::Names& TracedCounters() {
  static const CounterDeltas::Names names = {
      {"relational.join.rows_probed", "relational.join_rows_probed"},
      {"la.inplace.allocs", "la.inplace_allocs"},
      {"cla.decompress_fallback", "cla.decompress_fallback"},
      {"laopt.repr.densify_fallbacks", "laopt.repr.densify_fallbacks"}};
  return names;
}

class StarWorkload : public Workload {
 public:
  StarWorkload(StarSpec spec, uint64_t seed) : spec_(spec), seed_(seed) {
    config_.family = dmml::ml::GlmFamily::kGaussian;
    config_.learning_rate = 0.01;
    config_.max_epochs = kEpochs;
    config_.tolerance = 0;  // Always run every epoch.
    for (size_t j = 0; j < spec_.ds; ++j) numeric_.push_back("xs" + std::to_string(j));
    for (size_t j = 0; j < spec_.dr; ++j) numeric_.push_back("xr" + std::to_string(j));
    if (spec_.categories > 0) categorical_.push_back("category");
  }

  Status Setup(ThreadPool* pool) override;
  Status Prepare(ThreadPool* pool, ThreadPool* pool1) override;
  bool RunOp(ThreadPool* pool) override;
  double CellEpochsPerOp() const override { return cells_; }
  void TraceIteration(ThreadPool* pool, ThreadPool* pool1, SpanRecorder* rec,
                      uint64_t* op_id, Samples* samples,
                      RunResult* result) override;

 private:
  dmml::pipeline::Pipeline MakePipeline(Route route) const;
  bool CheckFit(const Result<dmml::pipeline::GlmFit>& fit, Route route,
                const ThreadPool* pool) const;
  /// Whether `model`, fitted on `pool`, matches the reference.
  bool Matches(const dmml::ml::GlmModel& model, const ThreadPool* pool) const;
  bool CheckModel(const Result<dmml::ml::GlmModel>& model,
                  const ThreadPool* pool) const {
    return model.ok() && Matches(*model, pool);
  }
  /// The fit of `route`, stage by stage, with a span around each layer call.
  Result<dmml::ml::GlmModel> StagedFit(Route route, ThreadPool* pool,
                                       StageContext* ctx,
                                       dmml::laopt::PlanProfile* profile) const;
  Result<dmml::laopt::Operand> FactorizedOperand(const dmml::storage::Table& entity,
                                                 StageContext* ctx,
                                                 dmml::la::DenseMatrix* y) const;

  StarSpec spec_;
  uint64_t seed_;
  dmml::ml::GlmConfig config_;
  std::vector<std::string> numeric_;
  std::vector<std::string> categorical_;
  std::unique_ptr<dmml::storage::Catalog> catalog_;
  dmml::ml::GlmModel reference_;
  /// Bit-exact oracles only: the reference at one thread, since the sparse
  /// kernels partition their reductions by pool size.
  dmml::ml::GlmModel reference1_;
  double cells_ = 0;
};

Status StarWorkload::Setup(ThreadPool* /*pool*/) {
  using dmml::storage::DataType;
  using dmml::storage::Field;
  using dmml::storage::Schema;
  using dmml::storage::Table;
  using dmml::storage::Value;
  dmml::Rng rng(seed_);
  std::vector<double> ws(spec_.ds), wr(spec_.dr), wc(spec_.categories);
  for (double& w : ws) w = rng.Normal(0, 1.5);
  for (double& w : wr) w = rng.Normal(0, 1.5);
  for (double& w : wc) w = rng.Normal(0, 1.5);

  std::vector<Field> pf = {{"rid", DataType::kInt64, false}};
  for (size_t j = 0; j < spec_.dr; ++j) {
    pf.push_back({"xr" + std::to_string(j), DataType::kDouble, false});
  }
  if (spec_.categories > 0) pf.push_back({"category", DataType::kString, false});
  DMML_ASSIGN_OR_RETURN(Schema pschema, Schema::Make(std::move(pf)));
  Table products(std::move(pschema));
  std::vector<double> product_score(spec_.nr, 0.0);
  std::vector<Value> row;
  for (size_t i = 0; i < spec_.nr; ++i) {
    row.clear();
    row.emplace_back(static_cast<int64_t>(i));
    for (size_t j = 0; j < spec_.dr; ++j) {
      const double v = rng.Normal();
      product_score[i] += v * wr[j];
      row.emplace_back(v);
    }
    if (spec_.categories > 0) {
      // Every category appears at least once, then uniform.
      const size_t c = i < spec_.categories ? i : rng.UniformInt(spec_.categories);
      product_score[i] += wc[c];
      row.emplace_back("c" + std::to_string(c));
    }
    DMML_RETURN_IF_ERROR(products.AppendRow(row));
  }

  std::vector<Field> of = {{"sid", DataType::kInt64, false},
                           {"fk", DataType::kInt64, false},
                           {"y", DataType::kDouble, false}};
  for (size_t j = 0; j < spec_.ds; ++j) {
    of.push_back({"xs" + std::to_string(j), DataType::kDouble, false});
  }
  DMML_ASSIGN_OR_RETURN(Schema oschema, Schema::Make(std::move(of)));
  Table orders(std::move(oschema));
  std::vector<double> xs(spec_.ds);
  for (size_t i = 0; i < spec_.ns; ++i) {
    // Every product is referenced once, then uniform foreign keys.
    const size_t fk = i < spec_.nr ? i : rng.UniformInt(spec_.nr);
    double y = product_score[fk] + rng.Normal(0, 0.1);
    for (size_t j = 0; j < spec_.ds; ++j) {
      xs[j] = rng.Normal();
      y += xs[j] * ws[j];
    }
    row.clear();
    row.emplace_back(static_cast<int64_t>(i));
    row.emplace_back(static_cast<int64_t>(fk));
    row.emplace_back(y);
    for (double v : xs) row.emplace_back(v);
    DMML_RETURN_IF_ERROR(orders.AppendRow(row));
  }

  catalog_ = std::make_unique<dmml::storage::Catalog>();
  catalog_->PutTable("orders", std::move(orders));
  catalog_->PutTable("products", std::move(products));
  return Status::OK();
}

dmml::pipeline::Pipeline StarWorkload::MakePipeline(Route route) const {
  dmml::pipeline::PipelineOptions options;
  options.route = route;
  dmml::pipeline::Pipeline p =
      dmml::pipeline::Pipeline::From(catalog_.get(), "orders");
  p.Filter(dmml::relational::Compare("xs0", dmml::relational::CompareOp::kGt,
                                     kFilterCut))
      .Join("products", "fk", "rid")
      .Features(numeric_)
      .Label("y")
      .WithOptions(options);
  if (!categorical_.empty()) p.CategoricalFeatures(categorical_);
  return p;
}

bool StarWorkload::Matches(const dmml::ml::GlmModel& model,
                           const ThreadPool* pool) const {
  const dmml::ml::GlmModel& ref =
      spec_.weight_tol == 0 && pool->num_threads() == 1 ? reference1_
                                                         : reference_;
  return model.epochs_run == kEpochs &&
         ModelDistance(model, ref) <= spec_.weight_tol;
}

bool StarWorkload::CheckFit(const Result<dmml::pipeline::GlmFit>& fit,
                            Route route, const ThreadPool* pool) const {
  if (!fit.ok() || fit->report.chosen_route != route) return false;
  const Binding binding = route == spec_.expect_route ? spec_.expect_binding
                                                      : Binding::kDense;
  if (fit->report.chosen_binding != binding) return false;
  return Matches(fit->model, pool);
}

Status StarWorkload::Prepare(ThreadPool* pool, ThreadPool* pool1) {
  // Reference: the forced other route where one is eligible, else the
  // staged ExecutePlan -> AssembleFeaturesCsr -> TrainGlmOnOperand path.
  if (spec_.expect_route == Route::kFactorized) {
    DMML_ASSIGN_OR_RETURN(dmml::pipeline::GlmFit ref,
                          MakePipeline(Route::kMaterialize).TrainGlm(config_, pool));
    reference_ = std::move(ref.model);
  } else {
    StageContext plain;
    DMML_ASSIGN_OR_RETURN(reference_, StagedFit(Route::kMaterialize, pool,
                                                &plain, nullptr));
    DMML_ASSIGN_OR_RETURN(reference1_, StagedFit(Route::kMaterialize, pool1,
                                                 &plain, nullptr));
  }
  DMML_ASSIGN_OR_RETURN(dmml::pipeline::GlmFit fit,
                        MakePipeline(Route::kAuto).TrainGlm(config_, pool));
  if (fit.report.chosen_route != spec_.expect_route) {
    return Status::Internal(std::string("chooser picked ") +
                            dmml::pipeline::RouteName(fit.report.chosen_route) +
                            ", expected " +
                            dmml::pipeline::RouteName(spec_.expect_route));
  }
  cells_ = static_cast<double>(fit.report.actual_rows) *
           static_cast<double>(fit.report.feature_cols) *
           static_cast<double>(kEpochs);
  return Status::OK();
}

bool StarWorkload::RunOp(ThreadPool* pool) {
  return CheckFit(MakePipeline(Route::kAuto).TrainGlm(config_, pool),
                  spec_.expect_route, pool);
}

Result<dmml::laopt::Operand> StarWorkload::FactorizedOperand(
    const dmml::storage::Table& entity, StageContext* ctx,
    dmml::la::DenseMatrix* y) const {
  DMML_ASSIGN_OR_RETURN(std::shared_ptr<const dmml::storage::Table> products,
                        catalog_->GetTable("products"));
  std::vector<std::string> fact_cols(numeric_.begin(),
                                     numeric_.begin() + spec_.ds);
  std::vector<std::string> dim_cols(numeric_.begin() + spec_.ds, numeric_.end());
  dmml::factorized::AttributeTable dim;
  {
    ScopedStage s(ctx, "factorized.build");  // pk -> row key map, fk vector
    DMML_ASSIGN_OR_RETURN(const dmml::storage::Column* rid,
                          products->ColumnByName("rid"));
    DMML_ASSIGN_OR_RETURN(const dmml::storage::Column* fk,
                          entity.ColumnByName("fk"));
    std::unordered_map<int64_t, uint32_t> keymap;
    keymap.reserve(products->num_rows());
    for (size_t i = 0; i < products->num_rows(); ++i) {
      keymap.emplace(rid->GetInt64(i), static_cast<uint32_t>(i));
    }
    dim.fk.resize(entity.num_rows());
    for (size_t i = 0; i < entity.num_rows(); ++i) {
      auto it = keymap.find(fk->GetInt64(i));
      // Generated foreign keys always match, so the join keeps every row.
      if (it == keymap.end()) return Status::Internal("dangling foreign key");
      dim.fk[i] = it->second;
    }
  }
  dmml::la::DenseMatrix xs;
  {
    ScopedStage s(ctx, "ml.assemble");
    DMML_ASSIGN_OR_RETURN(xs, entity.ToMatrix(fact_cols));
    DMML_ASSIGN_OR_RETURN(dim.features, products->ToMatrix(dim_cols));
    DMML_ASSIGN_OR_RETURN(*y, entity.ColumnToVector("y"));
  }
  ScopedStage s(ctx, "factorized.build");
  std::vector<dmml::factorized::AttributeTable> tables;
  tables.push_back(std::move(dim));
  DMML_ASSIGN_OR_RETURN(
      dmml::factorized::NormalizedMatrix nm,
      dmml::factorized::NormalizedMatrix::Make(std::move(xs), std::move(tables)));
  return dmml::factorized::MakeFactorizedOperand(std::move(nm));
}

Result<dmml::ml::GlmModel> StarWorkload::StagedFit(
    Route route, ThreadPool* pool, StageContext* ctx,
    dmml::laopt::PlanProfile* profile) const {
  using dmml::relational::ExecutePlan;
  const dmml::pipeline::Pipeline p = MakePipeline(route);
  const dmml::relational::LogicalNode& plan = *p.plan();
  dmml::relational::StatisticsCache stats(catalog_.get());
  {
    ScopedStage s(ctx, "relational.stats");
    DMML_RETURN_IF_ERROR(
        dmml::relational::EstimateCardinality(plan, &stats).status());
  }
  dmml::laopt::Operand x;
  dmml::la::DenseMatrix y;
  if (route == Route::kFactorized) {
    dmml::storage::Table entity{dmml::storage::Schema{}};
    {
      ScopedStage s(ctx, "relational.exec");  // scan + filter, no join
      DMML_ASSIGN_OR_RETURN(entity, ExecutePlan(*plan.input(0), *catalog_, &stats));
    }
    DMML_ASSIGN_OR_RETURN(x, FactorizedOperand(entity, ctx, &y));
  } else {
    dmml::storage::Table joined{dmml::storage::Schema{}};
    {
      ScopedStage s(ctx, "relational.exec");
      DMML_ASSIGN_OR_RETURN(joined, ExecutePlan(plan, *catalog_, &stats));
    }
    ScopedStage s(ctx, "ml.assemble");
    if (categorical_.empty()) {
      DMML_ASSIGN_OR_RETURN(dmml::la::DenseMatrix m, joined.ToMatrix(numeric_));
      x = dmml::laopt::Operand(
          std::make_shared<const dmml::la::DenseMatrix>(std::move(m)));
    } else {
      DMML_ASSIGN_OR_RETURN(
          dmml::ml::AssembledFeatures a,
          dmml::ml::AssembleFeaturesCsr(joined, numeric_, categorical_));
      x = dmml::laopt::Operand(
          std::make_shared<const dmml::la::SparseMatrix>(std::move(a.matrix)));
    }
    DMML_ASSIGN_OR_RETURN(y, joined.ColumnToVector("y"));
  }
  ScopedStage s(ctx, "ml.train");
  return dmml::ml::TrainGlmOnOperand(x, y, config_, pool, profile);
}

void StarWorkload::TraceIteration(ThreadPool* pool, ThreadPool* pool1,
                                  SpanRecorder* rec, uint64_t* op_id,
                                  Samples* samples, RunResult* result) {
  const Route chosen = spec_.expect_route;

  // The end-to-end fit, untraced, in this process: the base of glue_ms.
  const uint64_t faults0 = MinorFaults();
  double t0 = NowUs();
  result->Check(
      CheckFit(MakePipeline(Route::kAuto).TrainGlm(config_, pool), chosen, pool));
  const double fit_ms = (NowUs() - t0) / 1e3;
  samples->Add("pipeline.fit_ms", fit_ms);
  samples->Add("proc.minflt_per_op",
               static_cast<double>(MinorFaults() - faults0));

  // The same fit stage by stage, traced, at nproc threads.
  const CounterDeltas counters(TracedCounters());
  dmml::laopt::PlanProfile profile;
  StageContext ctx{rec, ++*op_id, -1, {}};
  ctx.parent = rec->Begin("op", ctx.op, -1);
  result->Check(CheckModel(StagedFit(chosen, pool, &ctx, &profile), pool));
  samples->Add("op.traced_ms", rec->End(ctx.parent));
  for (const auto& [name, ms] : ctx.layer_ms) samples->Add(name + "_ms", ms);
  const std::map<std::string, double> kernels =
      KernelMsByRepr(profile.ExplainAnalyzeJson());
  double kernel_ms = 0;
  for (const auto& [repr, ms] : kernels) kernel_ms += ms;
  auto repr_ms = [&](const char* repr) {
    auto it = kernels.find(repr);
    return it == kernels.end() ? 0.0 : it->second;
  };
  samples->Add("laopt.kernel_ms", kernel_ms);
  samples->Add("la.sparse_ms", repr_ms("sparse"));
  samples->Add("factorized.kernel_ms", repr_ms("factorized"));
  samples->Add("laopt.run_overhead_ms", ctx.layer_ms["ml.train"] - kernel_ms);
  samples->Add("laopt.runs", static_cast<double>(profile.runs()));
  counters.AddTo(samples);

  // Untraced staged fit: the base of the tracing overhead.
  StageContext plain;
  t0 = NowUs();
  result->Check(CheckModel(StagedFit(chosen, pool, &plain, nullptr), pool));
  samples->Add("op.plain_ms", (NowUs() - t0) / 1e3);

  // The forced other route, when eligible: the base of route_regret.
  if (spec_.expect_route == Route::kFactorized) {
    t0 = NowUs();
    result->Check(CheckFit(
        MakePipeline(Route::kMaterialize).TrainGlm(config_, pool),
        Route::kMaterialize, pool));
    samples->Add("pipeline.other_route_ms", (NowUs() - t0) / 1e3);

    // The dense kernels run only on the forced materialized route.
    dmml::laopt::PlanProfile dense_profile;
    StageContext dense{rec, ++*op_id, -1, {}};
    dense.parent = rec->Begin("op.materialized", dense.op, -1);
    result->Check(CheckModel(
        StagedFit(Route::kMaterialize, pool, &dense, &dense_profile), pool));
    rec->End(dense.parent);
    samples->Add("la.dense_ms",
                 KernelMsByRepr(dense_profile.ExplainAnalyzeJson())["dense"]);
  }

  // One thread: the numerators of the *.scaling ratios.
  StageContext ctx1{rec, ++*op_id, -1, {}};
  ctx1.parent = rec->Begin("op.1thread", ctx1.op, -1);
  result->Check(CheckModel(StagedFit(chosen, pool1, &ctx1, nullptr), pool1));
  rec->End(ctx1.parent);
  samples->Add("relational.stats_ms.1thread", ctx1.layer_ms["relational.stats"]);
  samples->Add("ml.train_ms.1thread", ctx1.layer_ms["ml.train"]);
}

}  // namespace

std::unique_ptr<Workload> MakeStarWorkload(const std::string& name,
                                           uint64_t seed, bool smoke) {
  StarSpec spec;
  if (!SpecFor(name, smoke, &spec)) return nullptr;
  return std::make_unique<StarWorkload>(spec, seed);
}

}  // namespace perfbench
