#include "relational/logical_plan.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "obs/metrics.h"

namespace dmml::relational {

using storage::Schema;
using storage::Table;

LogicalPlan LogicalNode::Scan(std::string table) {
  auto n = std::shared_ptr<LogicalNode>(new LogicalNode());
  n->op_ = LogicalOp::kScan;
  n->table_ = std::move(table);
  return n;
}

LogicalPlan LogicalNode::Filter(LogicalPlan input, PredicatePtr pred) {
  auto n = std::shared_ptr<LogicalNode>(new LogicalNode());
  n->op_ = LogicalOp::kFilter;
  n->inputs_ = {std::move(input)};
  n->predicate_ = std::move(pred);
  return n;
}

LogicalPlan LogicalNode::Project(LogicalPlan input,
                                 std::vector<std::string> columns) {
  auto n = std::shared_ptr<LogicalNode>(new LogicalNode());
  n->op_ = LogicalOp::kProject;
  n->inputs_ = {std::move(input)};
  n->columns_ = std::move(columns);
  return n;
}

LogicalPlan LogicalNode::Join(LogicalPlan left, LogicalPlan right,
                              std::string left_key, std::string right_key,
                              JoinOptions options) {
  auto n = std::shared_ptr<LogicalNode>(new LogicalNode());
  n->op_ = LogicalOp::kJoin;
  n->inputs_ = {std::move(left), std::move(right)};
  n->left_key_ = std::move(left_key);
  n->right_key_ = std::move(right_key);
  n->join_options_ = options;
  return n;
}

namespace {

// Name of the base table a filter/project chain sits on, for messages.
std::string BaseName(const LogicalNode& n) {
  const LogicalNode* cur = &n;
  while (cur->op() != LogicalOp::kScan) {
    if (cur->op() == LogicalOp::kJoin) return "join";
    cur = cur->input(0).get();
  }
  return cur->table();
}

}  // namespace

std::string LogicalNode::Describe() const {
  switch (op_) {
    case LogicalOp::kScan:
      return "Scan(" + table_ + ")";
    case LogicalOp::kFilter:
      return "Filter(" + BaseName(*this) + ")";
    case LogicalOp::kProject:
      return "Project(" + std::to_string(columns_.size()) + " cols)";
    case LogicalOp::kJoin:
      return "Join(" + BaseName(*input(0)) + "." + left_key_ + " = " +
             BaseName(*input(1)) + "." + right_key_ + ")";
  }
  return "?";
}

Result<const TableStatistics*> StatisticsCache::Get(
    const std::string& table, const std::vector<std::string>& columns) {
  DMML_ASSIGN_OR_RETURN(std::shared_ptr<const Table> t,
                        catalog_->GetTable(table));
  TableStatistics& stats = cache_[table];
  stats.num_rows = t->num_rows();
  for (const std::string& name : columns) {
    if (stats.Find(name) != nullptr) continue;
    const std::optional<size_t> idx = t->schema().FieldIndex(name);
    if (!idx.has_value()) continue;
    DMML_ASSIGN_OR_RETURN(ColumnStatistics cs,
                          CollectColumnStatistics(t->column(*idx), name));
    stats.columns.push_back(std::move(cs));
  }
  return &stats;
}

namespace {

Status StageError(const LogicalNode& node, const Status& cause) {
  return Status(cause.code(),
                "pipeline stage " + node.Describe() + ": " + cause.message());
}

}  // namespace

Result<Schema> OutputSchema(const LogicalNode& plan,
                            const storage::Catalog& catalog) {
  switch (plan.op()) {
    case LogicalOp::kScan: {
      Result<std::shared_ptr<const Table>> t = catalog.GetTable(plan.table());
      if (!t.ok()) return StageError(plan, t.status());
      return std::move(t).ValueOrDie()->schema();
    }
    case LogicalOp::kFilter: {
      DMML_ASSIGN_OR_RETURN(Schema in, OutputSchema(*plan.input(0), catalog));
      Status s = plan.predicate()->Validate(in);
      if (!s.ok()) return StageError(plan, s);
      return in;
    }
    case LogicalOp::kProject: {
      DMML_ASSIGN_OR_RETURN(Schema in, OutputSchema(*plan.input(0), catalog));
      std::vector<storage::Field> fields;
      fields.reserve(plan.columns().size());
      for (const std::string& c : plan.columns()) {
        Result<size_t> idx = in.RequireField(c);
        if (!idx.ok()) return StageError(plan, idx.status());
        fields.push_back(in.field(idx.ValueOrDie()));
      }
      return Schema(std::move(fields));
    }
    case LogicalOp::kJoin: {
      DMML_ASSIGN_OR_RETURN(Schema l, OutputSchema(*plan.input(0), catalog));
      DMML_ASSIGN_OR_RETURN(Schema r, OutputSchema(*plan.input(1), catalog));
      Result<size_t> lk = l.RequireField(plan.left_key());
      if (!lk.ok()) return StageError(plan, lk.status());
      Result<size_t> rk = r.RequireField(plan.right_key());
      if (!rk.ok()) return StageError(plan, rk.status());
      if (l.field(lk.ValueOrDie()).type != r.field(rk.ValueOrDie()).type) {
        return StageError(plan,
                          Status::InvalidArgument(
                              "join key type mismatch: " + plan.left_key() +
                              " vs " + plan.right_key()));
      }
      // Mirror HashJoin's output schema (left-outer makes right nullable).
      if (plan.join_options().type == JoinType::kLeftOuter) {
        std::vector<storage::Field> fields = r.fields();
        for (auto& f : fields) f.nullable = true;
        r = Schema(std::move(fields));
      }
      return l.Concat(r, plan.join_options().clash_prefix);
    }
  }
  return Status::Internal("unreachable logical op");
}

namespace {

// Cardinality estimate plus the nearest base table under the node (carried
// through filters/projects; lost above joins), whose column statistics serve
// filter selectivity and join-key ndv lookups.
struct CardInfo {
  double rows = 0;
  const std::string* base = nullptr;  ///< Catalog name, owned by the Scan node.
};

// ndv of `column` on the base table, or 0 when unknown.
Result<double> KeyNdv(const CardInfo& side, const std::string& column,
                      StatisticsCache* stats) {
  if (side.base == nullptr) return 0.0;
  DMML_ASSIGN_OR_RETURN(const TableStatistics* s,
                        stats->Get(*side.base, {column}));
  const ColumnStatistics* c = s->Find(column);
  return c != nullptr ? static_cast<double>(c->distinct_count) : 0.0;
}

Result<CardInfo> EstimateNode(const LogicalNode& n, StatisticsCache* stats) {
  switch (n.op()) {
    case LogicalOp::kScan: {
      DMML_ASSIGN_OR_RETURN(const TableStatistics* s, stats->Get(n.table(), {}));
      return CardInfo{static_cast<double>(s->num_rows), &n.table()};
    }
    case LogicalOp::kFilter: {
      DMML_ASSIGN_OR_RETURN(CardInfo c, EstimateNode(*n.input(0), stats));
      double sel = kDefaultSelectivity;
      if (c.base != nullptr) {
        std::vector<std::string> columns;
        n.predicate()->ReferencedColumns(&columns);
        DMML_ASSIGN_OR_RETURN(const TableStatistics* s,
                              stats->Get(*c.base, columns));
        sel = n.predicate()->EstimateSelectivity(*s);
      }
      c.rows *= sel;
      return c;
    }
    case LogicalOp::kProject:
      return EstimateNode(*n.input(0), stats);
    case LogicalOp::kJoin: {
      DMML_ASSIGN_OR_RETURN(CardInfo l, EstimateNode(*n.input(0), stats));
      DMML_ASSIGN_OR_RETURN(CardInfo r, EstimateNode(*n.input(1), stats));
      DMML_ASSIGN_OR_RETURN(double lndv, KeyNdv(l, n.left_key(), stats));
      DMML_ASSIGN_OR_RETURN(double rndv, KeyNdv(r, n.right_key(), stats));
      double ndv = std::max(lndv, rndv);
      // No key statistics (key produced by a join): assume the key is unique
      // on the larger side, the PK-FK default.
      if (ndv <= 0) ndv = std::max(l.rows, r.rows);
      double rows = l.rows * r.rows / std::max(ndv, 1.0);
      if (n.join_options().type == JoinType::kLeftOuter) {
        rows = std::max(rows, l.rows);
      }
      return CardInfo{rows, nullptr};
    }
  }
  return Status::Internal("unreachable logical op");
}

}  // namespace

Result<double> EstimateCardinality(const LogicalNode& plan,
                                   StatisticsCache* stats) {
  DMML_ASSIGN_OR_RETURN(CardInfo c, EstimateNode(plan, stats));
  return c.rows;
}

double OperatorObservation::MisestimatePct() const {
  const double actual = std::max<double>(static_cast<double>(actual_rows), 1.0);
  return std::abs(estimated_rows - static_cast<double>(actual_rows)) / actual *
         100.0;
}

namespace {

void RecordObservation(const LogicalNode& node, double estimated, size_t actual,
                       std::vector<OperatorObservation>* observations) {
  OperatorObservation obs{node.Describe(), estimated, actual};
  // Scans/projects estimate exactly by construction; only the operators whose
  // estimates can be wrong (selectivity, join formula) feed the counters.
  if (node.op() == LogicalOp::kFilter || node.op() == LogicalOp::kJoin) {
    DMML_COUNTER_ADD("relational.stats.estimated_rows",
                     static_cast<uint64_t>(std::llround(
                         std::max(0.0, obs.estimated_rows))));
    DMML_COUNTER_ADD("relational.stats.actual_rows",
                     static_cast<uint64_t>(actual));
    DMML_HISTOGRAM_OBSERVE("relational.stats.misestimate_pct",
                           obs::ExponentialBuckets(1, 4, 8),
                           obs.MisestimatePct());
  }
  if (observations != nullptr) observations->push_back(std::move(obs));
}

// One executed operator's output: a Scan lends the catalog's table (never
// copied); every other operator owns the table it built.
struct NodeOutput {
  std::shared_ptr<const Table> scanned;
  std::optional<Table> owned;

  const Table& table() const { return owned.has_value() ? *owned : *scanned; }
};

Result<NodeOutput> ExecuteNode(const LogicalNode& plan,
                               const storage::Catalog& catalog,
                               StatisticsCache* stats,
                               std::vector<OperatorObservation>* observations) {
  NodeOutput out;
  Result<Table> built = Status::Internal("unreachable logical op");
  double estimated = 0.0;
  switch (plan.op()) {
    case LogicalOp::kScan: {
      Result<std::shared_ptr<const Table>> t = catalog.GetTable(plan.table());
      if (!t.ok()) return StageError(plan, t.status());
      out.scanned = std::move(t).ValueOrDie();
      const size_t rows = out.scanned->num_rows();
      RecordObservation(plan, static_cast<double>(rows), rows, observations);
      return out;
    }
    case LogicalOp::kFilter: {
      DMML_ASSIGN_OR_RETURN(
          NodeOutput in, ExecuteNode(*plan.input(0), catalog, stats, observations));
      Result<CardInfo> est = EstimateNode(plan, stats);
      estimated = est.ok() ? est.ValueOrDie().rows : 0.0;
      built = relational::Filter(in.table(), plan.predicate());
      break;
    }
    case LogicalOp::kProject: {
      DMML_ASSIGN_OR_RETURN(
          NodeOutput in, ExecuteNode(*plan.input(0), catalog, stats, observations));
      estimated = static_cast<double>(in.table().num_rows());
      built = relational::Project(in.table(), plan.columns());
      break;
    }
    case LogicalOp::kJoin: {
      DMML_ASSIGN_OR_RETURN(
          NodeOutput l, ExecuteNode(*plan.input(0), catalog, stats, observations));
      DMML_ASSIGN_OR_RETURN(
          NodeOutput r, ExecuteNode(*plan.input(1), catalog, stats, observations));
      Result<CardInfo> est = EstimateNode(plan, stats);
      estimated = est.ok() ? est.ValueOrDie().rows : 0.0;
      built = relational::HashJoin(l.table(), r.table(), plan.left_key(),
                                   plan.right_key(), plan.join_options());
      break;
    }
  }
  if (!built.ok()) return StageError(plan, built.status());
  out.owned = std::move(built).ValueOrDie();
  RecordObservation(plan, estimated, out.owned->num_rows(), observations);
  return out;
}

}  // namespace

Result<Table> ExecutePlan(const LogicalNode& plan,
                          const storage::Catalog& catalog,
                          StatisticsCache* stats,
                          std::vector<OperatorObservation>* observations) {
  // Fail with a stage-named error before running anything.
  DMML_RETURN_IF_ERROR(OutputSchema(plan, catalog).status());
  StatisticsCache local(&catalog);
  DMML_ASSIGN_OR_RETURN(NodeOutput out,
                        ExecuteNode(plan, catalog,
                                    stats != nullptr ? stats : &local,
                                    observations));
  if (out.owned.has_value()) return std::move(*out.owned);
  return *out.scanned;  // A bare Scan: the caller gets its own copy.
}

}  // namespace dmml::relational
