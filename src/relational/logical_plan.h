/// \file logical_plan.h
/// \brief Composable logical plans over the eager relational operators.
///
/// The eager operators in relational/operators.h are Table -> Table calls: by
/// the time Filter runs you already hold its input materialized, so nothing
/// upstream can be planned. LogicalNode lifts the same four feature-query
/// operators (scan / filter / project / PK-FK join) into a build-then-run
/// tree: the pipeline front-end composes a plan, costs it with
/// EstimateCardinality (statistics.h selectivity and join formulas), picks a
/// physical route, and only then calls ExecutePlan — which runs the eager
/// operators bottom-up while recording estimated vs. actual cardinality per
/// operator (the relational.stats.* counters).
#ifndef DMML_RELATIONAL_LOGICAL_PLAN_H_
#define DMML_RELATIONAL_LOGICAL_PLAN_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "relational/operators.h"
#include "relational/predicate.h"
#include "relational/statistics.h"
#include "storage/catalog.h"
#include "storage/table.h"
#include "util/result.h"

namespace dmml::relational {

class LogicalNode;
/// Plans are immutable shared trees; subplans may be reused across plans.
using LogicalPlan = std::shared_ptr<const LogicalNode>;

/// Operator kind of a logical node.
enum class LogicalOp { kScan, kFilter, kProject, kJoin };

/// \brief One node of a logical feature-query plan.
///
/// Built via the static factories; fields beyond the active operator kind are
/// empty. Leaves are catalog scans, so a plan is executable against any
/// catalog that holds the named tables.
class LogicalNode {
 public:
  /// \brief Leaf: read the named catalog table.
  static LogicalPlan Scan(std::string table);

  /// \brief Rows of `input` satisfying `pred`.
  static LogicalPlan Filter(LogicalPlan input, PredicatePtr pred);

  /// \brief Keeps only the named columns, in the given order.
  static LogicalPlan Project(LogicalPlan input, std::vector<std::string> columns);

  /// \brief Equi-join on one key column per side (lowered to HashJoin).
  static LogicalPlan Join(LogicalPlan left, LogicalPlan right,
                          std::string left_key, std::string right_key,
                          JoinOptions options = {});

  LogicalOp op() const { return op_; }
  size_t num_inputs() const { return inputs_.size(); }
  const LogicalPlan& input(size_t i) const { return inputs_[i]; }

  /// Scan only: the catalog table name.
  const std::string& table() const { return table_; }
  /// Filter only.
  const PredicatePtr& predicate() const { return predicate_; }
  /// Project only.
  const std::vector<std::string>& columns() const { return columns_; }
  /// Join only.
  const std::string& left_key() const { return left_key_; }
  const std::string& right_key() const { return right_key_; }
  const JoinOptions& join_options() const { return join_options_; }

  /// \brief One-line operator description, e.g. "Join(s.fk = r.rid)".
  std::string Describe() const;

 private:
  LogicalNode() = default;

  LogicalOp op_ = LogicalOp::kScan;
  std::vector<LogicalPlan> inputs_;
  std::string table_;
  PredicatePtr predicate_;
  std::vector<std::string> columns_;
  std::string left_key_, right_key_;
  JoinOptions join_options_;
};

/// \brief Memoizes column statistics for one planning episode, per (table,
/// column). Estimators ask only for what they read — a Filter's predicate
/// leaf columns and a Join's keys on the base table under each side — so a
/// fit collects a handful of columns, not every column of every table, and
/// the chooser and the executor share the collections instead of re-scanning
/// per estimate.
class StatisticsCache {
 public:
  explicit StatisticsCache(const storage::Catalog* catalog)
      : catalog_(catalog) {}

  /// \brief Statistics of the named catalog table holding (at least) the
  /// named columns; each (table, column) is collected on first use. Names
  /// the table lacks are skipped; num_rows is always set. The pointer stays
  /// valid for the cache's lifetime.
  Result<const TableStatistics*> Get(const std::string& table,
                                     const std::vector<std::string>& columns);

 private:
  const storage::Catalog* catalog_;
  std::map<std::string, TableStatistics> cache_;
};

/// \brief Bottom-up schema check: verifies every referenced table, column and
/// key exists before anything executes. Errors name the offending stage
/// (e.g. "Filter over Scan(orders): ...").
Result<storage::Schema> OutputSchema(const LogicalNode& plan,
                                     const storage::Catalog& catalog);

/// \brief Pre-execution cardinality estimate for the plan's output:
///   * Scan: exact row count (no column statistics)
///   * Filter: input estimate x Predicate::EstimateSelectivity over the
///     statistics of the predicate's leaf columns
///   * Project: input estimate
///   * Join: |L| * |R| / max(ndv(L.key), ndv(R.key)), ndv from the nearest
///     base table under each side; falls back to / max(|L|, |R|) when a key's
///     base statistics are unavailable (e.g. key born from a join).
Result<double> EstimateCardinality(const LogicalNode& plan,
                                   StatisticsCache* stats);

/// \brief Estimated vs. observed cardinality of one executed operator.
struct OperatorObservation {
  std::string op_name;        ///< LogicalNode::Describe() of the operator.
  double estimated_rows = 0;  ///< Pre-execution estimate.
  size_t actual_rows = 0;     ///< Rows the operator actually emitted.

  /// |estimated - actual| / max(actual, 1), in percent.
  double MisestimatePct() const;
};

/// \brief Executes the plan bottom-up with the eager operators.
///
/// Scans read the catalog's table in place; only a plan that is a bare Scan
/// copies it, to hand back its result by value.
///
/// Every Filter and Join records its pre-execution estimate against the rows
/// it actually emitted: appended to `observations` (if given) and exported as
/// the `relational.stats.estimated_rows` / `relational.stats.actual_rows`
/// counters plus the `relational.stats.misestimate_pct` histogram. Scans and
/// projects append observations but do not bump the counters (their
/// "estimates" are exact by construction).
Result<storage::Table> ExecutePlan(
    const LogicalNode& plan, const storage::Catalog& catalog,
    StatisticsCache* stats = nullptr,
    std::vector<OperatorObservation>* observations = nullptr);

}  // namespace dmml::relational

#endif  // DMML_RELATIONAL_LOGICAL_PLAN_H_
