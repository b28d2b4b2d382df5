/// \file operators.h
/// \brief Materializing relational operators over storage::Table.
///
/// These implement the MADlib-style substrate: feature extraction queries
/// (select / project / PK–FK join / group-by) producing the tables that the
/// ML layer converts into matrices.
#ifndef DMML_RELATIONAL_OPERATORS_H_
#define DMML_RELATIONAL_OPERATORS_H_

#include <string>
#include <vector>

#include "relational/predicate.h"
#include "storage/table.h"
#include "util/result.h"

namespace dmml::relational {

/// \brief Rows of `input` satisfying `pred`.
Result<storage::Table> Filter(const storage::Table& input, const PredicatePtr& pred);

/// \brief Keeps only the named columns, in the given order.
Result<storage::Table> Project(const storage::Table& input,
                               const std::vector<std::string>& columns);

/// Join flavor.
enum class JoinType {
  kInner,
  kLeftOuter,  ///< Unmatched left rows padded with NULLs.
};

/// \brief Options for HashJoin.
struct JoinOptions {
  JoinType type = JoinType::kInner;
  /// Prefix applied to right-side columns whose names clash with the left.
  std::string clash_prefix = "r_";
};

/// \brief Equi-join on one key column per side (hash join, build on right).
///
/// Key columns may be kInt64 or kString. NULL keys never match.
Result<storage::Table> HashJoin(const storage::Table& left,
                                const storage::Table& right,
                                const std::string& left_key,
                                const std::string& right_key,
                                const JoinOptions& options = {});

/// \brief The join output whose row k is left row `left_rows[k]` followed by
/// right row `right_rows[k]` (storage::Column::kNullRow: NULL padding), one
/// typed gather per column. The schema is the left schema concatenated with
/// the right one under `options` (clash prefix; right fields nullable for
/// kLeftOuter). Every join algorithm emits its matches through this.
Result<storage::Table> GatherJoinRows(const storage::Table& left,
                                      const storage::Table& right,
                                      const std::vector<size_t>& left_rows,
                                      const std::vector<size_t>& right_rows,
                                      const JoinOptions& options);

/// Aggregate function of one group-by output.
enum class AggFunc { kCount, kSum, kAvg, kMin, kMax };

/// \brief One aggregate specification: func(column) AS name.
struct AggSpec {
  AggFunc func;
  std::string column;  ///< Ignored for kCount (may be empty).
  std::string output_name;
};

/// \brief Hash group-by over the named key columns with the given aggregates.
///
/// Numeric aggregates require numeric input columns; NULLs are skipped
/// (COUNT counts all rows in the group regardless).
Result<storage::Table> GroupBy(const storage::Table& input,
                               const std::vector<std::string>& keys,
                               const std::vector<AggSpec>& aggs);

/// \brief Stable sort by one column, ascending (NULLs first).
Result<storage::Table> OrderBy(const storage::Table& input, const std::string& column,
                               bool ascending = true);

/// \brief Concatenates tables with identical schemas.
Result<storage::Table> Union(const storage::Table& a, const storage::Table& b);

/// \brief Returns the first `n` rows.
storage::Table Limit(const storage::Table& input, size_t n);

}  // namespace dmml::relational

#endif  // DMML_RELATIONAL_OPERATORS_H_
