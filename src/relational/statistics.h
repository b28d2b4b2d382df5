/// \file statistics.h
/// \brief Table/column statistics and cardinality estimation — the classic
/// DB-optimizer substrate, here feeding feature-query planning.
#ifndef DMML_RELATIONAL_STATISTICS_H_
#define DMML_RELATIONAL_STATISTICS_H_

#include <optional>
#include <string>
#include <vector>

#include "relational/predicate.h"
#include "storage/table.h"
#include "util/result.h"

namespace dmml::relational {

/// \brief Statistics for one column.
///
/// Numeric columns (int64 and bool read as doubles) keep non-finite values
/// out of min/max and the histogram; they count only towards
/// distinct_count, where all NaNs together are one value and +inf and -inf
/// one each. -0.0 and +0.0 are one value.
struct ColumnStatistics {
  std::string name;
  size_t num_rows = 0;
  size_t null_count = 0;
  size_t distinct_count = 0;          ///< Exact, over the non-NULL values.
  std::optional<double> min_value;    ///< Finite numeric values only.
  std::optional<double> max_value;
  /// Equi-width histogram of the finite values over [min, max] (empty for
  /// strings and for columns with no finite value).
  std::vector<size_t> histogram;
};

/// \brief Statistics for a whole table.
struct TableStatistics {
  size_t num_rows = 0;
  std::vector<ColumnStatistics> columns;

  /// \brief Stats of the named column, if collected.
  const ColumnStatistics* Find(const std::string& name) const;
};

/// \brief Collects exact statistics of one column named `name`, reading its
/// typed buffer directly. `histogram_buckets` (>= 1) sets the numeric
/// histogram resolution. Bumps the `relational.stats.columns_collected`
/// counter and observes `relational.stats.collect_us`.
Result<ColumnStatistics> CollectColumnStatistics(const storage::Column& column,
                                                 std::string name,
                                                 size_t histogram_buckets = 16);

/// \brief CollectColumnStatistics over every column of `table`.
Result<TableStatistics> CollectStatistics(const storage::Table& table,
                                          size_t histogram_buckets = 16);

/// \brief Estimated selectivity (fraction of rows kept) of `column op value`
/// using the collected statistics:
///   * equality: 1 / distinct_count
///   * ranges: histogram mass of the qualifying interval
///   * NULLs never qualify: results are scaled by (1 - null fraction)
Result<double> EstimateSelectivity(const TableStatistics& stats,
                                   const std::string& column, CompareOp op,
                                   double value);

/// \brief Estimated output cardinality of an equi-join between two columns
/// using the standard |R| * |S| / max(ndv(R.a), ndv(S.b)) formula.
Result<double> EstimateJoinCardinality(const TableStatistics& left,
                                       const std::string& left_column,
                                       const TableStatistics& right,
                                       const std::string& right_column);

}  // namespace dmml::relational

#endif  // DMML_RELATIONAL_STATISTICS_H_
