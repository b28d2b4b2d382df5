/// \file predicate.h
/// \brief Row predicates for the Filter operator.
#ifndef DMML_RELATIONAL_PREDICATE_H_
#define DMML_RELATIONAL_PREDICATE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/table.h"
#include "util/result.h"

namespace dmml::relational {

struct TableStatistics;

/// Comparison operator of a leaf predicate.
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

/// Selectivity assumed when statistics cannot say anything sharper (the
/// System R magic constant for an arbitrary predicate).
inline constexpr double kDefaultSelectivity = 1.0 / 3.0;

/// \brief A boolean row predicate tree (leaf comparisons, AND/OR/NOT).
///
/// Predicates are evaluated column-at-a-time: Evaluate() hands back one
/// keep-flag per row of the table. Each leaf resolves its column name once
/// per call and compares that whole column in one typed loop; AND/OR/NOT
/// combine their children's flag vectors.
class Predicate {
 public:
  virtual ~Predicate() = default;

  /// \brief Sets (*keep)[i] to 1 for every row i of `table` the predicate
  /// keeps and to 0 otherwise (`keep` is resized to table.num_rows()).
  /// NULL comparisons evaluate to false (SQL-ish three-valued collapse).
  virtual Status Evaluate(const storage::Table& table,
                          std::vector<uint8_t>* keep) const = 0;

  /// \brief Checks the predicate is well-formed against `schema`.
  virtual Status Validate(const storage::Schema& schema) const = 0;

  /// \brief Appends the column names the leaves read (the columns whose
  /// statistics EstimateSelectivity consults).
  virtual void ReferencedColumns(std::vector<std::string>* columns) const = 0;

  /// \brief Estimated fraction of rows the predicate keeps, given collected
  /// statistics for the input table. Leaf comparisons use histogram/ndv
  /// estimates (relational/statistics.h); AND multiplies, OR adds with
  /// inclusion–exclusion, NOT complements — all under the textbook
  /// independence assumption. Defaults to kDefaultSelectivity when the
  /// statistics cannot say anything sharper.
  virtual double EstimateSelectivity(const TableStatistics& stats) const;
};

using PredicatePtr = std::shared_ptr<const Predicate>;

/// \brief column <op> literal.
PredicatePtr Compare(std::string column, CompareOp op, storage::Value literal);

/// \brief Conjunction.
PredicatePtr And(PredicatePtr lhs, PredicatePtr rhs);

/// \brief Disjunction.
PredicatePtr Or(PredicatePtr lhs, PredicatePtr rhs);

/// \brief Negation of the collapsed result: a row whose inner comparison met
/// a NULL (and so was false) is kept by Not.
PredicatePtr Not(PredicatePtr inner);

/// \brief column IS NULL.
PredicatePtr IsNull(std::string column);

}  // namespace dmml::relational

#endif  // DMML_RELATIONAL_PREDICATE_H_
