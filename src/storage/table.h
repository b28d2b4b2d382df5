/// \file table.h
/// \brief Columnar in-memory table plus matrix bridging.
#ifndef DMML_STORAGE_TABLE_H_
#define DMML_STORAGE_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "la/dense_matrix.h"
#include "storage/column.h"
#include "storage/schema.h"
#include "util/result.h"

namespace dmml::storage {

/// \brief An immutable-schema, append-only columnar table.
class Table {
 public:
  explicit Table(Schema schema);

  /// \brief Table of `num_rows` rows over already-built columns (one per
  /// field, each `num_rows` long, matching types, no NULLs in non-nullable
  /// fields).
  static Result<Table> FromColumns(Schema schema, std::vector<Column> columns,
                                   size_t num_rows);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }

  const Column& column(size_t i) const { return columns_[i]; }
  Column& column(size_t i) { return columns_[i]; }

  /// \brief Column by name; Status error if absent.
  Result<const Column*> ColumnByName(const std::string& name) const;

  /// \brief Appends one row; the vector must match the schema arity and types
  /// (monostate = NULL, rejected for non-nullable fields).
  Status AppendRow(const std::vector<Value>& row);

  /// \brief Row i as generic values.
  std::vector<Value> GetRow(size_t i) const;

  /// \brief Projects the named numeric columns into a dense matrix
  /// (rows x columns.size()). NULLs become 0.0 unless `reject_nulls`.
  Result<la::DenseMatrix> ToMatrix(const std::vector<std::string>& columns,
                                   bool reject_nulls = false) const;

  /// \brief Single numeric column as an (n x 1) vector.
  Result<la::DenseMatrix> ColumnToVector(const std::string& name) const;

  /// \brief Loads a CSV file; column types are taken from `schema`.
  static Result<Table> FromCsvFile(const std::string& path, const Schema& schema,
                                   bool has_header = true);

  /// \brief Writes the table as CSV with a header row.
  Status ToCsvFile(const std::string& path) const;

  /// \brief Short "Table(N rows: schema)" description.
  std::string ToString() const;

 private:
  Schema schema_;
  std::vector<Column> columns_;
  size_t num_rows_ = 0;
};

}  // namespace dmml::storage

#endif  // DMML_STORAGE_TABLE_H_
