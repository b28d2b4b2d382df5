#include "storage/table.h"

#include <sstream>

#include "util/csv.h"
#include "util/string_utils.h"

namespace dmml::storage {

Table::Table(Schema schema) : schema_(std::move(schema)) {
  columns_.reserve(schema_.num_fields());
  for (const auto& f : schema_.fields()) columns_.emplace_back(f.type);
}

Result<Table> Table::FromColumns(Schema schema, std::vector<Column> columns,
                                 size_t num_rows) {
  if (columns.size() != schema.num_fields()) {
    return Status::InvalidArgument("column count " + std::to_string(columns.size()) +
                                   " does not match schema arity " +
                                   std::to_string(schema.num_fields()));
  }
  for (size_t i = 0; i < columns.size(); ++i) {
    const Field& f = schema.field(i);
    if (columns[i].type() != f.type) {
      return Status::InvalidArgument("type mismatch in field " + f.name);
    }
    if (columns[i].size() != num_rows) {
      return Status::InvalidArgument("column " + f.name + " has " +
                                     std::to_string(columns[i].size()) +
                                     " rows, expected " + std::to_string(num_rows));
    }
    if (!f.nullable && columns[i].null_count() > 0) {
      return Status::InvalidArgument("NULL in non-nullable field " + f.name);
    }
  }
  Table out(std::move(schema));
  out.columns_ = std::move(columns);
  out.num_rows_ = num_rows;
  return out;
}

Result<const Column*> Table::ColumnByName(const std::string& name) const {
  DMML_ASSIGN_OR_RETURN(size_t idx, schema_.RequireField(name));
  return &columns_[idx];
}

Status Table::AppendRow(const std::vector<Value>& row) {
  if (row.size() != schema_.num_fields()) {
    return Status::InvalidArgument("row arity " + std::to_string(row.size()) +
                                   " does not match schema arity " +
                                   std::to_string(schema_.num_fields()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    const bool is_null = std::holds_alternative<std::monostate>(row[i]);
    if (is_null && !schema_.field(i).nullable) {
      return Status::InvalidArgument("NULL in non-nullable field " +
                                     schema_.field(i).name);
    }
    if (!is_null && !ValueMatchesType(row[i], schema_.field(i).type)) {
      return Status::InvalidArgument("type mismatch in field " + schema_.field(i).name);
    }
  }
  for (size_t i = 0; i < row.size(); ++i) {
    DMML_RETURN_IF_ERROR(columns_[i].Append(row[i]));
  }
  ++num_rows_;
  return Status::OK();
}

std::vector<Value> Table::GetRow(size_t i) const {
  std::vector<Value> row;
  row.reserve(columns_.size());
  for (const auto& col : columns_) row.push_back(col.GetValue(i));
  return row;
}

Result<la::DenseMatrix> Table::ToMatrix(const std::vector<std::string>& columns,
                                        bool reject_nulls) const {
  std::vector<const Column*> cols;
  cols.reserve(columns.size());
  for (const auto& name : columns) {
    DMML_ASSIGN_OR_RETURN(const Column* col, ColumnByName(name));
    if (col->type() == DataType::kString) {
      return Status::InvalidArgument("column '" + name +
                                     "' is a string column; encode it first");
    }
    if (reject_nulls && col->null_count() > 0) {
      return Status::InvalidArgument("column '" + name + "' contains NULLs");
    }
    cols.push_back(col);
  }
  la::DenseMatrix m(num_rows_, cols.size());
  for (size_t j = 0; j < cols.size(); ++j) {
    const Column& col = *cols[j];
    for (size_t i = 0; i < num_rows_; ++i) {
      if (!col.IsValid(i)) continue;  // NULL -> 0.0
      switch (col.type()) {
        case DataType::kInt64:
          m.At(i, j) = static_cast<double>(col.GetInt64(i));
          break;
        case DataType::kDouble:
          m.At(i, j) = col.GetDouble(i);
          break;
        case DataType::kBool:
          m.At(i, j) = col.GetBool(i) ? 1.0 : 0.0;
          break;
        case DataType::kString:
          break;  // Unreachable; rejected above.
      }
    }
  }
  return m;
}

Result<la::DenseMatrix> Table::ColumnToVector(const std::string& name) const {
  return ToMatrix({name});
}

Result<Table> Table::FromCsvFile(const std::string& path, const Schema& schema,
                                 bool has_header) {
  CsvOptions options;
  options.has_header = has_header;
  DMML_ASSIGN_OR_RETURN(CsvDocument doc, ReadCsvFile(path, options));
  Table table(schema);
  for (size_t r = 0; r < doc.rows.size(); ++r) {
    const auto& cells = doc.rows[r];
    if (cells.size() != schema.num_fields()) {
      return Status::InvalidArgument("CSV row " + std::to_string(r) + " has " +
                                     std::to_string(cells.size()) + " cells, expected " +
                                     std::to_string(schema.num_fields()));
    }
    std::vector<Value> row;
    row.reserve(cells.size());
    for (size_t c = 0; c < cells.size(); ++c) {
      const std::string& cell = cells[c];
      if (cell.empty()) {
        row.emplace_back(std::monostate{});
        continue;
      }
      switch (schema.field(c).type) {
        case DataType::kInt64: {
          DMML_ASSIGN_OR_RETURN(int64_t v, ParseInt64(cell));
          row.emplace_back(v);
          break;
        }
        case DataType::kDouble: {
          DMML_ASSIGN_OR_RETURN(double v, ParseDouble(cell));
          row.emplace_back(v);
          break;
        }
        case DataType::kString:
          row.emplace_back(cell);
          break;
        case DataType::kBool:
          row.emplace_back(cell == "true" || cell == "1" || cell == "TRUE");
          break;
      }
    }
    DMML_RETURN_IF_ERROR(table.AppendRow(row));
  }
  return table;
}

Status Table::ToCsvFile(const std::string& path) const {
  std::vector<std::string> header;
  header.reserve(schema_.num_fields());
  for (const auto& f : schema_.fields()) header.push_back(f.name);
  std::vector<std::vector<std::string>> rows;
  rows.reserve(num_rows_);
  for (size_t i = 0; i < num_rows_; ++i) {
    std::vector<std::string> cells;
    cells.reserve(columns_.size());
    for (const auto& col : columns_) cells.push_back(ValueToString(col.GetValue(i)));
    rows.push_back(std::move(cells));
  }
  return WriteCsvFile(path, header, rows);
}

std::string Table::ToString() const {
  std::ostringstream os;
  os << "Table(" << num_rows_ << " rows: " << schema_.ToString() << ")";
  return os.str();
}

}  // namespace dmml::storage
