/// \file column.h
/// \brief Typed columnar storage with null bitmap.
#ifndef DMML_STORAGE_COLUMN_H_
#define DMML_STORAGE_COLUMN_H_

#include <cstdint>
#include <limits>
#include <string>
#include <variant>
#include <vector>

#include "storage/types.h"
#include "util/result.h"

namespace dmml::storage {

/// \brief A dynamically-typed cell value. Monostate encodes NULL.
using Value = std::variant<std::monostate, int64_t, double, std::string, bool>;

/// \brief The DataType a Value carries, or nullopt-like false for NULL.
bool ValueMatchesType(const Value& v, DataType type);

/// \brief Renders a value for CSV output; NULL renders as "".
std::string ValueToString(const Value& v);

/// \brief A single typed column: contiguous values plus a validity bitmap.
///
/// All four physical vectors exist; only the one matching type() is used.
/// This trades a little space for a simple, cache-friendly accessor story.
class Column {
 public:
  /// Row index that makes Gather emit a NULL (left-outer join padding).
  static constexpr size_t kNullRow = std::numeric_limits<size_t>::max();

  explicit Column(DataType type) : type_(type) {}

  DataType type() const { return type_; }
  size_t size() const { return valid_.size(); }

  /// \brief True iff row i holds a non-NULL value.
  bool IsValid(size_t i) const { return valid_[i]; }

  /// \brief Number of NULL entries.
  size_t null_count() const { return null_count_; }

  /// \brief Appends a typed value; Status error if the type mismatches.
  Status Append(const Value& v);

  /// \brief Appends a NULL.
  void AppendNull();

  // Typed appends (no validation; caller owns type discipline).
  void AppendInt64(int64_t v);
  void AppendDouble(double v);
  void AppendString(std::string v);
  void AppendBool(bool v);

  // Typed accessors; undefined for NULL rows or wrong type.
  int64_t GetInt64(size_t i) const { return int64_data_[i]; }
  double GetDouble(size_t i) const { return double_data_[i]; }
  const std::string& GetString(size_t i) const { return string_data_[i]; }
  bool GetBool(size_t i) const { return bool_data_[i] != 0; }

  /// \brief Generic accessor (allocates for strings).
  Value GetValue(size_t i) const;

  /// \brief Numeric view: int64/bool/double as double; Status error otherwise
  /// or for NULL.
  Result<double> GetNumeric(size_t i) const;

  /// \brief New column of the same type whose row k is row `rows[k]` of this
  /// one (kNullRow, or a NULL source row, gives NULL). One typed pass: the
  /// relational operators build every output column this way.
  Column Gather(const std::vector<size_t>& rows) const;

  /// \brief Direct access to the raw typed buffers (for vectorized readers).
  const std::vector<int64_t>& int64_data() const { return int64_data_; }
  const std::vector<double>& double_data() const { return double_data_; }
  const std::vector<std::string>& string_data() const { return string_data_; }
  const std::vector<uint8_t>& bool_data() const { return bool_data_; }

 private:
  DataType type_;
  std::vector<uint8_t> valid_;
  size_t null_count_ = 0;
  std::vector<int64_t> int64_data_;
  std::vector<double> double_data_;
  std::vector<std::string> string_data_;
  std::vector<uint8_t> bool_data_;

  void AppendSlot(bool valid);
};

}  // namespace dmml::storage

#endif  // DMML_STORAGE_COLUMN_H_
