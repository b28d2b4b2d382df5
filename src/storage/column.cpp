#include "storage/column.h"

#include <sstream>

namespace dmml::storage {

bool ValueMatchesType(const Value& v, DataType type) {
  switch (type) {
    case DataType::kInt64: return std::holds_alternative<int64_t>(v);
    case DataType::kDouble: return std::holds_alternative<double>(v);
    case DataType::kString: return std::holds_alternative<std::string>(v);
    case DataType::kBool: return std::holds_alternative<bool>(v);
  }
  return false;
}

std::string ValueToString(const Value& v) {
  if (std::holds_alternative<std::monostate>(v)) return "";
  if (const auto* i = std::get_if<int64_t>(&v)) return std::to_string(*i);
  if (const auto* d = std::get_if<double>(&v)) {
    std::ostringstream os;
    os << *d;
    return os.str();
  }
  if (const auto* s = std::get_if<std::string>(&v)) return *s;
  if (const auto* b = std::get_if<bool>(&v)) return *b ? "true" : "false";
  return "";
}

void Column::AppendSlot(bool valid) {
  valid_.push_back(valid ? 1 : 0);
  if (!valid) ++null_count_;
  // Keep the active buffer aligned with valid_; pad inactive types lazily only
  // for the active type to avoid 4x memory.
  switch (type_) {
    case DataType::kInt64:
      if (int64_data_.size() < valid_.size()) int64_data_.push_back(0);
      break;
    case DataType::kDouble:
      if (double_data_.size() < valid_.size()) double_data_.push_back(0.0);
      break;
    case DataType::kString:
      if (string_data_.size() < valid_.size()) string_data_.emplace_back();
      break;
    case DataType::kBool:
      if (bool_data_.size() < valid_.size()) bool_data_.push_back(0);
      break;
  }
}

Status Column::Append(const Value& v) {
  if (std::holds_alternative<std::monostate>(v)) {
    AppendNull();
    return Status::OK();
  }
  if (!ValueMatchesType(v, type_)) {
    return Status::InvalidArgument(std::string("value type does not match column (") +
                                   DataTypeToString(type_) + ")");
  }
  switch (type_) {
    case DataType::kInt64: AppendInt64(std::get<int64_t>(v)); break;
    case DataType::kDouble: AppendDouble(std::get<double>(v)); break;
    case DataType::kString: AppendString(std::get<std::string>(v)); break;
    case DataType::kBool: AppendBool(std::get<bool>(v)); break;
  }
  return Status::OK();
}

void Column::AppendNull() { AppendSlot(false); }

void Column::AppendInt64(int64_t v) {
  int64_data_.push_back(v);
  valid_.push_back(1);
}

void Column::AppendDouble(double v) {
  double_data_.push_back(v);
  valid_.push_back(1);
}

void Column::AppendString(std::string v) {
  string_data_.push_back(std::move(v));
  valid_.push_back(1);
}

void Column::AppendBool(bool v) {
  bool_data_.push_back(v ? 1 : 0);
  valid_.push_back(1);
}

namespace {

// dst[k] = src[rows[k]] for valid rows, T{} under NULLs; returns the NULLs.
template <typename T>
size_t GatherTyped(const std::vector<T>& src, const std::vector<uint8_t>& valid,
                   const std::vector<size_t>& rows, std::vector<T>* dst,
                   std::vector<uint8_t>* dst_valid) {
  dst->resize(rows.size());
  dst_valid->resize(rows.size());
  size_t nulls = 0;
  for (size_t k = 0; k < rows.size(); ++k) {
    const size_t r = rows[k];
    const bool ok = r != Column::kNullRow && valid[r] != 0;
    (*dst_valid)[k] = ok ? 1 : 0;
    if (ok) {
      (*dst)[k] = src[r];
    } else {
      ++nulls;
    }
  }
  return nulls;
}

}  // namespace

Column Column::Gather(const std::vector<size_t>& rows) const {
  Column out(type_);
  switch (type_) {
    case DataType::kInt64:
      out.null_count_ =
          GatherTyped(int64_data_, valid_, rows, &out.int64_data_, &out.valid_);
      break;
    case DataType::kDouble:
      out.null_count_ =
          GatherTyped(double_data_, valid_, rows, &out.double_data_, &out.valid_);
      break;
    case DataType::kString:
      out.null_count_ =
          GatherTyped(string_data_, valid_, rows, &out.string_data_, &out.valid_);
      break;
    case DataType::kBool:
      out.null_count_ =
          GatherTyped(bool_data_, valid_, rows, &out.bool_data_, &out.valid_);
      break;
  }
  return out;
}

Value Column::GetValue(size_t i) const {
  if (!IsValid(i)) return std::monostate{};
  switch (type_) {
    case DataType::kInt64: return int64_data_[i];
    case DataType::kDouble: return double_data_[i];
    case DataType::kString: return string_data_[i];
    case DataType::kBool: return bool_data_[i] != 0;
  }
  return std::monostate{};
}

Result<double> Column::GetNumeric(size_t i) const {
  if (!IsValid(i)) return Status::InvalidArgument("NULL value is not numeric");
  switch (type_) {
    case DataType::kInt64: return static_cast<double>(int64_data_[i]);
    case DataType::kDouble: return double_data_[i];
    case DataType::kBool: return bool_data_[i] ? 1.0 : 0.0;
    case DataType::kString:
      return Status::InvalidArgument("string column is not numeric");
  }
  return Status::Internal("unreachable");
}

}  // namespace dmml::storage
