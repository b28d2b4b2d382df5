#include "relational/predicate.h"

#include <algorithm>

#include "relational/statistics.h"

namespace dmml::relational {

namespace {

double ClampSelectivity(double s) { return std::clamp(s, 0.0, 1.0); }

}  // namespace

double Predicate::EstimateSelectivity(const TableStatistics& /*stats*/) const {
  return kDefaultSelectivity;
}

namespace {

using storage::DataType;
using storage::Table;
using storage::Value;

// Three-way comparison; incomparable values (NaN) compare equal.
template <typename T>
int ThreeWay(T a, T b) {
  return a < b ? -1 : (a > b ? 1 : 0);
}

// (*keep)[i] = op(cmp(i), 0) for the valid rows of `col`; NULL rows stay 0.
template <typename Cmp>
void CompareRows(const storage::Column& col, CompareOp op, Cmp cmp,
                 std::vector<uint8_t>* keep) {
  for (size_t i = 0; i < col.size(); ++i) {
    if (!col.IsValid(i)) continue;
    const int c = cmp(i);
    bool k = false;
    switch (op) {
      case CompareOp::kEq: k = c == 0; break;
      case CompareOp::kNe: k = c != 0; break;
      case CompareOp::kLt: k = c < 0; break;
      case CompareOp::kLe: k = c <= 0; break;
      case CompareOp::kGt: k = c > 0; break;
      case CompareOp::kGe: k = c >= 0; break;
    }
    (*keep)[i] = k ? 1 : 0;
  }
}

class ComparePredicate : public Predicate {
 public:
  ComparePredicate(std::string column, CompareOp op, Value literal)
      : column_(std::move(column)), op_(op), literal_(std::move(literal)) {}

  Status Evaluate(const Table& table, std::vector<uint8_t>* keep) const override {
    DMML_ASSIGN_OR_RETURN(const storage::Column* col, table.ColumnByName(column_));
    keep->assign(table.num_rows(), 0);
    const auto* i64 = std::get_if<int64_t>(&literal_);
    const auto* f64 = std::get_if<double>(&literal_);
    // A literal the column cannot compare against keeps no row.
    switch (col->type()) {
      case DataType::kInt64: {
        const std::vector<int64_t>& v = col->int64_data();
        if (i64 != nullptr) {
          CompareRows(*col, op_, [&](size_t r) { return ThreeWay(v[r], *i64); },
                      keep);
        } else if (f64 != nullptr) {
          CompareRows(*col, op_,
                      [&](size_t r) {
                        return ThreeWay(static_cast<double>(v[r]), *f64);
                      },
                      keep);
        }
        break;
      }
      case DataType::kDouble: {
        if (i64 == nullptr && f64 == nullptr) break;
        const double lit = f64 != nullptr ? *f64 : static_cast<double>(*i64);
        const std::vector<double>& v = col->double_data();
        CompareRows(*col, op_, [&](size_t r) { return ThreeWay(v[r], lit); },
                    keep);
        break;
      }
      case DataType::kString: {
        const auto* lit = std::get_if<std::string>(&literal_);
        if (lit == nullptr) break;
        const std::vector<std::string>& v = col->string_data();
        CompareRows(*col, op_,
                    [&](size_t r) { return ThreeWay(v[r].compare(*lit), 0); },
                    keep);
        break;
      }
      case DataType::kBool: {
        const auto* lit = std::get_if<bool>(&literal_);
        if (lit == nullptr) break;
        const std::vector<uint8_t>& v = col->bool_data();
        const int l = *lit ? 1 : 0;
        CompareRows(*col, op_,
                    [&](size_t r) { return ThreeWay(v[r] != 0 ? 1 : 0, l); },
                    keep);
        break;
      }
    }
    return Status::OK();
  }

  Status Validate(const storage::Schema& schema) const override {
    return schema.RequireField(column_).ok()
               ? Status::OK()
               : Status::NotFound("predicate references unknown column: " + column_);
  }

  void ReferencedColumns(std::vector<std::string>* columns) const override {
    columns->push_back(column_);
  }

  double EstimateSelectivity(const TableStatistics& stats) const override {
    double value = 0.0;
    bool numeric = false;
    if (const auto* d = std::get_if<double>(&literal_)) {
      value = *d;
      numeric = true;
    } else if (const auto* i = std::get_if<int64_t>(&literal_)) {
      value = static_cast<double>(*i);
      numeric = true;
    }
    if (numeric) {
      Result<double> s =
          relational::EstimateSelectivity(stats, column_, op_, value);
      if (s.ok()) return ClampSelectivity(std::move(s).ValueOrDie());
    }
    // String/bool literals: ndv-based equality estimate over non-NULL rows.
    const ColumnStatistics* col = stats.Find(column_);
    if (col != nullptr && col->num_rows > 0 && col->distinct_count > 0) {
      const double non_null =
          1.0 - static_cast<double>(col->null_count) / col->num_rows;
      if (op_ == CompareOp::kEq) {
        return ClampSelectivity(non_null / col->distinct_count);
      }
      if (op_ == CompareOp::kNe) {
        return ClampSelectivity(non_null * (1.0 - 1.0 / col->distinct_count));
      }
    }
    return kDefaultSelectivity;
  }

 private:
  std::string column_;
  CompareOp op_;
  Value literal_;
};

class BinaryPredicate : public Predicate {
 public:
  BinaryPredicate(PredicatePtr lhs, PredicatePtr rhs, bool is_and)
      : lhs_(std::move(lhs)), rhs_(std::move(rhs)), is_and_(is_and) {}

  Status Evaluate(const Table& table, std::vector<uint8_t>* keep) const override {
    DMML_RETURN_IF_ERROR(lhs_->Evaluate(table, keep));
    std::vector<uint8_t> rhs;
    DMML_RETURN_IF_ERROR(rhs_->Evaluate(table, &rhs));
    for (size_t i = 0; i < keep->size(); ++i) {
      (*keep)[i] = is_and_ ? ((*keep)[i] & rhs[i]) : ((*keep)[i] | rhs[i]);
    }
    return Status::OK();
  }

  Status Validate(const storage::Schema& schema) const override {
    DMML_RETURN_IF_ERROR(lhs_->Validate(schema));
    return rhs_->Validate(schema);
  }

  void ReferencedColumns(std::vector<std::string>* columns) const override {
    lhs_->ReferencedColumns(columns);
    rhs_->ReferencedColumns(columns);
  }

  double EstimateSelectivity(const TableStatistics& stats) const override {
    const double l = lhs_->EstimateSelectivity(stats);
    const double r = rhs_->EstimateSelectivity(stats);
    // Independence assumption: AND multiplies, OR inclusion–excludes.
    return ClampSelectivity(is_and_ ? l * r : l + r - l * r);
  }

 private:
  PredicatePtr lhs_, rhs_;
  bool is_and_;
};

class NotPredicate : public Predicate {
 public:
  explicit NotPredicate(PredicatePtr inner) : inner_(std::move(inner)) {}

  Status Evaluate(const Table& table, std::vector<uint8_t>* keep) const override {
    DMML_RETURN_IF_ERROR(inner_->Evaluate(table, keep));
    for (uint8_t& k : *keep) k ^= 1;
    return Status::OK();
  }

  Status Validate(const storage::Schema& schema) const override {
    return inner_->Validate(schema);
  }

  void ReferencedColumns(std::vector<std::string>* columns) const override {
    inner_->ReferencedColumns(columns);
  }

  double EstimateSelectivity(const TableStatistics& stats) const override {
    return ClampSelectivity(1.0 - inner_->EstimateSelectivity(stats));
  }

 private:
  PredicatePtr inner_;
};

class IsNullPredicate : public Predicate {
 public:
  explicit IsNullPredicate(std::string column) : column_(std::move(column)) {}

  Status Evaluate(const Table& table, std::vector<uint8_t>* keep) const override {
    DMML_ASSIGN_OR_RETURN(const storage::Column* col, table.ColumnByName(column_));
    keep->resize(table.num_rows());
    for (size_t i = 0; i < keep->size(); ++i) (*keep)[i] = col->IsValid(i) ? 0 : 1;
    return Status::OK();
  }

  Status Validate(const storage::Schema& schema) const override {
    return schema.RequireField(column_).ok()
               ? Status::OK()
               : Status::NotFound("predicate references unknown column: " + column_);
  }

  void ReferencedColumns(std::vector<std::string>* columns) const override {
    columns->push_back(column_);
  }

  double EstimateSelectivity(const TableStatistics& stats) const override {
    const ColumnStatistics* col = stats.Find(column_);
    if (col == nullptr || col->num_rows == 0) return kDefaultSelectivity;
    return ClampSelectivity(static_cast<double>(col->null_count) /
                            col->num_rows);
  }

 private:
  std::string column_;
};

}  // namespace

PredicatePtr Compare(std::string column, CompareOp op, storage::Value literal) {
  return std::make_shared<ComparePredicate>(std::move(column), op, std::move(literal));
}

PredicatePtr And(PredicatePtr lhs, PredicatePtr rhs) {
  return std::make_shared<BinaryPredicate>(std::move(lhs), std::move(rhs), true);
}

PredicatePtr Or(PredicatePtr lhs, PredicatePtr rhs) {
  return std::make_shared<BinaryPredicate>(std::move(lhs), std::move(rhs), false);
}

PredicatePtr Not(PredicatePtr inner) {
  return std::make_shared<NotPredicate>(std::move(inner));
}

PredicatePtr IsNull(std::string column) {
  return std::make_shared<IsNullPredicate>(std::move(column));
}

}  // namespace dmml::relational
