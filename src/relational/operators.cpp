#include "relational/operators.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/stopwatch.h"

namespace dmml::relational {

using storage::Column;
using storage::DataType;
using storage::Field;
using storage::Schema;
using storage::Table;
using storage::Value;

namespace {

// `input`'s rows at `rows`, in that order: one typed gather per column.
Result<Table> GatherRows(const Table& input, const std::vector<size_t>& rows) {
  std::vector<Column> columns;
  columns.reserve(input.num_columns());
  for (size_t c = 0; c < input.num_columns(); ++c) {
    columns.push_back(input.column(c).Gather(rows));
  }
  return Table::FromColumns(input.schema(), std::move(columns), rows.size());
}

}  // namespace

Result<Table> Filter(const Table& input, const PredicatePtr& pred) {
  DMML_RETURN_IF_ERROR(pred->Validate(input.schema()));
  std::vector<uint8_t> keep;
  DMML_RETURN_IF_ERROR(pred->Evaluate(input, &keep));
  std::vector<size_t> rows;
  rows.reserve(input.num_rows());
  for (size_t i = 0; i < keep.size(); ++i) {
    if (keep[i] != 0) rows.push_back(i);
  }
  return GatherRows(input, rows);
}

Result<Table> Project(const Table& input, const std::vector<std::string>& columns) {
  std::vector<Field> fields;
  std::vector<Column> out;
  for (const auto& name : columns) {
    DMML_ASSIGN_OR_RETURN(size_t idx, input.schema().RequireField(name));
    fields.push_back(input.schema().field(idx));
    out.push_back(input.column(idx));
  }
  DMML_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(fields)));
  return Table::FromColumns(std::move(schema), std::move(out), input.num_rows());
}

namespace {

// Typed key readers for the two join-key types.
struct Int64Key {
  using Type = int64_t;
  static int64_t At(const Column& c, size_t i) { return c.GetInt64(i); }
};
struct StringKey {
  using Type = std::string_view;
  static std::string_view At(const Column& c, size_t i) { return c.GetString(i); }
};

// The build side of a hash join. Each distinct non-NULL key maps to a group;
// the group's rows sit in ascending order in one flat array, so probing
// yields the nested-loop output order.
template <typename K>
class BuildSide {
 public:
  explicit BuildSide(const Column& col) {
    constexpr uint32_t kNoGroup = UINT32_MAX;
    group_of_.reserve(col.size());
    std::vector<uint32_t> row_group(col.size(), kNoGroup);
    for (size_t r = 0; r < col.size(); ++r) {
      if (!col.IsValid(r)) continue;
      auto [it, inserted] = group_of_.try_emplace(
          K::At(col, r), static_cast<uint32_t>(start_.size()));
      if (inserted) start_.push_back(0);
      row_group[r] = it->second;
      ++start_[it->second];
    }
    // Group sizes -> exclusive prefix sums, then a stable fill by row.
    size_t total = 0;
    for (size_t& g : start_) total += std::exchange(g, total);
    start_.push_back(total);
    rows_.resize(total);
    std::vector<size_t> fill(start_.begin(), start_.end() - 1);
    for (size_t r = 0; r < col.size(); ++r) {
      if (row_group[r] != kNoGroup) rows_[fill[row_group[r]]++] = r;
    }
  }

  /// Appends (row, match) to `left`/`right` for every build row whose key is
  /// `key`; returns whether there was one.
  bool Probe(typename K::Type key, size_t row, std::vector<size_t>* left,
             std::vector<size_t>* right) const {
    auto it = group_of_.find(key);
    if (it == group_of_.end()) return false;
    for (size_t k = start_[it->second]; k < start_[it->second + 1]; ++k) {
      left->push_back(row);
      right->push_back(rows_[k]);
    }
    return true;
  }

 private:
  std::unordered_map<typename K::Type, uint32_t> group_of_;
  std::vector<size_t> start_;  // Group g's rows: rows_[start_[g], start_[g+1]).
  std::vector<size_t> rows_;
};

// Left/right row pairs of the join in output order: left rows ascending, each
// one's matches in right-row order; kNullRow pads unmatched left-outer rows.
// Returns the micros spent building the hash table.
template <typename K>
uint64_t MatchRows(const Column& lcol, const Column& rcol, bool left_outer,
                   std::vector<size_t>* left, std::vector<size_t>* right) {
  Stopwatch build_watch;
  const BuildSide<K> build(rcol);
  const uint64_t build_us = build_watch.ElapsedMicros();
  left->reserve(lcol.size());
  right->reserve(lcol.size());
  for (size_t i = 0; i < lcol.size(); ++i) {
    const bool matched =
        lcol.IsValid(i) && build.Probe(K::At(lcol, i), i, left, right);
    if (!matched && left_outer) {
      left->push_back(i);
      right->push_back(Column::kNullRow);
    }
  }
  return build_us;
}

}  // namespace

Result<Table> GatherJoinRows(const Table& left, const Table& right,
                             const std::vector<size_t>& left_rows,
                             const std::vector<size_t>& right_rows,
                             const JoinOptions& options) {
  if (left_rows.size() != right_rows.size()) {
    return Status::InvalidArgument("join row selections differ in length");
  }
  Schema right_schema = right.schema();
  if (options.type == JoinType::kLeftOuter) {
    // Unmatched left rows are padded with NULLs on the right side, so every
    // right field must be nullable in the output schema.
    std::vector<Field> fields = right_schema.fields();
    for (auto& f : fields) f.nullable = true;
    right_schema = Schema(std::move(fields));
  }
  std::vector<Column> columns;
  columns.reserve(left.num_columns() + right.num_columns());
  for (size_t c = 0; c < left.num_columns(); ++c) {
    columns.push_back(left.column(c).Gather(left_rows));
  }
  for (size_t c = 0; c < right.num_columns(); ++c) {
    columns.push_back(right.column(c).Gather(right_rows));
  }
  return Table::FromColumns(left.schema().Concat(right_schema, options.clash_prefix),
                            std::move(columns), left_rows.size());
}

Result<Table> HashJoin(const Table& left, const Table& right,
                       const std::string& left_key, const std::string& right_key,
                       const JoinOptions& options) {
  DMML_ASSIGN_OR_RETURN(size_t lk, left.schema().RequireField(left_key));
  DMML_ASSIGN_OR_RETURN(size_t rk, right.schema().RequireField(right_key));
  const Column& lcol = left.column(lk);
  const Column& rcol = right.column(rk);
  if (lcol.type() != rcol.type()) {
    return Status::InvalidArgument("join key type mismatch: " +
                                   std::string(DataTypeToString(lcol.type())) + " vs " +
                                   DataTypeToString(rcol.type()));
  }
  if (lcol.type() != DataType::kInt64 && lcol.type() != DataType::kString) {
    return Status::InvalidArgument("join keys must be INT64 or STRING");
  }

  DMML_TRACE_SPAN("relational.hash_join");

  Stopwatch watch;
  const bool left_outer = options.type == JoinType::kLeftOuter;
  std::vector<size_t> lrows, rrows;
  const uint64_t build_us =
      lcol.type() == DataType::kInt64
          ? MatchRows<Int64Key>(lcol, rcol, left_outer, &lrows, &rrows)
          : MatchRows<StringKey>(lcol, rcol, left_outer, &lrows, &rrows);
  Result<Table> out = GatherJoinRows(left, right, lrows, rrows, options);
  DMML_COUNTER_ADD("relational.join.rows_built", right.num_rows());
  DMML_COUNTER_ADD("relational.join.build_us", build_us);
  DMML_COUNTER_ADD("relational.join.rows_probed", left.num_rows());
  DMML_COUNTER_ADD("relational.join.rows_emitted", lrows.size());
  // Probe plus output gather; the build is counted on its own.
  DMML_COUNTER_ADD("relational.join.probe_us", watch.ElapsedMicros() - build_us);
  return out;
}

namespace {

struct AggState {
  double sum = 0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  size_t count = 0;       // Rows in the group (for COUNT).
  size_t value_count = 0; // Non-NULL values seen (for AVG/MIN/MAX semantics).
};

}  // namespace

Result<Table> GroupBy(const Table& input, const std::vector<std::string>& keys,
                      const std::vector<AggSpec>& aggs) {
  std::vector<size_t> key_idx;
  for (const auto& k : keys) {
    DMML_ASSIGN_OR_RETURN(size_t idx, input.schema().RequireField(k));
    key_idx.push_back(idx);
  }
  std::vector<size_t> agg_idx(aggs.size(), SIZE_MAX);
  for (size_t a = 0; a < aggs.size(); ++a) {
    if (aggs[a].func == AggFunc::kCount && aggs[a].column.empty()) continue;
    DMML_ASSIGN_OR_RETURN(size_t idx, input.schema().RequireField(aggs[a].column));
    const auto type = input.schema().field(idx).type;
    if (type == DataType::kString && aggs[a].func != AggFunc::kCount) {
      return Status::InvalidArgument("cannot aggregate string column " +
                                     aggs[a].column);
    }
    agg_idx[a] = idx;
  }

  // Group rows by stringified key tuple (simple and deterministic).
  std::map<std::vector<std::string>, std::vector<AggState>> groups;
  std::map<std::vector<std::string>, std::vector<Value>> group_keys;
  for (size_t i = 0; i < input.num_rows(); ++i) {
    std::vector<std::string> gk;
    std::vector<Value> kv;
    gk.reserve(key_idx.size());
    for (size_t idx : key_idx) {
      Value v = input.column(idx).GetValue(i);
      gk.push_back(storage::ValueToString(v) +
                   (std::holds_alternative<std::monostate>(v) ? "\x01NULL" : ""));
      kv.push_back(std::move(v));
    }
    auto [it, inserted] = groups.try_emplace(gk, aggs.size());
    if (inserted) group_keys.emplace(gk, std::move(kv));
    for (size_t a = 0; a < aggs.size(); ++a) {
      AggState& st = it->second[a];
      st.count++;
      if (agg_idx[a] == SIZE_MAX) continue;
      const Column& col = input.column(agg_idx[a]);
      if (!col.IsValid(i)) continue;
      auto num = col.GetNumeric(i);
      if (!num.ok()) continue;
      double v = *num;
      st.sum += v;
      st.min = std::min(st.min, v);
      st.max = std::max(st.max, v);
      st.value_count++;
    }
  }

  // Output schema: key fields then aggregate fields.
  std::vector<Field> fields;
  for (size_t idx : key_idx) fields.push_back(input.schema().field(idx));
  for (const auto& a : aggs) {
    DataType t = a.func == AggFunc::kCount ? DataType::kInt64 : DataType::kDouble;
    fields.push_back({a.output_name, t, true});
  }
  DMML_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(fields)));
  Table out(schema);

  for (const auto& [gk, states] : groups) {
    std::vector<Value> row = group_keys[gk];
    for (size_t a = 0; a < aggs.size(); ++a) {
      const AggState& st = states[a];
      switch (aggs[a].func) {
        case AggFunc::kCount:
          row.emplace_back(static_cast<int64_t>(st.count));
          break;
        case AggFunc::kSum:
          if (st.value_count == 0) row.emplace_back(std::monostate{});
          else row.emplace_back(st.sum);
          break;
        case AggFunc::kAvg:
          if (st.value_count == 0) row.emplace_back(std::monostate{});
          else row.emplace_back(st.sum / static_cast<double>(st.value_count));
          break;
        case AggFunc::kMin:
          if (st.value_count == 0) row.emplace_back(std::monostate{});
          else row.emplace_back(st.min);
          break;
        case AggFunc::kMax:
          if (st.value_count == 0) row.emplace_back(std::monostate{});
          else row.emplace_back(st.max);
          break;
      }
    }
    DMML_RETURN_IF_ERROR(out.AppendRow(row));
  }
  return out;
}

Result<Table> OrderBy(const Table& input, const std::string& column, bool ascending) {
  DMML_ASSIGN_OR_RETURN(size_t idx, input.schema().RequireField(column));
  const Column& col = input.column(idx);
  std::vector<size_t> order(input.num_rows());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  auto less = [&](size_t a, size_t b) {
    bool va = col.IsValid(a), vb = col.IsValid(b);
    if (!va || !vb) return !va && vb;  // NULLs first.
    switch (col.type()) {
      case DataType::kInt64: return col.GetInt64(a) < col.GetInt64(b);
      case DataType::kDouble: return col.GetDouble(a) < col.GetDouble(b);
      case DataType::kString: return col.GetString(a) < col.GetString(b);
      case DataType::kBool: return col.GetBool(a) < col.GetBool(b);
    }
    return false;
  };
  std::stable_sort(order.begin(), order.end(), less);
  if (!ascending) std::reverse(order.begin(), order.end());

  return GatherRows(input, order);
}

Result<Table> Union(const Table& a, const Table& b) {
  if (!(a.schema() == b.schema())) {
    return Status::InvalidArgument("UNION requires identical schemas");
  }
  Table out(a.schema());
  for (size_t i = 0; i < a.num_rows(); ++i) {
    DMML_RETURN_IF_ERROR(out.AppendRow(a.GetRow(i)));
  }
  for (size_t i = 0; i < b.num_rows(); ++i) {
    DMML_RETURN_IF_ERROR(out.AppendRow(b.GetRow(i)));
  }
  return out;
}

Table Limit(const Table& input, size_t n) {
  std::vector<size_t> rows(std::min(n, input.num_rows()));
  std::iota(rows.begin(), rows.end(), size_t{0});
  return std::move(GatherRows(input, rows)).ValueOrDie();
}

}  // namespace dmml::relational
