#include "relational/statistics.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string_view>

#include "obs/metrics.h"
#include "util/stopwatch.h"

namespace dmml::relational {

using storage::Column;
using storage::DataType;
using storage::Table;

const ColumnStatistics* TableStatistics::Find(const std::string& name) const {
  for (const auto& col : columns) {
    if (col.name == name) return &col;
  }
  return nullptr;
}

namespace {

// Number of distinct keys, by open addressing over a power-of-two table at
// most half full (no per-key allocation).
template <typename Key, typename Hash>
size_t CountDistinct(const std::vector<Key>& keys, Hash hash) {
  size_t capacity = 16;
  while (capacity < 2 * keys.size()) capacity <<= 1;
  const size_t mask = capacity - 1;
  std::vector<Key> slots(capacity);
  std::vector<uint8_t> used(capacity, 0);
  size_t distinct = 0;
  for (const Key& k : keys) {
    size_t h = hash(k) & mask;
    while (used[h] != 0 && !(slots[h] == k)) h = (h + 1) & mask;
    if (used[h] == 0) {
      used[h] = 1;
      slots[h] = k;
      ++distinct;
    }
  }
  return distinct;
}

// splitmix64 finalizer: spreads the low-entropy low bits of doubles.
uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Distinct doubles: -0.0 and +0.0 are one value, every NaN is one value.
size_t CountDistinctDoubles(const std::vector<double>& values) {
  std::vector<uint64_t> bits;
  bits.reserve(values.size());
  bool any_nan = false;
  for (double v : values) {
    if (std::isnan(v)) {
      any_nan = true;
      continue;
    }
    uint64_t b;
    const double canonical = v == 0.0 ? 0.0 : v;
    std::memcpy(&b, &canonical, sizeof(b));
    bits.push_back(b);
  }
  return CountDistinct(bits, Mix64) + (any_nan ? 1 : 0);
}

// The non-NULL cells of a numeric column as doubles, in row order.
std::vector<double> NumericValues(const Column& col) {
  std::vector<double> out;
  out.reserve(col.size() - col.null_count());
  auto append = [&](const auto& data) {
    for (size_t i = 0; i < col.size(); ++i) {
      if (col.IsValid(i)) out.push_back(static_cast<double>(data[i]));
    }
  };
  switch (col.type()) {
    case DataType::kInt64: append(col.int64_data()); break;
    case DataType::kDouble: append(col.double_data()); break;
    case DataType::kBool: append(col.bool_data()); break;
    case DataType::kString: break;
  }
  return out;
}

// min/max and the equi-width histogram over the finite values.
void FillRange(const std::vector<double>& values, size_t buckets,
               ColumnStatistics* cs) {
  double mn = std::numeric_limits<double>::infinity();
  double mx = -std::numeric_limits<double>::infinity();
  bool any_finite = false;
  for (double v : values) {
    if (!std::isfinite(v)) continue;
    any_finite = true;
    mn = std::min(mn, v);
    mx = std::max(mx, v);
  }
  if (!any_finite) return;
  cs->min_value = mn;
  cs->max_value = mx;
  cs->histogram.assign(buckets, 0);
  // mx - mn may overflow to inf; then pos is 0 or NaN, and both land in
  // bucket 0 instead of reaching an undefined float-to-size_t cast.
  const double width = (mx - mn) / static_cast<double>(buckets);
  const double last = static_cast<double>(buckets - 1);
  for (double v : values) {
    if (!std::isfinite(v)) continue;
    const double pos = width > 0 ? (v - mn) / width : 0.0;
    const size_t bucket =
        pos >= last ? buckets - 1 : (pos > 0 ? static_cast<size_t>(pos) : 0);
    cs->histogram[bucket]++;
  }
}

}  // namespace

Result<ColumnStatistics> CollectColumnStatistics(const Column& column,
                                                 std::string name,
                                                 size_t histogram_buckets) {
  if (histogram_buckets == 0) {
    return Status::InvalidArgument("histogram_buckets must be >= 1");
  }
  Stopwatch watch;
  ColumnStatistics cs;
  cs.name = std::move(name);
  cs.num_rows = column.size();
  cs.null_count = column.null_count();
  if (column.type() == DataType::kString) {
    std::vector<std::string_view> keys;
    keys.reserve(column.size() - column.null_count());
    const std::vector<std::string>& data = column.string_data();
    for (size_t i = 0; i < column.size(); ++i) {
      if (column.IsValid(i)) keys.emplace_back(data[i]);
    }
    cs.distinct_count = CountDistinct(keys, std::hash<std::string_view>());
  } else {
    const std::vector<double> values = NumericValues(column);
    cs.distinct_count = CountDistinctDoubles(values);
    FillRange(values, histogram_buckets, &cs);
  }
  DMML_COUNTER_INC("relational.stats.columns_collected");
  DMML_HISTOGRAM_OBSERVE("relational.stats.collect_us",
                         obs::ExponentialBuckets(10, 4, 8),
                         static_cast<double>(watch.ElapsedMicros()));
  return cs;
}

Result<TableStatistics> CollectStatistics(const Table& table,
                                          size_t histogram_buckets) {
  if (histogram_buckets == 0) {
    return Status::InvalidArgument("histogram_buckets must be >= 1");
  }
  TableStatistics stats;
  stats.num_rows = table.num_rows();
  for (size_t c = 0; c < table.num_columns(); ++c) {
    DMML_ASSIGN_OR_RETURN(
        ColumnStatistics cs,
        CollectColumnStatistics(table.column(c), table.schema().field(c).name,
                                histogram_buckets));
    stats.columns.push_back(std::move(cs));
  }
  return stats;
}

Result<double> EstimateSelectivity(const TableStatistics& stats,
                                   const std::string& column, CompareOp op,
                                   double value) {
  const ColumnStatistics* cs = stats.Find(column);
  if (cs == nullptr) return Status::NotFound("no statistics for column " + column);
  if (cs->num_rows == 0) return 0.0;
  const double non_null_fraction =
      1.0 - static_cast<double>(cs->null_count) / static_cast<double>(cs->num_rows);
  if (!cs->min_value) return 0.0;  // All NULL (or string column).

  const double mn = *cs->min_value, mx = *cs->max_value;
  auto clamp01 = [](double v) { return std::clamp(v, 0.0, 1.0); };

  double selectivity;
  switch (op) {
    case CompareOp::kEq:
      if (value < mn || value > mx) {
        selectivity = 0.0;
      } else {
        selectivity = cs->distinct_count > 0
                          ? 1.0 / static_cast<double>(cs->distinct_count)
                          : 0.0;
      }
      break;
    case CompareOp::kNe:
      selectivity = value < mn || value > mx
                        ? 1.0
                        : 1.0 - (cs->distinct_count > 0
                                     ? 1.0 / static_cast<double>(cs->distinct_count)
                                     : 0.0);
      break;
    case CompareOp::kLt:
    case CompareOp::kLe:
    case CompareOp::kGt:
    case CompareOp::kGe: {
      // Histogram mass below `value` (linear interpolation within bucket).
      double below;
      if (mx == mn) {
        // Degenerate point mass: honor strict vs non-strict comparisons.
        bool inclusive = op == CompareOp::kLe || op == CompareOp::kGt;
        below = (inclusive ? value >= mx : value > mx) ? 1.0 : 0.0;
      } else if (cs->histogram.empty()) {
        below = clamp01((value - mn) / (mx - mn));
      } else {
        double width = (mx - mn) / static_cast<double>(cs->histogram.size());
        double mass = 0, total = 0;
        for (size_t b = 0; b < cs->histogram.size(); ++b) {
          total += static_cast<double>(cs->histogram[b]);
          double lo = mn + width * static_cast<double>(b);
          double hi = lo + width;
          if (value >= hi) {
            mass += static_cast<double>(cs->histogram[b]);
          } else if (value > lo) {
            mass += static_cast<double>(cs->histogram[b]) * (value - lo) / width;
          }
        }
        below = total > 0 ? mass / total : 0.0;
      }
      if (op == CompareOp::kLt || op == CompareOp::kLe) {
        selectivity = clamp01(below);
      } else {
        selectivity = clamp01(1.0 - below);
      }
      break;
    }
    default:
      return Status::Internal("unreachable compare op");
  }
  return selectivity * non_null_fraction;
}

Result<double> EstimateJoinCardinality(const TableStatistics& left,
                                       const std::string& left_column,
                                       const TableStatistics& right,
                                       const std::string& right_column) {
  const ColumnStatistics* lc = left.Find(left_column);
  const ColumnStatistics* rc = right.Find(right_column);
  if (lc == nullptr || rc == nullptr) {
    return Status::NotFound("missing join-column statistics");
  }
  size_t max_ndv = std::max(lc->distinct_count, rc->distinct_count);
  if (max_ndv == 0) return 0.0;
  return static_cast<double>(left.num_rows) * static_cast<double>(right.num_rows) /
         static_cast<double>(max_ndv);
}

}  // namespace dmml::relational
