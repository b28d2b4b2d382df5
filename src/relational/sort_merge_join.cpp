#include "relational/sort_merge_join.h"

#include <algorithm>
#include <numeric>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/stopwatch.h"

namespace dmml::relational {

using storage::Column;
using storage::DataType;
using storage::Table;

namespace {

// Sorted row ids of the non-NULL keys of `col`.
std::vector<size_t> SortedKeyOrder(const Column& col, size_t num_rows) {
  std::vector<size_t> order;
  order.reserve(num_rows);
  for (size_t i = 0; i < num_rows; ++i) {
    if (col.IsValid(i)) order.push_back(i);
  }
  if (col.type() == DataType::kInt64) {
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return col.GetInt64(a) < col.GetInt64(b);
    });
  } else {
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return col.GetString(a) < col.GetString(b);
    });
  }
  return order;
}

int CompareKeys(const Column& a, size_t i, const Column& b, size_t j) {
  if (a.type() == DataType::kInt64) {
    int64_t va = a.GetInt64(i), vb = b.GetInt64(j);
    return va < vb ? -1 : (va > vb ? 1 : 0);
  }
  int c = a.GetString(i).compare(b.GetString(j));
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

}  // namespace

Result<Table> SortMergeJoin(const Table& left, const Table& right,
                            const std::string& left_key, const std::string& right_key,
                            const std::string& clash_prefix) {
  DMML_ASSIGN_OR_RETURN(size_t lk, left.schema().RequireField(left_key));
  DMML_ASSIGN_OR_RETURN(size_t rk, right.schema().RequireField(right_key));
  const Column& lcol = left.column(lk);
  const Column& rcol = right.column(rk);
  if (lcol.type() != rcol.type()) {
    return Status::InvalidArgument("join key type mismatch");
  }
  if (lcol.type() != DataType::kInt64 && lcol.type() != DataType::kString) {
    return Status::InvalidArgument("join keys must be INT64 or STRING");
  }

  DMML_TRACE_SPAN("relational.sort_merge_join");
  Stopwatch sort_watch;
  auto lorder = SortedKeyOrder(lcol, left.num_rows());
  auto rorder = SortedKeyOrder(rcol, right.num_rows());
  DMML_COUNTER_ADD("relational.smj.sort_us", sort_watch.ElapsedMicros());

  Stopwatch merge_watch;
  std::vector<size_t> lrows, rrows;

  size_t li = 0, ri = 0;
  while (li < lorder.size() && ri < rorder.size()) {
    int cmp = CompareKeys(lcol, lorder[li], rcol, rorder[ri]);
    if (cmp < 0) {
      ++li;
    } else if (cmp > 0) {
      ++ri;
    } else {
      // Key group boundaries on both sides.
      size_t lend = li;
      while (lend + 1 < lorder.size() &&
             CompareKeys(lcol, lorder[lend + 1], lcol, lorder[li]) == 0) {
        ++lend;
      }
      size_t rend = ri;
      while (rend + 1 < rorder.size() &&
             CompareKeys(rcol, rorder[rend + 1], rcol, rorder[ri]) == 0) {
        ++rend;
      }
      for (size_t a = li; a <= lend; ++a) {
        for (size_t b = ri; b <= rend; ++b) {
          lrows.push_back(lorder[a]);
          rrows.push_back(rorder[b]);
        }
      }
      li = lend + 1;
      ri = rend + 1;
    }
  }
  JoinOptions options;
  options.clash_prefix = clash_prefix;
  Result<Table> out = GatherJoinRows(left, right, lrows, rrows, options);
  DMML_COUNTER_ADD("relational.smj.merge_us", merge_watch.ElapsedMicros());
  DMML_COUNTER_ADD("relational.smj.rows_emitted", lrows.size());
  return out;
}

}  // namespace dmml::relational
