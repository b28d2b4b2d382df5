// Differential tests for the column-at-a-time relational operators and the
// per-column statistics collector. Filter, Project, HashJoin and
// SortMergeJoin are checked cell for cell, in row order, against naive
// row-at-a-time references written here over randomized tables with NULL
// keys and payloads, duplicate build-side keys, string keys and payloads,
// NaN cells, left-outer padding, clash prefixes and empty inputs. The statistics collector is checked
// against a naive hash-set reference on randomized int64/double/string/bool
// columns, and the plan-level StatisticsCache against full-table statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "data/generators.h"
#include "obs/metrics.h"
#include "relational/logical_plan.h"
#include "relational/operators.h"
#include "relational/sort_merge_join.h"
#include "relational/statistics.h"
#include "storage/catalog.h"
#include "storage/table.h"
#include "util/rng.h"

namespace dmml::relational {
namespace {

using storage::Column;
using storage::DataType;
using storage::Field;
using storage::Schema;
using storage::Table;
using storage::Value;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Randomized table: int64 key `k`, string key `s` (both NULL-able, drawn
// from small spaces so keys repeat), double `v` (NULLs, some NaN), bool `b`
// and string payload `name`.
Table RandomTable(size_t rows, uint64_t key_space, double null_prob,
                  uint64_t seed) {
  Table t(Schema({{"k", DataType::kInt64, true},
                  {"s", DataType::kString, true},
                  {"v", DataType::kDouble, true},
                  {"b", DataType::kBool, true},
                  {"name", DataType::kString, false}}));
  Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    Value k, s, v, b;
    if (!rng.Bernoulli(null_prob)) {
      k = static_cast<int64_t>(rng.UniformInt(key_space));
    }
    if (!rng.Bernoulli(null_prob)) {
      s = "key" + std::to_string(rng.UniformInt(key_space));
    }
    if (!rng.Bernoulli(null_prob)) {
      v = rng.Bernoulli(0.05) ? kNaN : std::round(rng.Normal(0, 4));
    }
    if (!rng.Bernoulli(null_prob)) b = rng.Bernoulli(0.5);
    EXPECT_TRUE(
        t.AppendRow({k, s, v, b, "row" + std::to_string(rng.UniformInt(1000))})
            .ok());
  }
  return t;
}

// Cell equality that treats two NaNs as equal (payloads are copied, not
// computed, so their bits must survive).
bool SameValue(const Value& a, const Value& b) {
  const auto* da = std::get_if<double>(&a);
  const auto* db = std::get_if<double>(&b);
  if (da != nullptr && db != nullptr) {
    return std::memcmp(da, db, sizeof(double)) == 0;
  }
  return a == b;
}

void ExpectSameTable(const Table& got, const Table& want) {
  ASSERT_TRUE(got.schema() == want.schema())
      << got.schema().ToString() << " vs " << want.schema().ToString();
  ASSERT_EQ(got.num_rows(), want.num_rows());
  for (size_t c = 0; c < want.num_columns(); ++c) {
    EXPECT_EQ(got.column(c).null_count(), want.column(c).null_count())
        << "column " << c;
    for (size_t i = 0; i < want.num_rows(); ++i) {
      ASSERT_TRUE(SameValue(got.column(c).GetValue(i), want.column(c).GetValue(i)))
          << "cell (" << i << ", " << want.schema().field(c).name << ")";
    }
  }
}

// ---------------------------------------------------------------------------
// Row-at-a-time references.

// A predicate tree that builds the library predicate and also evaluates one
// row at a time with the documented semantics: NULL or incomparable cells
// compare false, NOT complements the collapsed result.
struct RefPredicate {
  enum Kind { kCompare, kAnd, kOr, kNot, kIsNull } kind = kCompare;
  std::string column;
  CompareOp op = CompareOp::kEq;
  Value literal;
  std::shared_ptr<RefPredicate> lhs, rhs;

  PredicatePtr Build() const {
    switch (kind) {
      case kCompare: return Compare(column, op, literal);
      case kAnd: return And(lhs->Build(), rhs->Build());
      case kOr: return Or(lhs->Build(), rhs->Build());
      case kNot: return Not(lhs->Build());
      case kIsNull: return IsNull(column);
    }
    return nullptr;
  }

  bool Eval(const Table& t, size_t row) const {
    switch (kind) {
      case kCompare: return EvalCompare(t, row);
      case kAnd: return lhs->Eval(t, row) && rhs->Eval(t, row);
      case kOr: return lhs->Eval(t, row) || rhs->Eval(t, row);
      case kNot: return !lhs->Eval(t, row);
      case kIsNull: return !(*t.ColumnByName(column))->IsValid(row);
    }
    return false;
  }

  bool EvalCompare(const Table& t, size_t row) const {
    const Column& col = **t.ColumnByName(column);
    if (!col.IsValid(row)) return false;
    int cmp = 0;
    auto three = [](auto a, auto b) { return a < b ? -1 : (a > b ? 1 : 0); };
    switch (col.type()) {
      case DataType::kInt64:
        if (const auto* i = std::get_if<int64_t>(&literal)) {
          cmp = three(col.GetInt64(row), *i);
        } else if (const auto* d = std::get_if<double>(&literal)) {
          cmp = three(static_cast<double>(col.GetInt64(row)), *d);
        } else {
          return false;
        }
        break;
      case DataType::kDouble:
        if (const auto* d = std::get_if<double>(&literal)) {
          cmp = three(col.GetDouble(row), *d);
        } else if (const auto* i = std::get_if<int64_t>(&literal)) {
          cmp = three(col.GetDouble(row), static_cast<double>(*i));
        } else {
          return false;
        }
        break;
      case DataType::kString:
        if (const auto* s = std::get_if<std::string>(&literal)) {
          cmp = three(col.GetString(row).compare(*s), 0);
        } else {
          return false;
        }
        break;
      case DataType::kBool:
        if (const auto* b = std::get_if<bool>(&literal)) {
          cmp = three(col.GetBool(row) ? 1 : 0, *b ? 1 : 0);
        } else {
          return false;
        }
        break;
    }
    switch (op) {
      case CompareOp::kEq: return cmp == 0;
      case CompareOp::kNe: return cmp != 0;
      case CompareOp::kLt: return cmp < 0;
      case CompareOp::kLe: return cmp <= 0;
      case CompareOp::kGt: return cmp > 0;
      case CompareOp::kGe: return cmp >= 0;
    }
    return false;
  }
};

using RefPtr = std::shared_ptr<RefPredicate>;

RefPtr Leaf(std::string column, CompareOp op, Value literal) {
  auto p = std::make_shared<RefPredicate>();
  p->column = std::move(column);
  p->op = op;
  p->literal = std::move(literal);
  return p;
}

RefPtr Node(RefPredicate::Kind kind, RefPtr lhs, RefPtr rhs = nullptr) {
  auto p = std::make_shared<RefPredicate>();
  p->kind = kind;
  p->lhs = std::move(lhs);
  p->rhs = std::move(rhs);
  return p;
}

RefPtr NullTest(std::string column) {
  auto p = std::make_shared<RefPredicate>();
  p->kind = RefPredicate::kIsNull;
  p->column = std::move(column);
  return p;
}

Table RefFilter(const Table& t, const RefPredicate& pred) {
  Table out(t.schema());
  for (size_t i = 0; i < t.num_rows(); ++i) {
    if (pred.Eval(t, i)) {
      EXPECT_TRUE(out.AppendRow(t.GetRow(i)).ok());
    }
  }
  return out;
}

Table RefProject(const Table& t, const std::vector<std::string>& columns) {
  std::vector<size_t> idx;
  std::vector<Field> fields;
  for (const auto& c : columns) {
    idx.push_back(*t.schema().FieldIndex(c));
    fields.push_back(t.schema().field(idx.back()));
  }
  Table out{Schema(std::move(fields))};
  for (size_t i = 0; i < t.num_rows(); ++i) {
    std::vector<Value> row;
    for (size_t j : idx) row.push_back(t.column(j).GetValue(i));
    EXPECT_TRUE(out.AppendRow(row).ok());
  }
  return out;
}

// Nested-loop equi-join: left rows in order, each one's matches in right-row
// order; NULL keys never match.
Table RefJoin(const Table& left, const Table& right, const std::string& lk,
              const std::string& rk, const JoinOptions& options) {
  const Column& lcol = **left.ColumnByName(lk);
  const Column& rcol = **right.ColumnByName(rk);
  std::vector<Field> rfields = right.schema().fields();
  if (options.type == JoinType::kLeftOuter) {
    for (auto& f : rfields) f.nullable = true;
  }
  Table out(left.schema().Concat(Schema(rfields), options.clash_prefix));
  for (size_t i = 0; i < left.num_rows(); ++i) {
    bool matched = false;
    for (size_t r = 0; r < right.num_rows(); ++r) {
      if (!lcol.IsValid(i) || !rcol.IsValid(r)) continue;
      if (!(lcol.GetValue(i) == rcol.GetValue(r))) continue;
      matched = true;
      std::vector<Value> row = left.GetRow(i);
      for (Value& v : right.GetRow(r)) row.push_back(std::move(v));
      EXPECT_TRUE(out.AppendRow(row).ok());
    }
    if (!matched && options.type == JoinType::kLeftOuter) {
      std::vector<Value> row = left.GetRow(i);
      row.resize(row.size() + right.num_columns());
      EXPECT_TRUE(out.AppendRow(row).ok());
    }
  }
  return out;
}

// Key-ordered inner join: keys ascending, then left rows, then right rows.
Table RefSortMergeJoin(const Table& left, const Table& right,
                       const std::string& key, const std::string& prefix) {
  const Column& lcol = **left.ColumnByName(key);
  const Column& rcol = **right.ColumnByName(key);
  auto less = [](const Value& a, const Value& b) { return a < b; };
  std::vector<Value> keys;
  for (size_t i = 0; i < left.num_rows(); ++i) {
    if (lcol.IsValid(i)) keys.push_back(lcol.GetValue(i));
  }
  std::sort(keys.begin(), keys.end(), less);
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  Table out(left.schema().Concat(right.schema(), prefix));
  for (const Value& k : keys) {
    for (size_t i = 0; i < left.num_rows(); ++i) {
      if (!lcol.IsValid(i) || !(lcol.GetValue(i) == k)) continue;
      for (size_t r = 0; r < right.num_rows(); ++r) {
        if (!rcol.IsValid(r) || !(rcol.GetValue(r) == k)) continue;
        std::vector<Value> row = left.GetRow(i);
        for (Value& v : right.GetRow(r)) row.push_back(std::move(v));
        EXPECT_TRUE(out.AppendRow(row).ok());
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Operators.

std::vector<RefPtr> Predicates() {
  auto v_gt = Leaf("v", CompareOp::kGt, 0.0);
  auto k_le = Leaf("k", CompareOp::kLe, int64_t{3});
  auto s_eq = Leaf("s", CompareOp::kEq, std::string("key2"));
  return {
      v_gt,
      k_le,
      Leaf("k", CompareOp::kLt, 2.5),        // Int column, double literal.
      Leaf("v", CompareOp::kEq, int64_t{1}),  // Double column, int literal.
      Leaf("v", CompareOp::kNe, 0.0),         // NaN cells compare equal.
      s_eq,
      Leaf("s", CompareOp::kGe, std::string("key3")),
      Leaf("b", CompareOp::kEq, true),
      Leaf("name", CompareOp::kEq, int64_t{1}),  // Incomparable: keeps none.
      NullTest("v"),
      Node(RefPredicate::kAnd, v_gt, k_le),
      Node(RefPredicate::kOr, s_eq, NullTest("k")),
      Node(RefPredicate::kNot, v_gt),  // NULL comparisons are kept by NOT.
      Node(RefPredicate::kNot, Node(RefPredicate::kOr, k_le, s_eq)),
  };
}

class ColumnarDiff : public ::testing::TestWithParam<int> {};

TEST_P(ColumnarDiff, FilterMatchesRowAtATime) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  for (size_t rows : {size_t{0}, size_t{1}, size_t{97}}) {
    Table t = RandomTable(rows, 6, 0.2, seed * 31 + rows);
    for (const RefPtr& p : Predicates()) {
      Result<Table> got = Filter(t, p->Build());
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectSameTable(*got, RefFilter(t, *p));
    }
  }
}

TEST_P(ColumnarDiff, ProjectMatchesRowAtATime) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  for (size_t rows : {size_t{0}, size_t{53}}) {
    Table t = RandomTable(rows, 6, 0.2, seed * 17 + rows);
    for (const std::vector<std::string>& cols :
         std::vector<std::vector<std::string>>{
             {"name", "v"}, {"b", "s", "k", "v", "name"}, {"s"}}) {
      Result<Table> got = Project(t, cols);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectSameTable(*got, RefProject(t, cols));
    }
  }
}

TEST_P(ColumnarDiff, HashJoinMatchesNestedLoop) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  // Sizes include empty sides; the key spaces make build keys repeat.
  const std::vector<std::pair<size_t, size_t>> sizes = {
      {80, 30}, {0, 30}, {80, 0}, {0, 0}, {25, 60}};
  for (const auto& [nl, nr] : sizes) {
    Table left = RandomTable(nl, 8, 0.15, seed * 101 + nl);
    Table right = RandomTable(nr, 8, 0.15, seed * 103 + nr + 7);
    for (const char* key : {"k", "s"}) {
      for (JoinType type : {JoinType::kInner, JoinType::kLeftOuter}) {
        for (const char* prefix : {"r_", "dim."}) {
          JoinOptions options;
          options.type = type;
          options.clash_prefix = prefix;
          Result<Table> got = HashJoin(left, right, key, key, options);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          SCOPED_TRACE(std::string("key ") + key + ", left " +
                       std::to_string(nl) + ", right " + std::to_string(nr));
          ExpectSameTable(*got, RefJoin(left, right, key, key, options));
        }
      }
      Result<Table> smj = SortMergeJoin(left, right, key, key, "r_");
      ASSERT_TRUE(smj.ok()) << smj.status().ToString();
      ExpectSameTable(*smj, RefSortMergeJoin(left, right, key, "r_"));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ColumnarDiff, ::testing::Range(0, 5));

TEST(ColumnarOps, HashJoinRejectsNonKeyTypes) {
  Table t = RandomTable(10, 4, 0.0, 1);
  EXPECT_FALSE(HashJoin(t, t, "v", "v").ok());
  EXPECT_FALSE(HashJoin(t, t, "k", "s").ok());
}

TEST(ColumnarOps, GatherPadsNullRows) {
  Column c(DataType::kString);
  c.AppendString("a");
  c.AppendNull();
  c.AppendString("c");
  Column g = c.Gather({2, Column::kNullRow, 1, 0, 0});
  ASSERT_EQ(g.size(), 5u);
  EXPECT_EQ(g.null_count(), 2u);
  EXPECT_EQ(g.GetString(0), "c");
  EXPECT_FALSE(g.IsValid(1));
  EXPECT_FALSE(g.IsValid(2));
  EXPECT_EQ(g.GetString(3), "a");
  EXPECT_EQ(g.GetString(4), "a");
}

TEST(ColumnarOps, FromColumnsValidates) {
  Schema schema({{"x", DataType::kInt64, false}});
  Column ok(DataType::kInt64);
  ok.AppendInt64(1);
  EXPECT_TRUE(Table::FromColumns(schema, {ok}, 1).ok());
  EXPECT_FALSE(Table::FromColumns(schema, {ok}, 2).ok());  // Length.
  EXPECT_FALSE(Table::FromColumns(schema, {}, 1).ok());    // Arity.
  Column wrong(DataType::kDouble);
  wrong.AppendDouble(1.0);
  EXPECT_FALSE(Table::FromColumns(schema, {wrong}, 1).ok());  // Type.
  Column null(DataType::kInt64);
  null.AppendNull();
  EXPECT_FALSE(Table::FromColumns(schema, {null}, 1).ok());  // Nullability.
}

// ---------------------------------------------------------------------------
// Statistics.

// The exact-statistics algorithm the collector replaced (hash sets, per-cell
// numeric reads, histogram over [min, max]); valid for finite values.
ColumnStatistics NaiveStatistics(const Column& col, const std::string& name,
                                 size_t buckets) {
  ColumnStatistics cs;
  cs.name = name;
  cs.num_rows = col.size();
  cs.null_count = col.null_count();
  if (col.type() == DataType::kString) {
    std::unordered_set<std::string> distinct;
    for (size_t i = 0; i < col.size(); ++i) {
      if (col.IsValid(i)) distinct.insert(col.GetString(i));
    }
    cs.distinct_count = distinct.size();
    return cs;
  }
  std::unordered_set<double> distinct;
  double mn = std::numeric_limits<double>::infinity();
  double mx = -mn;
  for (size_t i = 0; i < col.size(); ++i) {
    if (!col.IsValid(i)) continue;
    const double v = *col.GetNumeric(i);
    distinct.insert(v);
    mn = std::min(mn, v);
    mx = std::max(mx, v);
  }
  cs.distinct_count = distinct.size();
  if (distinct.empty()) return cs;
  cs.min_value = mn;
  cs.max_value = mx;
  cs.histogram.assign(buckets, 0);
  const double width = (mx - mn) / static_cast<double>(buckets);
  for (size_t i = 0; i < col.size(); ++i) {
    if (!col.IsValid(i)) continue;
    const double v = *col.GetNumeric(i);
    cs.histogram[width > 0 ? std::min(buckets - 1,
                                      static_cast<size_t>((v - mn) / width))
                           : 0]++;
  }
  return cs;
}

void ExpectSameStatistics(const ColumnStatistics& got,
                          const ColumnStatistics& want) {
  EXPECT_EQ(got.name, want.name);
  EXPECT_EQ(got.num_rows, want.num_rows);
  EXPECT_EQ(got.null_count, want.null_count);
  EXPECT_EQ(got.distinct_count, want.distinct_count) << want.name;
  EXPECT_EQ(got.min_value, want.min_value) << want.name;
  EXPECT_EQ(got.max_value, want.max_value) << want.name;
  EXPECT_EQ(got.histogram, want.histogram) << want.name;
}

TEST(ColumnStatisticsDiff, CollectorMatchesNaiveAndFullTable) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng(seed);
    const size_t rows = seed == 0 ? 0 : 1 + rng.UniformInt(uint64_t{400});
    Table t(Schema({{"i", DataType::kInt64, true},
                    {"wide", DataType::kInt64, true},
                    {"d", DataType::kDouble, true},
                    {"s", DataType::kString, true},
                    {"b", DataType::kBool, true},
                    {"allnull", DataType::kDouble, true}}));
    for (size_t r = 0; r < rows; ++r) {
      auto maybe = [&](Value v) {
        return rng.Bernoulli(0.15) ? Value(std::monostate{}) : v;
      };
      ASSERT_TRUE(
          t.AppendRow(
               {maybe(static_cast<int64_t>(rng.UniformInt(uint64_t{20}))),
                maybe(static_cast<int64_t>(rng.Next() >> 1)),
                maybe(rng.Bernoulli(0.1) ? -0.0 : std::round(rng.Normal(0, 50)) / 4),
                maybe("v" + std::to_string(rng.UniformInt(uint64_t{30}))),
                maybe(rng.Bernoulli(0.3)), Value(std::monostate{})})
              .ok());
    }
    for (size_t buckets : {size_t{1}, size_t{7}, size_t{16}}) {
      Result<TableStatistics> full = CollectStatistics(t, buckets);
      ASSERT_TRUE(full.ok());
      ASSERT_EQ(full->columns.size(), t.num_columns());
      for (size_t c = 0; c < t.num_columns(); ++c) {
        const std::string& name = t.schema().field(c).name;
        Result<ColumnStatistics> one =
            CollectColumnStatistics(t.column(c), name, buckets);
        ASSERT_TRUE(one.ok());
        ExpectSameStatistics(*one, full->columns[c]);
        ExpectSameStatistics(*one, NaiveStatistics(t.column(c), name, buckets));
      }
    }
  }
  EXPECT_FALSE(CollectColumnStatistics(Column(DataType::kInt64), "x", 0).ok());
}

storage::Catalog StarCatalog() {
  data::StarSchemaOptions o;
  o.ns = 500;
  o.nr = 20;
  o.ds = 2;
  o.dr = 3;
  o.noise_sigma = 0.1;
  auto gen = data::MakeStarSchema(o, 7);
  storage::Catalog catalog;
  catalog.PutTable("orders", std::move(gen.s));
  catalog.PutTable("products", std::move(gen.r));
  return catalog;
}

TEST(StatisticsCacheTest, EstimatesMatchFullTableStatistics) {
  storage::Catalog catalog = StarCatalog();
  const Table& orders = **catalog.GetTable("orders");
  const Table& products = **catalog.GetTable("products");
  const TableStatistics o = *CollectStatistics(orders);
  const TableStatistics p = *CollectStatistics(products);

  const PredicatePtr pred = And(Compare("xs0", CompareOp::kGt, 0.0),
                                Compare("xs1", CompareOp::kLe, 1.0));
  auto filtered = LogicalNode::Filter(LogicalNode::Scan("orders"), pred);
  auto joined = LogicalNode::Join(filtered, LogicalNode::Scan("products"),
                                  "fk", "rid");
  StatisticsCache stats(&catalog);
  Result<double> filter_est = EstimateCardinality(*filtered, &stats);
  Result<double> join_est = EstimateCardinality(*joined, &stats);
  ASSERT_TRUE(filter_est.ok());
  ASSERT_TRUE(join_est.ok());

  // The same formulas over statistics of every column.
  const double want_filter = 500.0 * pred->EstimateSelectivity(o);
  const double ndv = static_cast<double>(std::max(
      o.Find("fk")->distinct_count, p.Find("rid")->distinct_count));
  EXPECT_EQ(*filter_est, want_filter);
  EXPECT_EQ(*join_est, want_filter * 20.0 / ndv);
}

TEST(StatisticsCacheTest, CollectsOnlyReferencedColumnsOnce) {
  storage::Catalog catalog = StarCatalog();
  obs::Counter* collected = obs::MetricsRegistry::Global().GetCounter(
      "relational.stats.columns_collected");
  auto plan = LogicalNode::Join(
      LogicalNode::Filter(LogicalNode::Scan("orders"),
                          Compare("xs0", CompareOp::kGt, 0.0)),
      LogicalNode::Scan("products"), "fk", "rid");

  StatisticsCache stats(&catalog);
  const uint64_t before = collected->Value();
  ASSERT_TRUE(EstimateCardinality(*plan, &stats).ok());
  // xs0 and fk on orders, rid on products: 3 of the star's 9 columns.
  EXPECT_EQ(collected->Value() - before, 3u);

  // Re-estimating and executing reuse the cached columns.
  ASSERT_TRUE(EstimateCardinality(*plan, &stats).ok());
  ASSERT_TRUE(ExecutePlan(*plan, catalog, &stats).ok());
  EXPECT_EQ(collected->Value() - before, 3u);

  // Unknown names are skipped, not collected or failed.
  Result<const TableStatistics*> s = stats.Get("orders", {"ghost"});
  ASSERT_TRUE(s.ok());
  EXPECT_EQ((*s)->Find("ghost"), nullptr);
  EXPECT_EQ((*s)->num_rows, 500u);
  EXPECT_FALSE(stats.Get("missing", {}).ok());
}

}  // namespace
}  // namespace dmml::relational
