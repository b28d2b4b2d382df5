// Tests for table statistics and cardinality estimation.
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "data/generators.h"
#include "relational/operators.h"
#include "relational/statistics.h"

namespace dmml::relational {
namespace {

using storage::DataType;
using storage::Schema;
using storage::Table;

Table NumbersTable() {
  Table t(Schema({{"v", DataType::kDouble, true},
                  {"cat", DataType::kString, true},
                  {"id", DataType::kInt64, false}}));
  for (int i = 0; i < 100; ++i) {
    storage::Value v = i < 90 ? storage::Value(static_cast<double>(i % 10))
                              : storage::Value(std::monostate{});
    EXPECT_TRUE(t.AppendRow({v, std::string(i % 2 ? "odd" : "even"),
                             static_cast<int64_t>(i)})
                    .ok());
  }
  return t;
}

TEST(StatisticsTest, CollectsBasicFacts) {
  auto stats = CollectStatistics(NumbersTable());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->num_rows, 100u);
  const auto* v = stats->Find("v");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->null_count, 10u);
  EXPECT_EQ(v->distinct_count, 10u);
  EXPECT_DOUBLE_EQ(*v->min_value, 0.0);
  EXPECT_DOUBLE_EQ(*v->max_value, 9.0);
  size_t total = 0;
  for (size_t b : v->histogram) total += b;
  EXPECT_EQ(total, 90u);  // Non-NULL rows.

  const auto* cat = stats->Find("cat");
  ASSERT_NE(cat, nullptr);
  EXPECT_EQ(cat->distinct_count, 2u);
  EXPECT_FALSE(cat->min_value.has_value());

  const auto* id = stats->Find("id");
  ASSERT_NE(id, nullptr);
  EXPECT_EQ(id->distinct_count, 100u);
  EXPECT_EQ(stats->Find("ghost"), nullptr);
}

TEST(StatisticsTest, EqualitySelectivityIsOneOverNdv) {
  auto stats = *CollectStatistics(NumbersTable());
  auto sel = EstimateSelectivity(stats, "v", CompareOp::kEq, 3.0);
  ASSERT_TRUE(sel.ok());
  // 1/10 distinct, scaled by 90% non-NULL.
  EXPECT_NEAR(*sel, 0.1 * 0.9, 1e-12);
  // Out-of-range equality is zero.
  EXPECT_DOUBLE_EQ(*EstimateSelectivity(stats, "v", CompareOp::kEq, 42.0), 0.0);
}

TEST(StatisticsTest, RangeSelectivityTracksActualFractions) {
  auto table = NumbersTable();
  auto stats = *CollectStatistics(table);
  for (double threshold : {2.0, 5.0, 8.0}) {
    auto est = EstimateSelectivity(stats, "v", CompareOp::kLt, threshold);
    ASSERT_TRUE(est.ok());
    auto filtered = Filter(table, Compare("v", CompareOp::kLt, threshold));
    ASSERT_TRUE(filtered.ok());
    double actual = static_cast<double>(filtered->num_rows()) / 100.0;
    EXPECT_NEAR(*est, actual, 0.1) << "threshold " << threshold;
  }
}

TEST(StatisticsTest, GtComplementsLt) {
  auto stats = *CollectStatistics(NumbersTable());
  auto lt = *EstimateSelectivity(stats, "v", CompareOp::kLt, 5.0);
  auto ge = *EstimateSelectivity(stats, "v", CompareOp::kGe, 5.0);
  EXPECT_NEAR(lt + ge, 0.9, 1e-9);  // Non-NULL fraction.
}

TEST(StatisticsTest, StringColumnsHaveNoRangeEstimates) {
  auto stats = *CollectStatistics(NumbersTable());
  auto sel = EstimateSelectivity(stats, "cat", CompareOp::kEq, 1.0);
  ASSERT_TRUE(sel.ok());
  EXPECT_DOUBLE_EQ(*sel, 0.0);  // No numeric min/max collected.
}

TEST(StatisticsTest, JoinCardinalityPkFk) {
  data::StarSchemaOptions options;
  options.ns = 500;
  options.nr = 25;
  auto ds = data::MakeStarSchema(options, 1);
  auto s_stats = *CollectStatistics(ds.s);
  auto r_stats = *CollectStatistics(ds.r);
  auto est = EstimateJoinCardinality(s_stats, "fk", r_stats, "rid");
  ASSERT_TRUE(est.ok());
  // PK-FK join output is exactly nS; the formula gives |S|*|R|/max(ndv).
  EXPECT_NEAR(*est, 500.0, 1.0);
}

TEST(StatisticsTest, Validation) {
  auto table = NumbersTable();
  EXPECT_FALSE(CollectStatistics(table, 0).ok());
  auto stats = *CollectStatistics(table);
  EXPECT_FALSE(EstimateSelectivity(stats, "ghost", CompareOp::kEq, 1.0).ok());
  TableStatistics empty;
  EXPECT_FALSE(
      EstimateJoinCardinality(empty, "a", empty, "b").ok());
}

TEST(StatisticsTest, ConstantColumn) {
  Table t(Schema({{"c", DataType::kDouble, false}}));
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(t.AppendRow({7.0}).ok());
  auto stats = *CollectStatistics(t);
  const auto* c = stats.Find("c");
  EXPECT_EQ(c->distinct_count, 1u);
  EXPECT_DOUBLE_EQ(*c->min_value, 7.0);
  EXPECT_DOUBLE_EQ(*c->max_value, 7.0);
  EXPECT_NEAR(*EstimateSelectivity(stats, "c", CompareOp::kEq, 7.0), 1.0, 1e-12);
  EXPECT_NEAR(*EstimateSelectivity(stats, "c", CompareOp::kLe, 7.0), 1.0, 1e-12);
  EXPECT_NEAR(*EstimateSelectivity(stats, "c", CompareOp::kLt, 7.0), 0.0, 1e-12);
}

TEST(StatisticsTest, NonFiniteValuesStayOutOfRangeAndHistogram) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Table t(Schema({{"x", DataType::kDouble, true},
                  {"nonfinite", DataType::kDouble, true},
                  {"huge", DataType::kDouble, true}}));
  const std::vector<storage::Value> x = {nan, 1.0, -0.0, inf,  nan,
                                         0.0, -inf, 2.0, std::monostate{},
                                         -nan};
  const double nonfinite[] = {nan, inf, -inf};
  for (size_t i = 0; i < x.size(); ++i) {
    const double huge = i % 2 == 0 ? -1e308 : 1e308;
    ASSERT_TRUE(t.AppendRow({x[i], nonfinite[i % 3], huge}).ok());
  }
  auto stats = *CollectStatistics(t, 4);

  const auto* c = stats.Find("x");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->null_count, 1u);
  // NaN (all three, either sign) is one value, -0.0/+0.0 one, ±inf two, 1, 2.
  EXPECT_EQ(c->distinct_count, 6u);
  EXPECT_EQ(*c->min_value, 0.0);
  EXPECT_EQ(*c->max_value, 2.0);
  size_t finite = 0;
  for (size_t b : c->histogram) finite += b;
  EXPECT_EQ(finite, 4u);  // -0.0, 0.0, 1.0, 2.0.
  EXPECT_EQ(c->histogram.front(), 2u);
  EXPECT_EQ(c->histogram.back(), 1u);

  const auto* nf = stats.Find("nonfinite");
  ASSERT_NE(nf, nullptr);
  EXPECT_EQ(nf->distinct_count, 3u);
  EXPECT_FALSE(nf->min_value.has_value());
  EXPECT_FALSE(nf->max_value.has_value());
  EXPECT_TRUE(nf->histogram.empty());
  EXPECT_DOUBLE_EQ(*EstimateSelectivity(stats, "nonfinite", CompareOp::kLt, 0.0),
                   0.0);

  // max - min overflows to inf: every value still lands in a bucket.
  const auto* h = stats.Find("huge");
  ASSERT_NE(h, nullptr);
  size_t total = 0;
  for (size_t b : h->histogram) total += b;
  EXPECT_EQ(total, x.size());
  EXPECT_EQ(h->distinct_count, 2u);
}

}  // namespace
}  // namespace dmml::relational
