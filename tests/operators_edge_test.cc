#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <vector>

#include "relational/catalog.h"
#include "relational/csv.h"
#include "relational/kernels.h"
#include "relational/operators.h"
#include "relational/table.h"

namespace cape {
namespace {

TablePtr SmallTable() {
  auto table = MakeEmptyTable({Field{"k", DataType::kString, true},
                               Field{"v", DataType::kInt64, true}});
  auto add = [&](Value k, Value v) {
    EXPECT_TRUE(table->AppendRow({std::move(k), std::move(v)}).ok());
  };
  add(Value::String("b"), Value::Int64(1));
  add(Value::String("a"), Value::Int64(2));
  add(Value::String("b"), Value::Int64(3));
  add(Value::Null(), Value::Int64(4));
  add(Value::String("a"), Value::Null());
  return table;
}

TEST(SortEdgeTest, DescendingPutsNullsLast) {
  auto table = SmallTable();
  auto sorted = SortTable(*table, {SortKey{0, false}});
  ASSERT_TRUE(sorted.ok());
  // Descending: b, b, a, a, NULL (nulls sort first ascending => last desc).
  EXPECT_EQ((*sorted)->GetValue(0, 0), Value::String("b"));
  EXPECT_TRUE((*sorted)->GetValue(4, 0).is_null());
}

TEST(SortEdgeTest, StableWithinEqualKeys) {
  auto table = SmallTable();
  auto sorted = SortTable(*table, {SortKey{0, true}});
  ASSERT_TRUE(sorted.ok());
  // The two "b" rows keep their original relative order (v=1 before v=3).
  EXPECT_EQ((*sorted)->GetValue(1, 1), Value::Int64(2));  // first "a" row
  EXPECT_EQ((*sorted)->GetValue(3, 1), Value::Int64(1));
  EXPECT_EQ((*sorted)->GetValue(4, 1), Value::Int64(3));
}

TEST(SortEdgeTest, EmptyTableAndNoKeys) {
  auto empty = MakeEmptyTable({Field{"x", DataType::kInt64, true}});
  auto sorted = SortTable(*empty, {SortKey{0, true}});
  ASSERT_TRUE(sorted.ok());
  EXPECT_EQ((*sorted)->num_rows(), 0);

  auto table = SmallTable();
  auto identity = SortTable(*table, {});
  ASSERT_TRUE(identity.ok());
  EXPECT_EQ((*identity)->num_rows(), table->num_rows());
  EXPECT_EQ((*identity)->GetValue(0, 0), table->GetValue(0, 0));
}

TEST(CubeEdgeTest, EmptyBandYieldsNoRows) {
  auto table = SmallTable();
  CubeOptions options;
  options.min_group_size = 3;  // > number of cube columns
  auto cube = Cube(*table, {0}, {AggregateSpec::CountStar("n")}, options);
  ASSERT_TRUE(cube.ok());
  EXPECT_EQ((*cube)->num_rows(), 0);
}

TEST(CubeEdgeTest, WithoutGroupingIdColumn) {
  auto table = SmallTable();
  CubeOptions options;
  options.add_grouping_id = false;
  auto cube = Cube(*table, {0}, {AggregateSpec::CountStar("n")}, options);
  ASSERT_TRUE(cube.ok());
  EXPECT_EQ((*cube)->num_columns(), 2);  // k, n only
}

TEST(CubeEdgeTest, EmptyInputTable) {
  auto empty = MakeEmptyTable({Field{"x", DataType::kInt64, true}});
  auto cube = Cube(*empty, {0}, {AggregateSpec::CountStar("n")});
  ASSERT_TRUE(cube.ok());
  // Only the global grouping produces a row (count = 0).
  ASSERT_EQ((*cube)->num_rows(), 1);
  EXPECT_EQ((*cube)->GetValue(0, 1), Value::Int64(0));
}

TEST(CubeEdgeTest, TooManyColumnsRejected) {
  std::vector<Field> fields;
  for (int i = 0; i < 21; ++i) {
    fields.push_back(Field{"c" + std::to_string(i), DataType::kInt64, true});
  }
  auto wide = MakeEmptyTable(std::move(fields));
  std::vector<int> cols;
  for (int i = 0; i < 21; ++i) cols.push_back(i);
  EXPECT_TRUE(Cube(*wide, cols, {AggregateSpec::CountStar("n")})
                  .status()
                  .IsInvalidArgument());
}

TEST(FilterEdgeTest, NoConditionsKeepsEverything) {
  auto table = SmallTable();
  auto all = FilterEquals(*table, {});
  ASSERT_TRUE(all.ok());
  EXPECT_EQ((*all)->num_rows(), table->num_rows());
}

TEST(ProjectEdgeTest, DuplicateColumnsAllowed) {
  auto table = SmallTable();
  auto doubled = Project(*table, {1, 1});
  ASSERT_TRUE(doubled.ok());
  EXPECT_EQ((*doubled)->num_columns(), 2);
  EXPECT_EQ((*doubled)->GetValue(0, 0), (*doubled)->GetValue(0, 1));
}

TEST(ProjectDistinctEdgeTest, MultiColumnWithNulls) {
  auto table = SmallTable();
  auto distinct = ProjectDistinct(*table, {0});
  ASSERT_TRUE(distinct.ok());
  EXPECT_EQ((*distinct)->num_rows(), 3);  // "b", "a", NULL
}

TEST(GroupByEdgeTest, FirstSeenGroupOrderIsDeterministic) {
  auto table = SmallTable();
  auto grouped = GroupByAggregate(*table, std::vector<int>{0},
                                  {AggregateSpec::CountStar("n")});
  ASSERT_TRUE(grouped.ok());
  // Order of appearance: b, a, NULL.
  EXPECT_EQ((*grouped)->GetValue(0, 0), Value::String("b"));
  EXPECT_EQ((*grouped)->GetValue(1, 0), Value::String("a"));
  EXPECT_TRUE((*grouped)->GetValue(2, 0).is_null());
}

TEST(GroupByEdgeTest, MinMaxOverStringsWork) {
  auto table = SmallTable();
  auto grouped = GroupByAggregate(
      *table, std::vector<int>{},
      {AggregateSpec::Min(0, "lo"), AggregateSpec::Max(0, "hi")});
  ASSERT_TRUE(grouped.ok());
  EXPECT_EQ((*grouped)->GetValue(0, 0), Value::String("a"));
  EXPECT_EQ((*grouped)->GetValue(0, 1), Value::String("b"));
}

// ---------------------------------------------------------------------------
// Doubles follow PostgreSQL's float rule (value.h): NaN equals NaN and sorts
// above every number, and -0.0 equals 0.0, in σ, γ/DISTINCT, min/max and
// sort alike.

TablePtr DoubleTable(const std::vector<Value>& xs) {
  auto table = MakeEmptyTable({Field{"x", DataType::kDouble, true}});
  for (const Value& x : xs) EXPECT_TRUE(table->AppendRow({x}).ok());
  return table;
}

const double kNan = std::numeric_limits<double>::quiet_NaN();

TEST(FloatRuleTest, SelectionMatchesPostgresqlEquality) {
  auto table = DoubleTable({Value::Double(1.0), Value::Double(kNan), Value::Double(2.0),
                            Value::Double(1.0)});
  auto rows = [&](double v) {
    auto selected = FilterEquals(*table, {{0, Value::Double(v)}});
    EXPECT_TRUE(selected.ok());
    auto counted = CountFilterMatches(*table, {{0, Value::Double(v)}});
    EXPECT_TRUE(counted.ok());
    EXPECT_EQ(*counted, (*selected)->num_rows());
    return (*selected)->num_rows();
  };
  EXPECT_EQ(rows(1.0), 2);
  EXPECT_EQ(rows(2.0), 1);
  EXPECT_EQ(rows(kNan), 1);
  EXPECT_EQ(rows(-kNan), 1);
  EXPECT_EQ(rows(3.0), 0);

  auto zeros = DoubleTable({Value::Double(0.0), Value::Double(-0.0), Value::Null()});
  for (double zero : {0.0, -0.0}) {
    auto selected = FilterEquals(*zeros, {{0, Value::Double(zero)}});
    ASSERT_TRUE(selected.ok());
    EXPECT_EQ((*selected)->num_rows(), 2);  // both zeros, not the NULL
  }
  // An int64 column never holds NaN.
  auto ints = MakeEmptyTable({Field{"n", DataType::kInt64, true}});
  ASSERT_TRUE(ints->AppendRow({Value::Int64(0)}).ok());
  auto none = CountFilterMatches(*ints, {{0, Value::Double(kNan)}});
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(*none, 0);
}

TEST(FloatRuleTest, Int64CellsEqualOnlyTheExactDouble) {
  // 2^53 + 1 is no double: the double 2^53 selects the 2^53 row alone.
  const int64_t edge = int64_t{1} << 53;
  auto ints = MakeEmptyTable({Field{"n", DataType::kInt64, true}});
  for (int64_t n : {edge, edge + 1, int64_t{2}}) {
    ASSERT_TRUE(ints->AppendRow({Value::Int64(n)}).ok());
  }
  auto count = [&](const Value& v) {
    auto counted = CountFilterMatches(*ints, {{0, v}});
    EXPECT_TRUE(counted.ok());
    return *counted;
  };
  EXPECT_EQ(count(Value::Double(0x1p53)), 1);
  EXPECT_EQ(count(Value::Int64(edge + 1)), 1);
  EXPECT_EQ(count(Value::Double(2.0)), 1);
  EXPECT_EQ(count(Value::Double(2.5)), 0);
  auto doubles = DoubleTable({Value::Double(0x1p53), Value::Double(2.0)});
  auto counted = CountFilterMatches(*doubles, {{0, Value::Int64(edge + 1)}});
  ASSERT_TRUE(counted.ok());
  EXPECT_EQ(*counted, 0);
}

TEST(FloatRuleTest, DistinctKeysEveryNanAndBothZerosTogether) {
  auto table = DoubleTable({Value::Double(kNan), Value::Double(-kNan), Value::Double(0.0),
                            Value::Double(-0.0)});
  auto distinct = ProjectDistinct(*table, {0});
  ASSERT_TRUE(distinct.ok());
  EXPECT_EQ((*distinct)->num_rows(), 2);
  auto grouped =
      GroupByAggregate(*table, std::vector<int>{0}, {AggregateSpec::CountStar("n")});
  ASSERT_TRUE(grouped.ok());
  ASSERT_EQ((*grouped)->num_rows(), 2);
  EXPECT_EQ((*grouped)->GetValue(0, 1), Value::Int64(2));
  EXPECT_EQ((*grouped)->GetValue(1, 1), Value::Int64(2));
}

TEST(FloatRuleTest, MaxIsNanInEitherRowOrder) {
  const std::vector<std::vector<double>> orders = {
      {1.0, kNan, 3.0}, {kNan, 1.0, 3.0}, {1.0, 3.0, kNan}};
  for (const std::vector<double>& xs : orders) {
    std::vector<Value> cells;
    for (double x : xs) cells.push_back(Value::Double(x));
    auto grouped =
        GroupByAggregate(*DoubleTable(cells), std::vector<int>{},
                         {AggregateSpec::Max(0, "hi"), AggregateSpec::Min(0, "lo")});
    ASSERT_TRUE(grouped.ok());
    EXPECT_TRUE(std::isnan((*grouped)->GetValue(0, 0).double_value()));
    EXPECT_EQ((*grouped)->GetValue(0, 1), Value::Double(1.0));
  }
}

TEST(FloatRuleTest, SortPutsNanAfterEveryNumberAndNullFirst) {
  auto table = DoubleTable({Value::Double(2.0), Value::Double(kNan), Value::Null(),
                            Value::Double(-1.0), Value::Double(kNan),
                            Value::Double(0.5)});
  auto sorted = SortTable(*table, {SortKey{0, true}});
  ASSERT_TRUE(sorted.ok());
  EXPECT_TRUE((*sorted)->GetValue(0, 0).is_null());
  EXPECT_EQ((*sorted)->GetValue(1, 0), Value::Double(-1.0));
  EXPECT_EQ((*sorted)->GetValue(2, 0), Value::Double(0.5));
  EXPECT_EQ((*sorted)->GetValue(3, 0), Value::Double(2.0));
  EXPECT_TRUE(std::isnan((*sorted)->GetValue(4, 0).double_value()));
  EXPECT_TRUE(std::isnan((*sorted)->GetValue(5, 0).double_value()));

  // Random 64-row columns with ~10% NaN come out in order every time.
  std::mt19937_64 rng(23);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  int out_of_order = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<Value> cells;
    for (int i = 0; i < 64; ++i) {
      cells.push_back(Value::Double(unit(rng) < 0.1 ? kNan : unit(rng) * 100.0));
    }
    auto column = SortTable(*DoubleTable(cells), {SortKey{0, true}});
    ASSERT_TRUE(column.ok());
    bool seen_nan = false;
    double last = -1.0;
    for (int64_t r = 0; r < (*column)->num_rows(); ++r) {
      const double x = (*column)->GetValue(r, 0).double_value();
      if (std::isnan(x)) {
        seen_nan = true;
      } else if (seen_nan || x < last) {
        ++out_of_order;
        break;
      } else {
        last = x;
      }
    }
  }
  EXPECT_EQ(out_of_order, 0);
}

TEST(CatalogTest, RegisterGetDropList) {
  Catalog catalog;
  auto t1 = SmallTable();
  auto t2 = SmallTable();
  ASSERT_TRUE(catalog.RegisterTable("pub", t1).ok());
  EXPECT_TRUE(catalog.RegisterTable("pub", t2).IsAlreadyExists());
  EXPECT_TRUE(catalog.RegisterTable("bad", nullptr).IsInvalidArgument());
  catalog.RegisterOrReplaceTable("pub", t2);
  ASSERT_TRUE(catalog.GetTable("pub").ok());
  EXPECT_EQ(*catalog.GetTable("pub"), t2);
  EXPECT_TRUE(catalog.HasTable("pub"));
  EXPECT_FALSE(catalog.HasTable("nope"));
  EXPECT_TRUE(catalog.GetTable("nope").status().IsNotFound());

  catalog.RegisterOrReplaceTable("crime", t1);
  EXPECT_EQ(catalog.TableNames(), (std::vector<std::string>{"crime", "pub"}));
  EXPECT_EQ(catalog.size(), 2u);
  EXPECT_TRUE(catalog.DropTable("crime").ok());
  EXPECT_TRUE(catalog.DropTable("crime").IsNotFound());
  EXPECT_EQ(catalog.size(), 1u);
}

TEST(CsvEdgeTest, SemicolonDelimiter) {
  CsvReadOptions options;
  options.delimiter = ';';
  auto table = ReadCsvString("a;b\n1;x\n", options);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->GetValue(0, 0), Value::Int64(1));
  EXPECT_EQ((*table)->GetValue(0, 1), Value::String("x"));

  CsvWriteOptions write_options;
  write_options.delimiter = ';';
  const std::string out = WriteCsvString(**table, write_options);
  EXPECT_EQ(out, "a;b\n1;x\n");
}

}  // namespace
}  // namespace cape
