#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "reference_eval.h"
#include "relational/csv.h"
#include "relational/operators.h"
#include "relational/table.h"

namespace cape {
namespace {

TEST(DictionaryTest, FirstAppearanceCodesAndNullInterleaving) {
  Column col(DataType::kString);
  col.AppendString("b");
  col.AppendNull();
  col.AppendString("a");
  col.AppendString("b");
  col.AppendNull();
  col.AppendString("c");
  col.AppendString("a");

  EXPECT_EQ(col.size(), 7);
  EXPECT_EQ(col.dict_size(), 3);
  // Codes are assigned in first-appearance order, not sorted order.
  EXPECT_EQ(col.GetCode(0), 0);
  EXPECT_EQ(col.GetCode(1), Column::kNullCode);
  EXPECT_EQ(col.GetCode(2), 1);
  EXPECT_EQ(col.GetCode(3), 0);
  EXPECT_EQ(col.GetCode(4), Column::kNullCode);
  EXPECT_EQ(col.GetCode(5), 2);
  EXPECT_EQ(col.GetCode(6), 1);
  EXPECT_EQ(col.DictString(0), "b");
  EXPECT_EQ(col.DictString(1), "a");
  EXPECT_EQ(col.DictString(2), "c");
  // Round-trips through both accessors, nulls included.
  EXPECT_EQ(col.GetString(0), "b");
  EXPECT_EQ(col.GetString(1), "");  // null reads as empty, as before encoding
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_EQ(col.GetValue(2), Value::String("a"));
  EXPECT_TRUE(col.GetValue(4).is_null());
}

TEST(DictionaryTest, DuplicateHeavyAndAllDistinctCardinalities) {
  Column dup(DataType::kString);
  for (int i = 0; i < 1000; ++i) dup.AppendString("v" + std::to_string(i % 7));
  EXPECT_EQ(dup.size(), 1000);
  EXPECT_EQ(dup.dict_size(), 7);
  EXPECT_EQ(dup.CountDistinct(), 7);

  Column distinct(DataType::kString);
  for (int i = 0; i < 1000; ++i) distinct.AppendString("v" + std::to_string(i));
  EXPECT_EQ(distinct.dict_size(), 1000);
  EXPECT_EQ(distinct.CountDistinct(), 1000);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(distinct.GetCode(i), i);  // all-new values appear in append order
  }
}

TEST(DictionaryTest, FindCodeHitsAndMisses) {
  Column col(DataType::kString);
  col.AppendString("x");
  col.AppendString("y");
  EXPECT_EQ(col.FindCode("x"), 0);
  EXPECT_EQ(col.FindCode("y"), 1);
  EXPECT_EQ(col.FindCode("z"), Column::kNullCode);
  EXPECT_EQ(col.FindCode(""), Column::kNullCode);  // nulls don't intern ""
}

TEST(DictionaryTest, SortedCodeRanksMatchStringOrdering) {
  Column col(DataType::kString);
  const std::vector<std::string> values = {"pear",  "Apple", "fig", "apple",
                                           "Fig",   "",      "10",  "2",
                                           "pear2", "p"};
  for (const std::string& v : values) col.AppendString(v);
  const std::vector<int32_t> ranks = col.SortedCodeRanks();
  ASSERT_EQ(static_cast<int64_t>(ranks.size()), col.dict_size());
  for (int32_t a = 0; a < col.dict_size(); ++a) {
    for (int32_t b = 0; b < col.dict_size(); ++b) {
      EXPECT_EQ(ranks[a] < ranks[b], col.DictString(a) < col.DictString(b))
          << "'" << col.DictString(a) << "' vs '" << col.DictString(b) << "'";
    }
  }
}

TEST(DictionaryTest, AppendManyFromTranslatesCodesAcrossTables) {
  auto schema = Schema::Make({Field{"s", DataType::kString, true}});
  Table src(schema);
  ASSERT_TRUE(src.AppendRow({Value::String("a")}).ok());
  ASSERT_TRUE(src.AppendRow({Value::String("b")}).ok());
  ASSERT_TRUE(src.AppendRow({Value::Null()}).ok());
  ASSERT_TRUE(src.AppendRow({Value::String("c")}).ok());

  Table dst(schema);
  ASSERT_TRUE(dst.AppendRow({Value::String("c")}).ok());  // pre-existing entry
  // Copy in an order that reverses first-appearance: dst codes must be
  // remapped, not copied.
  ASSERT_TRUE(dst.AppendRowsFrom(src, {3, 2, 1, 0, 1}).ok());
  EXPECT_EQ(dst.num_rows(), 6);
  EXPECT_EQ(dst.GetValue(0, 0), Value::String("c"));
  EXPECT_EQ(dst.GetValue(1, 0), Value::String("c"));
  EXPECT_TRUE(dst.GetValue(2, 0).is_null());
  EXPECT_EQ(dst.GetValue(3, 0), Value::String("b"));
  EXPECT_EQ(dst.GetValue(4, 0), Value::String("a"));
  EXPECT_EQ(dst.GetValue(5, 0), Value::String("b"));
  EXPECT_EQ(dst.column(0).GetCode(0), dst.column(0).GetCode(1));  // same "c"
  EXPECT_EQ(dst.column(0).dict_size(), 3);
}

TEST(DictionaryTest, CsvQuarantineDoesNotPolluteDictionary) {
  // Row 3 has a bad int cell after a fresh string value: the whole row is
  // quarantined and "GHOST" must not be interned.
  CsvReadOptions options;
  options.schema = Schema::Make({Field{"name", DataType::kString, true},
                                 Field{"year", DataType::kInt64, true}});
  options.quarantine_malformed = true;
  CsvParseReport report;
  auto result = ReadCsvString("name,year\nAX,2007\nGHOST,nope\nAY,2008\n", options, &report);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Table& t = **result;
  EXPECT_EQ(t.num_rows(), 2);
  EXPECT_EQ(report.num_rows_quarantined, 1);
  EXPECT_EQ(t.column(0).dict_size(), 2);
  EXPECT_EQ(t.column(0).FindCode("GHOST"), Column::kNullCode);
  EXPECT_EQ(t.column(0).FindCode("AX"), 0);
  EXPECT_EQ(t.column(0).FindCode("AY"), 1);
}

TablePtr MakeCityTable() {
  auto schema = Schema::Make({Field{"city", DataType::kString, true},
                              Field{"tier", DataType::kString, true},
                              Field{"pop", DataType::kInt64, true}});
  auto table = std::make_shared<Table>(schema);
  const char* cities[] = {"rome", "oslo", "lima", "rome", "oslo", "bern", "lima", "rome"};
  const char* tiers[] = {"a", "b", "a", "b", "a", "b", "a", "a"};
  for (int i = 0; i < 8; ++i) {
    Row row{Value::String(cities[i]), Value::String(tiers[i]), Value::Int64(i * 10)};
    if (i == 5) row[0] = Value::Null();
    EXPECT_TRUE(table->AppendRow(row).ok());
  }
  return table;
}

TEST(DictionaryTest, FilterEqualsShortCircuitsOnAbsentValue) {
  TablePtr table = MakeCityTable();
  // Value present: normal selection.
  auto hit = FilterEquals(*table, {{0, Value::String("oslo")}});
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ((*hit)->num_rows(), 2);
  // Value absent from the dictionary: provably empty, no scan needed.
  auto miss = FilterEquals(*table, {{0, Value::String("paris")}});
  ASSERT_TRUE(miss.ok());
  EXPECT_EQ((*miss)->num_rows(), 0);
  // Type-mismatched condition on a string column: never equal.
  auto mismatch = FilterEquals(*table, {{0, Value::Int64(7)}});
  ASSERT_TRUE(mismatch.ok());
  EXPECT_EQ((*mismatch)->num_rows(), 0);
  // NULL condition matches exactly the NULL row.
  auto nulls = FilterEquals(*table, {{0, Value::Null()}});
  ASSERT_TRUE(nulls.ok());
  EXPECT_EQ((*nulls)->num_rows(), 1);
}

TEST(DictionaryTest, KernelsMatchReferenceOnFilterGroupSortDistinct) {
  // The code kernels against string-level definitions: the reference
  // evaluator compares boxed Values, never dictionary codes.
  TablePtr table = MakeCityTable();
  const reference::Conditions conditions = {{1, Value::String("a")}};
  const std::vector<SortKey> keys = {{0, true}, {2, false}};
  const std::vector<AggregateSpec> aggs = {AggregateSpec::CountStar("n"),
                                           AggregateSpec::Sum(2, "pop_sum")};
  auto f = FilterEquals(*table, conditions);
  auto g = GroupByAggregate(*table, std::vector<int>{0, 1}, aggs);
  auto s = SortTable(*table, keys);
  auto d = ProjectDistinct(*table, {0});
  ASSERT_TRUE(f.ok() && g.ok() && s.ok() && d.ok());
  EXPECT_TRUE(reference::SameRows(**f, reference::Select(*table, conditions)));
  EXPECT_TRUE(reference::SameRows(**g, reference::GroupBy(*table, {}, {0, 1}, aggs)));
  EXPECT_TRUE(reference::SameRows(**s, reference::Sort(*table, keys)));
  EXPECT_TRUE(reference::SameRows(**d, reference::Distinct(*table, {0})));
}

TEST(DictionaryTest, SortOrdersStringsNullsFirst) {
  TablePtr table = MakeCityTable();
  auto sorted = SortTable(*table, {{0, true}});
  ASSERT_TRUE(sorted.ok());
  ASSERT_EQ((*sorted)->num_rows(), 8);
  EXPECT_TRUE((*sorted)->GetValue(0, 0).is_null());
  std::vector<std::string> got;
  for (int64_t r = 1; r < 8; ++r) got.push_back((*sorted)->GetValue(r, 0).string_value());
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
}

TEST(DictionaryTest, RowEqualityMatcherCompilesConditionKinds) {
  TablePtr table = MakeCityTable();
  // Multi-column: string code + int64 exact.
  RowEqualityMatcher both(*table, {{0, Value::String("rome")}, {2, Value::Int64(30)}});
  ASSERT_FALSE(both.never_matches());
  EXPECT_FALSE(both.Matches(0));  // rome but pop=0
  EXPECT_TRUE(both.Matches(3));   // rome, pop=30
  // Cross-type numeric equality: int64 column vs double condition.
  RowEqualityMatcher numeric(*table, {{2, Value::Double(30.0)}});
  ASSERT_FALSE(numeric.never_matches());
  EXPECT_TRUE(numeric.Matches(3));
  EXPECT_FALSE(numeric.Matches(4));
  // String condition against a numeric column can never hold.
  RowEqualityMatcher impossible(*table, {{2, Value::String("30")}});
  EXPECT_TRUE(impossible.never_matches());
}

TEST(DictionaryTest, ReserveDictKeepsContents) {
  Column col(DataType::kString);
  col.AppendString("early");
  col.ReserveDict(4096);
  col.Reserve(4096);
  col.AppendString("late");
  EXPECT_EQ(col.dict_size(), 2);
  EXPECT_EQ(col.FindCode("early"), 0);
  EXPECT_EQ(col.FindCode("late"), 1);
}

}  // namespace
}  // namespace cape
