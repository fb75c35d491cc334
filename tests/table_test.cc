#include <gtest/gtest.h>

#include "relational/schema.h"
#include "relational/table.h"

namespace cape {
namespace {

std::shared_ptr<Schema> PubSchema() {
  return Schema::Make({Field{"author", DataType::kString, false},
                       Field{"year", DataType::kInt64, false},
                       Field{"score", DataType::kDouble, true}});
}

TEST(SchemaTest, LookupByName) {
  auto schema = PubSchema();
  EXPECT_EQ(schema->num_fields(), 3);
  EXPECT_EQ(schema->GetFieldIndex("year"), 1);
  EXPECT_EQ(schema->GetFieldIndex("nope"), -1);
  EXPECT_TRUE(schema->HasField("author"));
  ASSERT_TRUE(schema->GetFieldIndexChecked("score").ok());
  EXPECT_TRUE(schema->GetFieldIndexChecked("nope").status().IsNotFound());
}

TEST(SchemaTest, ToStringAndNames) {
  auto schema = PubSchema();
  EXPECT_EQ(schema->ToString(), "(author: string, year: int64, score: double)");
  EXPECT_EQ(schema->field_names(), (std::vector<std::string>{"author", "year", "score"}));
}

TEST(ColumnTest, AppendAndGet) {
  Column col(DataType::kInt64);
  col.AppendInt64(5);
  col.AppendNull();
  ASSERT_TRUE(col.AppendValue(Value::Int64(9)).ok());
  EXPECT_EQ(col.size(), 3);
  EXPECT_EQ(col.GetValue(0), Value::Int64(5));
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_TRUE(col.GetValue(1).is_null());
  EXPECT_EQ(col.GetInt64(2), 9);
}

TEST(ColumnTest, TypeMismatchIsRejected) {
  Column col(DataType::kInt64);
  EXPECT_TRUE(col.AppendValue(Value::String("x")).IsTypeError());
  EXPECT_EQ(col.size(), 0);
}

TEST(ColumnTest, DoubleColumnAcceptsInt64Values) {
  Column col(DataType::kDouble);
  ASSERT_TRUE(col.AppendValue(Value::Int64(3)).ok());
  EXPECT_DOUBLE_EQ(col.GetDouble(0), 3.0);
}

TEST(ColumnTest, MinMax) {
  Column col(DataType::kInt64);
  col.AppendNull();
  col.AppendInt64(4);
  col.AppendInt64(-2);
  col.AppendInt64(9);
  EXPECT_EQ(col.Min(), Value::Int64(-2));
  EXPECT_EQ(col.Max(), Value::Int64(9));
  Column empty(DataType::kDouble);
  EXPECT_TRUE(empty.Min().is_null());
  EXPECT_TRUE(empty.Max().is_null());
}

TEST(TableTest, AppendAndRead) {
  Table table(PubSchema());
  ASSERT_TRUE(
      table.AppendRow({Value::String("AX"), Value::Int64(2007), Value::Double(1.5)}).ok());
  ASSERT_TRUE(table.AppendRow({Value::String("AY"), Value::Int64(2008), Value::Null()}).ok());
  EXPECT_EQ(table.num_rows(), 2);
  EXPECT_EQ(table.GetValue(0, 0), Value::String("AX"));
  EXPECT_TRUE(table.GetValue(1, 2).is_null());
  EXPECT_EQ(table.GetRow(1)[1], Value::Int64(2008));
  EXPECT_EQ(table.GetRowProjection(0, {2, 0}),
            (Row{Value::Double(1.5), Value::String("AX")}));
  EXPECT_TRUE(table.Validate().ok());
}

TEST(TableTest, ArityMismatchRejected) {
  Table table(PubSchema());
  EXPECT_TRUE(table.AppendRow({Value::String("AX")}).IsInvalidArgument());
  EXPECT_EQ(table.num_rows(), 0);
}

TEST(TableTest, TypeMismatchLeavesTableUnchanged) {
  Table table(PubSchema());
  Status st = table.AppendRow({Value::Int64(1), Value::Int64(2007), Value::Double(0.0)});
  EXPECT_TRUE(st.IsTypeError());
  EXPECT_EQ(table.num_rows(), 0);
  // All columns must still agree on size.
  EXPECT_TRUE(table.Validate().ok());
}

TEST(TableTest, FromRowsBuildsValidTable) {
  auto result = Table::FromRows(
      PubSchema(), {{Value::String("A"), Value::Int64(1), Value::Double(0.5)},
                    {Value::String("B"), Value::Int64(2), Value::Null()}});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->num_rows(), 2);
}

TEST(TableTest, ColumnByName) {
  Table table(PubSchema());
  ASSERT_TRUE(
      table.AppendRow({Value::String("AX"), Value::Int64(2007), Value::Double(1.5)}).ok());
  auto col = table.ColumnByName("year");
  ASSERT_TRUE(col.ok());
  EXPECT_EQ((*col)->GetInt64(0), 2007);
  EXPECT_TRUE(table.ColumnByName("bogus").status().IsNotFound());
}

TEST(TableTest, DuplicateFieldNamesFailValidation) {
  auto schema = Schema::Make({Field{"a", DataType::kInt64, false},
                              Field{"a", DataType::kInt64, false}});
  Table table(schema);
  EXPECT_TRUE(table.Validate().IsInvalidArgument());
}

TEST(TableTest, ToStringRendersHeaderAndRows) {
  Table table(PubSchema());
  ASSERT_TRUE(
      table.AppendRow({Value::String("AX"), Value::Int64(2007), Value::Double(1.5)}).ok());
  std::string rendered = table.ToString();
  EXPECT_NE(rendered.find("author"), std::string::npos);
  EXPECT_NE(rendered.find("2007"), std::string::npos);
}

TEST(TableTest, ToStringTruncates) {
  Table table(PubSchema());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(
        table.AppendRow({Value::String("A"), Value::Int64(i), Value::Double(0)}).ok());
  }
  EXPECT_NE(table.ToString(5).find("more rows"), std::string::npos);
}

TEST(TableTest, AppendRowsFromBulkCopy) {
  Table src(PubSchema());
  ASSERT_TRUE(src.AppendRow({Value::String("A"), Value::Int64(1), Value::Double(0.5)}).ok());
  ASSERT_TRUE(src.AppendRow({Value::String("B"), Value::Int64(2), Value::Null()}).ok());
  ASSERT_TRUE(src.AppendRow({Value::String("C"), Value::Int64(3), Value::Double(2.5)}).ok());

  Table dst(src.schema());
  ASSERT_TRUE(dst.AppendRowsFrom(src, {2, 0, 2}).ok());
  ASSERT_EQ(dst.num_rows(), 3);
  EXPECT_EQ(dst.GetValue(0, 0), Value::String("C"));
  EXPECT_EQ(dst.GetValue(1, 0), Value::String("A"));
  EXPECT_EQ(dst.GetValue(2, 1), Value::Int64(3));
  EXPECT_TRUE(dst.Validate().ok());

  // Nulls copy as nulls.
  ASSERT_TRUE(dst.AppendRowsFrom(src, {1}).ok());
  EXPECT_TRUE(dst.GetValue(3, 2).is_null());

  // Out-of-range rows and mismatched schemas are rejected atomically-enough
  // to keep the table valid.
  EXPECT_TRUE(dst.AppendRowsFrom(src, {5}).IsOutOfRange());
  Table other(Schema::Make({Field{"x", DataType::kInt64, false}}));
  EXPECT_TRUE(other.AppendRowsFrom(src, {0}).IsInvalidArgument());
  EXPECT_TRUE(dst.Validate().ok());
}

TEST(TableTest, AppendRowsFromEqualSchemaDifferentPointer) {
  Table src(PubSchema());
  ASSERT_TRUE(src.AppendRow({Value::String("A"), Value::Int64(1), Value::Double(0.5)}).ok());
  Table dst(PubSchema());  // equal schema, different shared_ptr
  EXPECT_TRUE(dst.AppendRowsFrom(src, {0}).ok());
  EXPECT_EQ(dst.num_rows(), 1);
}

TEST(TableTest, MakeEmptyTableHelper) {
  TablePtr t = MakeEmptyTable({Field{"x", DataType::kInt64, false}});
  EXPECT_EQ(t->num_rows(), 0);
  EXPECT_EQ(t->num_columns(), 1);
}

}  // namespace
}  // namespace cape
