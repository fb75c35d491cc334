#include <gtest/gtest.h>

#include <cstdio>

#include "relational/csv.h"
#include "test_util.h"

namespace cape {
namespace {

TEST(CsvReadTest, InfersTypes) {
  auto result = ReadCsvString("name,year,score\nAX,2007,1.5\nAY,2008,2\n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Table& t = **result;
  EXPECT_EQ(t.schema()->field(0).type, DataType::kString);
  EXPECT_EQ(t.schema()->field(1).type, DataType::kInt64);
  EXPECT_EQ(t.schema()->field(2).type, DataType::kDouble);
  EXPECT_EQ(t.num_rows(), 2);
  EXPECT_EQ(t.GetValue(1, 1), Value::Int64(2008));
  EXPECT_EQ(t.GetValue(1, 2), Value::Double(2.0));
}

TEST(CsvReadTest, EmptyFieldsBecomeNull) {
  auto result = ReadCsvString("a,b\n1,\n,2\n");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE((*result)->GetValue(0, 1).is_null());
  EXPECT_TRUE((*result)->GetValue(1, 0).is_null());
}

TEST(CsvReadTest, QuotedFieldsWithDelimitersAndEscapes) {
  auto result = ReadCsvString("a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->GetValue(0, 0), Value::String("x,y"));
  EXPECT_EQ((*result)->GetValue(0, 1), Value::String("he said \"hi\""));
}

TEST(CsvReadTest, NoHeaderGeneratesColumnNames) {
  CsvReadOptions options;
  options.has_header = false;
  auto result = ReadCsvString("1,a\n2,b\n", options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->schema()->field(0).name, "c0");
  EXPECT_EQ((*result)->schema()->field(1).name, "c1");
  EXPECT_EQ((*result)->num_rows(), 2);
}

TEST(CsvReadTest, ExplicitSchemaOverridesInference) {
  CsvReadOptions options;
  options.schema = Schema::Make({Field{"k", DataType::kString, true},
                                 Field{"v", DataType::kString, true}});
  auto result = ReadCsvString("k,v\n1,2\n", options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->GetValue(0, 0), Value::String("1"));
}

TEST(CsvReadTest, Errors) {
  EXPECT_TRUE(ReadCsvString("").status().IsInvalidArgument());
  EXPECT_TRUE(ReadCsvString("a,b\n1\n").status().IsInvalidArgument());  // ragged row
  EXPECT_TRUE(ReadCsvString("a\n\"unterminated\n").status().IsInvalidArgument());
  CsvReadOptions options;
  options.schema = Schema::Make({Field{"only", DataType::kInt64, true}});
  EXPECT_TRUE(ReadCsvString("a,b\n1,2\n", options).status().IsInvalidArgument());
}

TEST(CsvReadTest, CarriageReturnsStripped) {
  auto result = ReadCsvString("a,b\r\n1,2\r\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->GetValue(0, 1), Value::Int64(2));
}

TEST(CsvWriteTest, RoundTrip) {
  auto table = MakeEmptyTable({Field{"name", DataType::kString, true},
                               Field{"year", DataType::kInt64, true}});
  ASSERT_TRUE(table->AppendRow({Value::String("a,b \"x\""), Value::Int64(3)}).ok());
  ASSERT_TRUE(table->AppendRow({Value::Null(), Value::Int64(-1)}).ok());
  std::string csv = WriteCsvString(*table);
  auto back = ReadCsvString(csv);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ((*back)->GetValue(0, 0), Value::String("a,b \"x\""));
  EXPECT_EQ((*back)->GetValue(0, 1), Value::Int64(3));
  EXPECT_TRUE((*back)->GetValue(1, 0).is_null());
}

TEST(CsvFileTest, WriteAndReadFile) {
  auto table = MakeEmptyTable({Field{"x", DataType::kInt64, true}});
  ASSERT_TRUE(table->AppendRow({Value::Int64(11)}).ok());
  const std::string path = TestTempPath("csv_test.csv");
  ASSERT_TRUE(WriteCsvFile(*table, path).ok());
  auto back = ReadCsvFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ((*back)->GetValue(0, 0), Value::Int64(11));
  std::remove(path.c_str());
  EXPECT_TRUE(ReadCsvFile("/nonexistent/no.csv").status().IsIOError());
}

TEST(CsvQuarantineTest, StrictModeStillFailsWithLineNumber) {
  auto result = ReadCsvString("a,b\n1,2\n3\n");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
  EXPECT_NE(result.status().message().find("line 3"), std::string::npos)
      << result.status().ToString();
}

TEST(CsvQuarantineTest, MalformedRowsAreSkippedAndReported) {
  CsvReadOptions options;
  options.quarantine_malformed = true;
  CsvParseReport report;
  // Line 3 is ragged; line 5 has an unterminated quote.
  auto result = ReadCsvString("a,b\n1,2\n3\n4,5\n\"oops,6\n", options, &report);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ((*result)->num_rows(), 2);
  EXPECT_EQ(report.num_rows_loaded, 2);
  EXPECT_EQ(report.num_rows_quarantined, 2);
  ASSERT_EQ(report.diagnostics.size(), 2u);
  EXPECT_EQ(report.diagnostics[0].line, 5);  // record-level reject happens first
  EXPECT_EQ(report.diagnostics[1].line, 3);
}

TEST(CsvQuarantineTest, BadFieldRecordsColumnIndex) {
  CsvReadOptions options;
  options.quarantine_malformed = true;
  auto fields = std::vector<Field>{Field{"a", DataType::kInt64, true},
                                   Field{"b", DataType::kInt64, true}};
  options.schema = Schema::Make(std::move(fields));
  CsvParseReport report;
  auto result = ReadCsvString("a,b\n1,2\n3,oops\n", options, &report);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(report.num_rows_loaded, 1);
  EXPECT_EQ(report.num_rows_quarantined, 1);
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].line, 3);
  EXPECT_EQ(report.diagnostics[0].column, 1);
}

TEST(CsvQuarantineTest, DiagnosticsAreCapped) {
  CsvReadOptions options;
  options.quarantine_malformed = true;
  options.max_quarantine_diagnostics = 2;
  CsvParseReport report;
  auto result = ReadCsvString("a,b\n1,2\nx\nx\nx\nx\n", options, &report);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(report.num_rows_quarantined, 4);
  EXPECT_EQ(report.diagnostics.size(), 2u);
}

TEST(CsvQuarantineTest, AllRowsMalformedIsAnError) {
  CsvReadOptions options;
  options.quarantine_malformed = true;
  auto result = ReadCsvString("a,b\n1\n2\n", options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

}  // namespace
}  // namespace cape
