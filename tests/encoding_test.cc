#include <gtest/gtest.h>

#include <random>
#include <unordered_map>

#include "common/logging.h"
#include "pattern/pattern_set.h"
#include "relational/operators.h"
#include "relational/table.h"

namespace cape {
namespace {

// ------------------------------------------------ GroupKeyEncoder fuzz ---

/// Property: for random rows, encoded keys are equal iff the projections
/// are value-equal (the invariant every hash aggregation relies on).
class GroupKeyEncoderFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GroupKeyEncoderFuzz, KeysEqualIffProjectionsEqual) {
  std::mt19937_64 rng(GetParam());
  auto table = MakeEmptyTable({Field{"i", DataType::kInt64, true},
                               Field{"d", DataType::kDouble, true},
                               Field{"s", DataType::kString, true}});
  // Small domains so collisions-by-equality actually happen; include the
  // adversarial string pair ("ab","c") vs ("a","bc") via the s column by
  // letting strings share prefixes.
  const char* strings[] = {"", "a", "ab", "abc", "b", "bc"};
  for (int r = 0; r < 500; ++r) {
    Row row;
    row.push_back(rng() % 5 == 0 ? Value::Null()
                                 : Value::Int64(static_cast<int64_t>(rng() % 4) - 1));
    row.push_back(rng() % 5 == 0 ? Value::Null()
                                 : Value::Double(static_cast<double>(rng() % 3) * 0.5));
    row.push_back(rng() % 5 == 0 ? Value::Null() : Value::String(strings[rng() % 6]));
    ASSERT_TRUE(table->AppendRow(row).ok());
  }

  const std::vector<int> cols = {0, 2, 1};
  GroupKeyEncoder encoder(*table, cols);
  const std::vector<ColumnChunk> chunks = table->ResidentChunks();
  std::vector<std::string> keys(static_cast<size_t>(table->num_rows()));
  for (int64_t r = 0; r < table->num_rows(); ++r) {
    encoder.EncodeRow(chunks.data(), r, &keys[static_cast<size_t>(r)]);
  }
  for (int64_t a = 0; a < table->num_rows(); a += 7) {
    for (int64_t b = a; b < table->num_rows(); b += 11) {
      const bool rows_equal =
          table->GetRowProjection(a, cols) == table->GetRowProjection(b, cols);
      const bool keys_equal =
          keys[static_cast<size_t>(a)] == keys[static_cast<size_t>(b)];
      EXPECT_EQ(rows_equal, keys_equal) << "rows " << a << " and " << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroupKeyEncoderFuzz, ::testing::Values(3, 17, 71));

TEST(GroupKeyEncoderTest, StringBoundariesDoNotCollide) {
  // ("ab", "c") must not encode equal to ("a", "bc").
  auto table = MakeEmptyTable({Field{"x", DataType::kString, false},
                               Field{"y", DataType::kString, false}});
  ASSERT_TRUE(table->AppendRow({Value::String("ab"), Value::String("c")}).ok());
  ASSERT_TRUE(table->AppendRow({Value::String("a"), Value::String("bc")}).ok());
  GroupKeyEncoder encoder(*table, {0, 1});
  const std::vector<ColumnChunk> chunks = table->ResidentChunks();
  std::string k0;
  std::string k1;
  encoder.EncodeRow(chunks.data(), 0, &k0);
  encoder.EncodeRow(chunks.data(), 1, &k1);
  EXPECT_NE(k0, k1);
}

// ---------------------------------------------------- EncodeRowKey fuzz ---

TEST(EncodeRowKeyFuzz, KeysEqualIffRowsEqual) {
  std::vector<Row> rows = {
      {},
      {Value::Null()},
      {Value::Null(), Value::Null()},
      {Value::Int64(0)},
      {Value::Double(0.0)},   // == Int64(0) per Value semantics
      {Value::Double(-0.0)},  // == Double(0.0)
      {Value::Int64(1)},
      {Value::String("")},
      {Value::String("0")},
      {Value::String("ab"), Value::String("c")},
      {Value::String("a"), Value::String("bc")},
      {Value::Int64(2), Value::String("x")},
      {Value::String("x"), Value::Int64(2)},
  };
  for (const Row& a : rows) {
    for (const Row& b : rows) {
      EXPECT_EQ(a == b, EncodeRowKey(a) == EncodeRowKey(b));
    }
  }
}

// -------------------------------------------------------------- logging ---

TEST(LoggingTest, LevelGatingAndRoundTrip) {
  const LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  // Statements below the level are cheap no-ops; above, they emit to
  // stderr. Both must compile and run without crashing.
  CAPE_LOG(Debug) << "invisible " << 42;
  CAPE_LOG(Info) << "invisible";
  CAPE_LOG(Error) << "visible error from LoggingTest (expected in output)";
  SetLogLevel(original);
}

TEST(LoggingTest, CheckPassesOnTrueCondition) {
  CAPE_CHECK(1 + 1 == 2) << "never evaluated";
  CAPE_DCHECK(true);
  SUCCEED();
}

TEST(LoggingDeathTest, CheckAbortsOnFalseCondition) {
  EXPECT_DEATH({ CAPE_CHECK(false) << "boom"; }, "Check failed: false");
}

}  // namespace
}  // namespace cape
