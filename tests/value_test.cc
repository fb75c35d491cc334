#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "relational/value.h"

namespace cape {
namespace {

TEST(ValueTest, NullByDefault) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_FALSE(v.is_numeric());
  EXPECT_EQ(v.ToString(), "NULL");
}

TEST(ValueTest, TypedConstruction) {
  EXPECT_EQ(Value::Int64(3).type(), DataType::kInt64);
  EXPECT_EQ(Value::Double(3.5).type(), DataType::kDouble);
  EXPECT_EQ(Value::String("x").type(), DataType::kString);
  EXPECT_EQ(Value::Int64(3).int64_value(), 3);
  EXPECT_DOUBLE_EQ(Value::Double(3.5).double_value(), 3.5);
  EXPECT_EQ(Value::String("x").string_value(), "x");
}

TEST(ValueTest, AsDoubleCoercion) {
  EXPECT_DOUBLE_EQ(Value::Int64(4).AsDouble(), 4.0);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_DOUBLE_EQ(Value::Null().AsDouble(), 0.0);
  EXPECT_DOUBLE_EQ(Value::String("7").AsDouble(), 0.0);  // no string parsing
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value::Int64(-12).ToString(), "-12");
  EXPECT_EQ(Value::Double(2.5).ToString(), "2.5");
  EXPECT_EQ(Value::String("SIGKDD").ToString(), "SIGKDD");
}

TEST(ValueTest, CrossTypeNumericEquality) {
  EXPECT_EQ(Value::Int64(2), Value::Double(2.0));
  EXPECT_NE(Value::Int64(2), Value::Double(2.5));
}

TEST(ValueTest, NullOrdering) {
  EXPECT_LT(Value::Null(), Value::Int64(0));
  EXPECT_LT(Value::Null(), Value::String(""));
  EXPECT_EQ(Value::Null(), Value::Null());
}

TEST(ValueTest, NumericLessThanString) {
  EXPECT_LT(Value::Int64(999), Value::String("0"));
  EXPECT_LT(Value::Double(1.0), Value::String("a"));
}

TEST(ValueTest, StringOrderingIsLexicographic) {
  EXPECT_LT(Value::String("ICDE"), Value::String("SIGKDD"));
  EXPECT_EQ(Value::String("VLDB"), Value::String("VLDB"));
}

TEST(ValueTest, LargeIntegersCompareExactly) {
  // 2^62 and 2^62+1 are indistinguishable as doubles but distinct as int64.
  int64_t big = int64_t{1} << 62;
  EXPECT_LT(Value::Int64(big), Value::Int64(big + 1));
  EXPECT_NE(Value::Int64(big), Value::Int64(big + 1));
  // Against a double, too: 2^53 + 1 is no double, so it equals none.
  const int64_t edge = int64_t{1} << 53;
  EXPECT_EQ(Value::Int64(edge), Value::Double(static_cast<double>(edge)));
  EXPECT_NE(Value::Int64(edge + 1), Value::Double(static_cast<double>(edge)));
  EXPECT_LT(Value::Double(static_cast<double>(edge)), Value::Int64(edge + 1));
  EXPECT_LT(Value::Int64(2), Value::Double(2.5));
  EXPECT_LT(Value::Double(-2.5), Value::Int64(-2));
  EXPECT_EQ(Value::Int64(0), Value::Double(-0.0));
  EXPECT_LT(Value::Int64(std::numeric_limits<int64_t>::max()), Value::Double(0x1p63));
  EXPECT_LT(Value::Double(-0x1p64), Value::Int64(std::numeric_limits<int64_t>::min()));
}

uint64_t Bits(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

TEST(ValueTest, NegativeZeroHashesLikeZero) {
  EXPECT_EQ(Value::Double(-0.0), Value::Double(0.0));
  // Byte keys store the canonical double, so -0.0 keys exactly as 0.0.
  EXPECT_EQ(Bits(CanonicalDouble(-0.0)), Bits(CanonicalDouble(0.0)));
  EXPECT_EQ(Bits(CanonicalDouble(-0.0)), Bits(0.0));
}

TEST(ValueTest, FloatsCompareAsPostgresqlDoes) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // NaN equals NaN, whatever its sign, and sorts above every number.
  EXPECT_EQ(CompareDoubles(nan, nan), 0);
  EXPECT_EQ(CompareDoubles(nan, -nan), 0);
  EXPECT_GT(CompareDoubles(nan, inf), 0);
  EXPECT_LT(CompareDoubles(-inf, -nan), 0);
  EXPECT_EQ(CompareDoubles(-0.0, 0.0), 0);
  EXPECT_LT(CompareDoubles(1.0, 2.0), 0);
  EXPECT_EQ(Value::Double(nan), Value::Double(-nan));
  EXPECT_LT(Value::Double(inf), Value::Double(nan));
  EXPECT_LT(Value::Int64(std::numeric_limits<int64_t>::max()), Value::Double(nan));
  EXPECT_NE(Value::Int64(0), Value::Double(nan));
  EXPECT_LT(Value::Double(nan), Value::String(""));  // numeric < string still
  // Every NaN keys as one quiet NaN.
  EXPECT_EQ(Bits(CanonicalDouble(-nan)), Bits(CanonicalDouble(nan)));
  EXPECT_TRUE(std::isnan(CanonicalDouble(-nan)));
  EXPECT_EQ(CanonicalDouble(2.5), 2.5);
}

// Property: Compare defines a total preorder consistent with operator==,
// NaN and -0.0 included.
class ValueOrderProperty : public ::testing::TestWithParam<int> {};

std::vector<Value> SampleValues() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  return {Value::Null(),        Value::Int64(-5),       Value::Int64(0),
          Value::Int64(7),      Value::Double(-5.0),    Value::Double(3.25),
          Value::Double(7.0),   Value::Double(-0.0),    Value::Double(nan),
          Value::Double(-nan),  Value::Int64((int64_t{1} << 53) + 1),
          Value::Double(0x1p53), Value::String(""),     Value::String("ICDE"),
          Value::String("VLDB")};
}

TEST(ValueOrderPropertyTest, AntisymmetryAndConsistency) {
  auto values = SampleValues();
  for (const Value& a : values) {
    for (const Value& b : values) {
      const int ab = a.Compare(b);
      const int ba = b.Compare(a);
      EXPECT_EQ(ab == 0, ba == 0);
      if (ab < 0) {
        EXPECT_GT(ba, 0);
      }
      if (ab > 0) {
        EXPECT_LT(ba, 0);
      }
      EXPECT_EQ(a == b, ab == 0);
    }
  }
}

TEST(ValueOrderPropertyTest, Transitivity) {
  auto values = SampleValues();
  for (const Value& a : values) {
    for (const Value& b : values) {
      for (const Value& c : values) {
        if (a.Compare(b) <= 0 && b.Compare(c) <= 0) {
          EXPECT_LE(a.Compare(c), 0) << a.ToString() << " " << b.ToString() << " "
                                     << c.ToString();
        }
      }
    }
  }
}

}  // namespace
}  // namespace cape
