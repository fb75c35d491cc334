#include "relational/value.h"

#include "common/string_util.h"

namespace cape {

const char* DataTypeToString(DataType type) {
  switch (type) {
    case DataType::kInt64:
      return "int64";
    case DataType::kDouble:
      return "double";
    case DataType::kString:
      return "string";
  }
  return "unknown";
}

std::string Value::ToString() const {
  if (is_null()) return "NULL";
  switch (type()) {
    case DataType::kInt64:
      return std::to_string(int64_value());
    case DataType::kDouble:
      return FormatDouble(double_value());
    case DataType::kString:
      return string_value();
  }
  return "?";
}

namespace {

/// Exact order of an int64 and a double: NaN above every int64, and no
/// rounding of the int64 (2^53 + 1 is above the double 2^53).
int CompareInt64Double(int64_t a, double b) {
  if (b != b || b >= 9223372036854775808.0) return -1;
  if (b < -9223372036854775808.0) return 1;
  const auto whole = static_cast<int64_t>(b);  // exact: |b| < 2^63, truncated
  if (a != whole) return a < whole ? -1 : 1;
  const double fraction = b - static_cast<double>(whole);
  return fraction > 0.0 ? -1 : (fraction < 0.0 ? 1 : 0);
}

}  // namespace

int Value::Compare(const Value& other) const {
  const bool a_null = is_null();
  const bool b_null = other.is_null();
  if (a_null || b_null) {
    // NULL == NULL, NULL < non-NULL.
    return static_cast<int>(!a_null) - static_cast<int>(!b_null);
  }
  const bool a_num = is_numeric();
  const bool b_num = other.is_numeric();
  if (a_num && b_num) {
    const bool a_int = type() == DataType::kInt64;
    const bool b_int = other.type() == DataType::kInt64;
    if (a_int && b_int) {
      const int64_t a = int64_value();
      const int64_t b = other.int64_value();
      return (a < b) ? -1 : (a > b) ? 1 : 0;
    }
    if (a_int) return CompareInt64Double(int64_value(), other.double_value());
    if (b_int) return -CompareInt64Double(other.int64_value(), double_value());
    return CompareDoubles(double_value(), other.double_value());
  }
  if (a_num != b_num) return a_num ? -1 : 1;  // numeric < string
  return string_value().compare(other.string_value()) < 0
             ? -1
             : (string_value() == other.string_value() ? 0 : 1);
}

}  // namespace cape
