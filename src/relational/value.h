#ifndef CAPE_RELATIONAL_VALUE_H_
#define CAPE_RELATIONAL_VALUE_H_

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <variant>

namespace cape {

/// PostgreSQL's float order, the one rule by which the engine compares,
/// keys and sorts doubles: NaN equals NaN and sorts above every other
/// number, and -0.0 equals 0.0. Returns <0, 0, >0.
inline int CompareDoubles(double a, double b) {
  if (a < b) return -1;
  if (a > b) return 1;
  if (a == b) return 0;
  return static_cast<int>(a != a) - static_cast<int>(b != b);  // a NaN is involved
}

/// The key form of a double under CompareDoubles: -0.0 becomes 0.0 and
/// every NaN one quiet NaN, so two doubles compare equal iff their keys
/// have the same bits. Byte keys (group keys, fragment keys) store this.
inline double CanonicalDouble(double d) {
  if (d != d) return std::numeric_limits<double>::quiet_NaN();
  return d == 0.0 ? 0.0 : d;
}

/// Physical type of a column (and of a non-null Value).
enum class DataType : int {
  kInt64 = 0,
  kDouble = 1,
  kString = 2,
};

const char* DataTypeToString(DataType type);

/// Returns true for types usable as regression predictors / aggregation
/// inputs without coercion.
inline bool IsNumericType(DataType type) {
  return type == DataType::kInt64 || type == DataType::kDouble;
}

/// A dynamically-typed cell value: NULL, int64, double, or string.
///
/// Value is the boundary type of the engine: operators use typed column
/// storage internally, but rows, group keys, pattern fragments, and user
/// questions are expressed with Values. Values order NULL-first and compare
/// int64/double exactly by numeric value across types (Int64(2) ==
/// Double(2.0)), doubles by CompareDoubles.
class Value {
 public:
  /// Constructs a NULL value.
  Value() = default;

  explicit Value(int64_t v) : data_(v) {}
  explicit Value(double v) : data_(v) {}
  explicit Value(std::string v) : data_(std::move(v)) {}
  explicit Value(const char* v) : data_(std::string(v)) {}

  static Value Null() { return Value(); }
  static Value Int64(int64_t v) { return Value(v); }
  static Value Double(double v) { return Value(v); }
  static Value String(std::string v) { return Value(std::move(v)); }

  bool is_null() const { return std::holds_alternative<std::monostate>(data_); }

  /// Type of a non-null value. Calling on NULL is a programming error;
  /// returns kInt64 as a harmless default in release builds.
  DataType type() const {
    if (std::holds_alternative<int64_t>(data_)) return DataType::kInt64;
    if (std::holds_alternative<double>(data_)) return DataType::kDouble;
    return DataType::kString;
  }

  bool is_numeric() const {
    return std::holds_alternative<int64_t>(data_) || std::holds_alternative<double>(data_);
  }

  /// Typed access; undefined when the alternative does not match.
  int64_t int64_value() const { return std::get<int64_t>(data_); }
  double double_value() const { return std::get<double>(data_); }
  const std::string& string_value() const { return std::get<std::string>(data_); }

  /// Numeric coercion for regression/aggregation; 0.0 for NULL/strings.
  double AsDouble() const {
    if (std::holds_alternative<int64_t>(data_)) {
      return static_cast<double>(std::get<int64_t>(data_));
    }
    if (std::holds_alternative<double>(data_)) return std::get<double>(data_);
    return 0.0;
  }

  /// Renders the value for display ("NULL", "42", "3.5", "SIGKDD").
  std::string ToString() const;

  /// Total order: NULL < everything; numerics by exact value across
  /// int64/double (no int64 rounds to a double), doubles by CompareDoubles,
  /// so NaN sorts after every number; strings lexicographic; numeric <
  /// string. Returns <0, 0, >0.
  int Compare(const Value& other) const;

  friend bool operator==(const Value& a, const Value& b) { return a.Compare(b) == 0; }
  friend bool operator!=(const Value& a, const Value& b) { return a.Compare(b) != 0; }
  friend bool operator<(const Value& a, const Value& b) { return a.Compare(b) < 0; }

 private:
  std::variant<std::monostate, int64_t, double, std::string> data_;
};

}  // namespace cape

#endif  // CAPE_RELATIONAL_VALUE_H_
