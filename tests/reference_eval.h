#ifndef CAPE_TESTS_REFERENCE_EVAL_H_
#define CAPE_TESTS_REFERENCE_EVAL_H_

// Reference evaluator for the relational operators the scan kernels
// implement: σ, COUNT, γ (count(*), count(col), sum, avg, min, max),
// DISTINCT and a stable multi-key sort. It is written from the operator
// definitions, not from the kernels: one row at a time, over boxed Values
// read with Table::GetValue and compared with Value's own operators. From
// the engine it takes only Value, Table, and the plain AggregateSpec/SortKey
// descriptors the operators are called with.
//
// The rules it derives answers from:
//   * a condition (col, v) holds when the cell equals v under Value::Compare,
//     so NULL equals NULL and an int64 cell equals the double of its value;
//   * groups (and distinct rows) come out in first-seen row order, keyed by
//     Value::Compare equality (tables here hold no NaN);
//   * sums run in row order: an int64 column's sum is exact, a double sum
//     (and avg's running sum) adds the cells' double values one row at a
//     time;
//   * an empty input still yields one γ row when there are no group columns;
//   * sorting is stable, NULL first on ascending keys (last on descending).
//
// Results are rows of Values; SameRows compares an operator's output table
// with them cell by cell, by type and exact bits.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "relational/operators.h"
#include "relational/table.h"

namespace cape::reference {

using Rows = std::vector<Row>;
using Conditions = std::vector<std::pair<int, Value>>;

inline Row Projection(const Table& table, int64_t row, const std::vector<int>& cols) {
  Row out;
  for (int c : cols) out.push_back(table.GetValue(row, c));
  return out;
}

inline bool Matches(const Table& table, int64_t row, const Conditions& conditions) {
  for (const auto& [col, value] : conditions) {
    if (table.GetValue(row, col).Compare(value) != 0) return false;
  }
  return true;
}

/// σ_conditions(table): the matching rows, in row order.
inline Rows Select(const Table& table, const Conditions& conditions) {
  Rows out;
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    if (Matches(table, r, conditions)) out.push_back(table.GetRow(r));
  }
  return out;
}

/// |σ_conditions(table)|.
inline int64_t Count(const Table& table, const Conditions& conditions) {
  int64_t n = 0;
  for (int64_t r = 0; r < table.num_rows(); ++r) n += Matches(table, r, conditions) ? 1 : 0;
  return n;
}

/// Lexicographic Value::Compare order: the key order of the group index.
struct RowLess {
  bool operator()(const Row& a, const Row& b) const {
    for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
      const int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  }
};

/// One aggregate's running state over one group.
struct Accumulator {
  int64_t count = 0;   // rows for count(*), non-NULL inputs otherwise
  int64_t isum = 0;    // exact sum of int64 inputs
  double dsum = 0.0;   // row-order sum of the inputs' double values
  Value best;          // min or max so far (NULL until the first input)
};

inline void Accumulate(const AggregateSpec& spec, const Value& input, Accumulator* acc) {
  if (spec.input_col == AggregateSpec::kCountStar) {
    ++acc->count;
    return;
  }
  if (input.is_null()) return;
  ++acc->count;
  switch (spec.func) {
    case AggFunc::kCount:
      break;
    case AggFunc::kSum:
    case AggFunc::kAvg:
      if (input.type() == DataType::kInt64) acc->isum += input.int64_value();
      acc->dsum += input.AsDouble();
      break;
    case AggFunc::kMin:
      if (acc->best.is_null() || input < acc->best) acc->best = input;
      break;
    case AggFunc::kMax:
      if (acc->best.is_null() || acc->best < input) acc->best = input;
      break;
  }
}

inline Value Finish(const Table& table, const AggregateSpec& spec, const Accumulator& acc) {
  switch (spec.func) {
    case AggFunc::kCount:
      return Value::Int64(acc.count);
    case AggFunc::kSum:
      if (acc.count == 0) return Value::Null();
      if (table.schema()->field(spec.input_col).type == DataType::kInt64) {
        return Value::Int64(acc.isum);
      }
      return Value::Double(acc.dsum);
    case AggFunc::kAvg:
      if (acc.count == 0) return Value::Null();
      return Value::Double(acc.dsum / static_cast<double>(acc.count));
    case AggFunc::kMin:
    case AggFunc::kMax:
      return acc.best;
  }
  return Value::Null();
}

/// γ_{group_cols; aggs}(σ_conditions(table)): one row per group — its key
/// values, then its aggregates — in first-seen order.
inline Rows GroupBy(const Table& table, const Conditions& conditions,
                    const std::vector<int>& group_cols, const std::vector<AggregateSpec>& aggs) {
  std::map<Row, size_t, RowLess> index;
  Rows keys;
  std::vector<std::vector<Accumulator>> accs;
  if (group_cols.empty()) {
    index.emplace(Row{}, 0);
    keys.emplace_back();
    accs.emplace_back(aggs.size());
  }
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    if (!Matches(table, r, conditions)) continue;
    Row key = Projection(table, r, group_cols);
    const auto [it, fresh] = index.emplace(key, keys.size());
    if (fresh) {
      keys.push_back(std::move(key));
      accs.emplace_back(aggs.size());
    }
    for (size_t a = 0; a < aggs.size(); ++a) {
      const int col = aggs[a].input_col;
      Accumulate(aggs[a], col == AggregateSpec::kCountStar ? Value() : table.GetValue(r, col),
                 &accs[it->second][a]);
    }
  }
  Rows out;
  for (size_t g = 0; g < keys.size(); ++g) {
    Row row = keys[g];
    for (size_t a = 0; a < aggs.size(); ++a) row.push_back(Finish(table, aggs[a], accs[g][a]));
    out.push_back(std::move(row));
  }
  return out;
}

/// DISTINCT π_cols(table), in first-seen order (over zero columns: one empty
/// row iff the table has rows).
inline Rows Distinct(const Table& table, const std::vector<int>& cols) {
  std::map<Row, size_t, RowLess> seen;
  Rows out;
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    Row key = Projection(table, r, cols);
    if (seen.emplace(key, out.size()).second) out.push_back(std::move(key));
  }
  return out;
}

/// Stable sort of every row by `keys`.
inline Rows Sort(const Table& table, const std::vector<SortKey>& keys) {
  std::vector<int64_t> order(static_cast<size_t>(table.num_rows()));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    for (const SortKey& k : keys) {
      const int c = table.GetValue(a, k.col).Compare(table.GetValue(b, k.col));
      if (c != 0) return k.ascending ? c < 0 : c > 0;
    }
    return false;
  });
  Rows out;
  for (int64_t r : order) out.push_back(table.GetRow(r));
  return out;
}

/// Exact cell identity: both NULL, or the same type and the same payload —
/// bit for bit for doubles. A value boxed as the wrong type (an int64 sum
/// returned as a double) or summed in another order fails.
inline bool SameValue(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case DataType::kInt64:
      return a.int64_value() == b.int64_value();
    case DataType::kDouble: {
      const double x = a.double_value();
      const double y = b.double_value();
      return std::memcmp(&x, &y, sizeof(x)) == 0;
    }
    case DataType::kString:
      return a.string_value() == b.string_value();
  }
  return false;
}

inline ::testing::AssertionResult SameRows(const Table& got, const Rows& want) {
  if (got.num_rows() != static_cast<int64_t>(want.size())) {
    return ::testing::AssertionFailure()
           << "got " << got.num_rows() << " rows, want " << want.size();
  }
  for (int64_t r = 0; r < got.num_rows(); ++r) {
    const Row& w = want[static_cast<size_t>(r)];
    if (got.num_columns() != static_cast<int>(w.size())) {
      return ::testing::AssertionFailure()
             << "got " << got.num_columns() << " columns, want " << w.size();
    }
    for (int c = 0; c < got.num_columns(); ++c) {
      const Value g = got.GetValue(r, c);
      if (!SameValue(g, w[static_cast<size_t>(c)])) {
        return ::testing::AssertionFailure() << "row " << r << " column " << c << ": got "
                                             << g.ToString() << ", want "
                                             << w[static_cast<size_t>(c)].ToString();
      }
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace cape::reference

#endif  // CAPE_TESTS_REFERENCE_EVAL_H_
