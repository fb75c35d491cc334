#ifndef CAPE_RELATIONAL_OPERATORS_H_
#define CAPE_RELATIONAL_OPERATORS_H_

#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "common/result.h"
#include "relational/table.h"

namespace cape {

/// Aggregate functions supported by the engine. ARPs (Definition 2) use
/// count/sum/min/max; avg is provided for general queries but cannot be
/// re-aggregated by the CUBE operator.
enum class AggFunc : int { kCount = 0, kSum = 1, kAvg = 2, kMin = 3, kMax = 4 };

const char* AggFuncToString(AggFunc func);

/// One aggregate to compute: `func(input_col)` named `output_name`.
/// `input_col == kCountStar` (only valid with kCount) means count(*).
struct AggregateSpec {
  static constexpr int kCountStar = -1;

  AggFunc func = AggFunc::kCount;
  int input_col = kCountStar;
  std::string output_name;

  static AggregateSpec CountStar(std::string name = "count") {
    return {AggFunc::kCount, kCountStar, std::move(name)};
  }
  static AggregateSpec Sum(int col, std::string name) {
    return {AggFunc::kSum, col, std::move(name)};
  }
  static AggregateSpec Avg(int col, std::string name) {
    return {AggFunc::kAvg, col, std::move(name)};
  }
  static AggregateSpec Min(int col, std::string name) {
    return {AggFunc::kMin, col, std::move(name)};
  }
  static AggregateSpec Max(int col, std::string name) {
    return {AggFunc::kMax, col, std::move(name)};
  }
};

/// SELECT group_cols, aggs FROM table GROUP BY group_cols — the fused scan
/// kernel (kernels.h) with no conditions, over resident and out-of-core
/// tables alike.
///
/// Hash aggregation; output rows appear in first-seen group order (stable,
/// deterministic). NULL group keys form their own group (SQL semantics).
/// Aggregates ignore NULL inputs; count(*) counts rows, count(col) counts
/// non-null values. Empty `group_cols` produces one global row.
///
/// All operators accept an optional StopToken; when it reports a stop the
/// operator abandons its scan and returns the stop Status
/// (kDeadlineExceeded/kCancelled), which callers may treat as graceful
/// truncation rather than an error.
Result<TablePtr> GroupByAggregate(const Table& table, const std::vector<int>& group_cols,
                                  const std::vector<AggregateSpec>& aggs,
                                  StopToken* stop = nullptr);

/// Name-based convenience overload.
Result<TablePtr> GroupByAggregate(const Table& table,
                                  const std::vector<std::string>& group_cols,
                                  const std::vector<AggregateSpec>& aggs,
                                  StopToken* stop = nullptr);

/// Rows satisfying `pred(row_index)`. Resident tables only (an arbitrary
/// row predicate has no page-at-a-time form); NotImplemented otherwise.
Result<TablePtr> Filter(const Table& table, const std::function<bool(int64_t)>& pred,
                        StopToken* stop = nullptr);

/// σ_{c1=v1 ∧ c2=v2 ∧ ...}: conjunctive equality selection, the shape used
/// by retrieval queries Q_{P,f} (Section 2.2). NULL matches NULL. One
/// chunk-driven scan for resident and out-of-core tables (kernels.cc); the
/// selected rows are materialized into a resident table.
Result<TablePtr> FilterEquals(const Table& table,
                              const std::vector<std::pair<int, Value>>& conditions,
                              StopToken* stop = nullptr);

/// π over column indices (duplicates allowed, order preserved). Resident
/// tables only; NotImplemented otherwise.
Result<TablePtr> Project(const Table& table, const std::vector<int>& cols,
                         StopToken* stop = nullptr);

/// Distinct projection π_cols(R) — used for frag(R, P) enumeration. The
/// fused kernel grouping on `cols` with no aggregates, so rows come out in
/// first-seen order for either residency.
Result<TablePtr> ProjectDistinct(const Table& table, const std::vector<int>& cols,
                                 StopToken* stop = nullptr);

/// One sort criterion. NULLs sort first on ascending order.
struct SortKey {
  int col = 0;
  bool ascending = true;
};

/// Stable multi-key sort; returns a new materialized table. Cells order by
/// Column::CompareRows (so NaN sorts after every number); string keys
/// compare as sorted-dictionary ranks, which order as the strings do. The
/// comparison phase is not interruptible (std::stable_sort); the stop token
/// is checked before and after it. Resident tables only (the engine sorts
/// small aggregated results, never base relations); NotImplemented
/// otherwise.
Result<TablePtr> SortTable(const Table& table, const std::vector<SortKey>& keys,
                           StopToken* stop = nullptr);

struct CubeOptions {
  /// Only emit groupings whose subset size is within [min, max] — mirrors
  /// the GROUPING()-based filter CAPE applies so only |G_P| <= psi pattern
  /// candidates are materialized (Section 4.1).
  int min_group_size = 0;
  int max_group_size = std::numeric_limits<int>::max();
  /// Appends an int64 `grouping_id` column: bit i set <=> cube_cols[i] was
  /// aggregated away in that output row (SQL GROUPING semantics).
  bool add_grouping_id = true;
};

/// CUBE BY: computes GROUP BY over every subset of `cube_cols` (within the
/// configured size band) in a single operator, like SQL's CUBE. Output
/// schema: all cube columns (NULL where aggregated away), the aggregates,
/// then `grouping_id`. Implementation computes the finest grouping once and
/// re-aggregates coarser groupings from it, which is the standard DBMS cube
/// optimization — and still exhibits the exponential-in-|cube_cols| group
/// blow-up the paper measures (Figure 3a). kAvg is rejected (not
/// re-aggregatable); ARPs never use it.
Result<TablePtr> Cube(const Table& table, const std::vector<int>& cube_cols,
                      const std::vector<AggregateSpec>& aggs,
                      const CubeOptions& options = {}, StopToken* stop = nullptr);

/// Encodes a row's projection onto `cols` into a byte string such that two
/// rows of the same table encode equal iff their projections are equal
/// under Value::Compare (null-aware; a double cell stores its
/// CanonicalDouble, so -0.0 keys as 0.0 and every NaN as one NaN). Each
/// column contributes one cell: a flag byte (0x00 for
/// NULL, 0x01 otherwise) and a payload whose width the column type fixes —
/// 8-byte int64/double, 4-byte dictionary code — zero-filled for NULL. So
/// every key of one encoder has the same width and cell k sits at the same
/// offset in each. Codes are only unique within one column's dictionary, so
/// keys compare only among rows of the same table.
///
/// Rows are read from ColumnChunk arrays, one chunk per table column: a
/// resident table's arrays or a pinned page of an out-of-core one. This is
/// the key of the grouping kernels' byte-keyed groups.
class GroupKeyEncoder {
 public:
  GroupKeyEncoder(const Table& table, std::vector<int> cols);

  /// Appends the encoding of view-local row `row` of `chunks` to *buf (buf
  /// is not cleared).
  void EncodeRow(const ColumnChunk* chunks, int64_t row, std::string* buf) const;

  /// Bytes in every key.
  size_t key_width() const { return offsets_.back(); }

 private:
  std::vector<int> cols_;
  std::vector<DataType> types_;
  std::vector<size_t> offsets_;
};

}  // namespace cape

#endif  // CAPE_RELATIONAL_OPERATORS_H_
