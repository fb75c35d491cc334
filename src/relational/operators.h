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

/// Stable multi-key sort; returns a new materialized table. String keys
/// compare as sorted-dictionary ranks. The comparison phase is not
/// interruptible (std::stable_sort); the stop token is checked before and
/// after it. Resident tables only (the engine sorts small aggregated
/// results, never base relations); NotImplemented otherwise.
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
/// (value- and null-aware; -0.0 canonicalizes to 0.0, NaN keys compare by
/// bit pattern). Format: 0x00 for NULL, else 0x01 followed by a fixed-width
/// payload — 8-byte int64/double, 4-byte dictionary code. The schema fixes
/// each column's payload width and per-column encodings are prefix-free, so
/// keys decode unambiguously. Codes are only unique within one column's
/// dictionary, so keys compare only among rows of the same table.
///
/// Rows are read from ColumnChunk arrays, one chunk per table column: a
/// resident table's arrays or a pinned page of an out-of-core one. This is
/// the key of the grouping kernels' byte-keyed fallback and of
/// IncrementalGroupBy.
class GroupKeyEncoder {
 public:
  GroupKeyEncoder(const Table& table, std::vector<int> cols);

  /// Appends the encoding of view-local row `row` of `chunks` to *buf (buf
  /// is not cleared).
  void EncodeRow(const ColumnChunk* chunks, int64_t row, std::string* buf) const;

 private:
  std::vector<int> cols_;
  std::vector<DataType> types_;
};

/// Incrementally maintained GROUP BY: the stateful twin of GroupByAggregate
/// for append-only resident tables. Holds per-group aggregate state keyed by
/// the GroupKeyEncoder key and folds newly appended rows without rescanning
/// the prefix. The table's column arrays move as it grows, so each fold
/// takes fresh chunk views of them.
///
/// Groups are numbered in first-seen row order, exactly as GroupByAggregate
/// discovers them, and each group's state is produced by the same sequential
/// UpdateAggState fold over its rows — so RepresentativeRow/AggregateValue
/// reproduce the corresponding GroupByAggregate output table byte-for-byte
/// at every fold point. PatternMaintainer builds its group tables on this.
///
/// Folds are transactional: PrepareFold stages the delta (copies of touched
/// group states, provisional ids for new groups) without modifying committed
/// state; CommitFold publishes it infallibly; DiscardFold drops it, leaving
/// the instance exactly as before PrepareFold. Accessors are staging-aware
/// so callers can evaluate the would-be post-append state before deciding to
/// commit. Not thread-safe; the table must outlive this object and must only
/// grow (appends) between folds.
class IncrementalGroupBy {
 public:
  static Result<std::unique_ptr<IncrementalGroupBy>> Make(
      TablePtr table, std::vector<int> group_cols, std::vector<AggregateSpec> aggs);
  ~IncrementalGroupBy();
  IncrementalGroupBy(const IncrementalGroupBy&) = delete;
  IncrementalGroupBy& operator=(const IncrementalGroupBy&) = delete;

  /// Rows [0, rows_folded()) are committed into the group states.
  int64_t rows_folded() const;

  /// Committed group count (excludes staged-new groups).
  int64_t num_groups() const;

  /// Stages the fold of rows [rows_folded(), end_row). Requires no staging
  /// in progress and rows_folded() <= end_row <= table->num_rows(). On stop
  /// (or any error) the partial staging is discarded and committed state is
  /// untouched.
  Status PrepareFold(int64_t end_row, StopToken* stop = nullptr);

  /// Group ids whose state the staged fold changes or creates, in
  /// first-touch order. Ids >= num_groups() are staged-new groups.
  const std::vector<int64_t>& staged_touched() const;

  /// Committed plus staged-new group count.
  int64_t staged_num_groups() const;

  /// First table row of `group` (staging-aware for staged-new groups).
  int64_t RepresentativeRow(int64_t group) const;

  /// Finalized aggregate `agg_idx` of `group`, reflecting staged state when
  /// a fold is in progress — byte-identical to the corresponding cell of
  /// GroupByAggregate over the first staged_num_groups()-discovering rows.
  Value AggregateValue(int64_t group, size_t agg_idx) const;

  /// Unboxed twin of AggregateValue: writes AggregateValue(...).AsDouble()
  /// to *out and returns false iff the aggregate finalizes to NULL. The
  /// maintainer's fragment re-fit reads one aggregate per cell, so this
  /// skips the Value round-trip.
  bool AggregateNumeric(int64_t group, size_t agg_idx, double* out) const;

  /// AggregateNumeric over a group-id span: out[i] and valid[i] receive the
  /// value and non-NULL flag for groups[i]. One call per fragment instead of
  /// one per cell — the finalize mode is resolved once and upcoming state
  /// rows are prefetched internally.
  void AggregateNumericBatch(const int64_t* groups, size_t n, size_t agg_idx,
                             double* out, uint8_t* valid) const;

  /// Hints that `group`'s aggregate state is about to be read. Group states
  /// live in one flat array, so a caller iterating a cell list can issue
  /// this a few iterations ahead to hide the random-access miss.
  void PrefetchGroup(int64_t group) const;

  /// Publishes the staged fold. Infallible: no allocation-dependent failure
  /// paths after this returns void (states move, vectors were pre-grown).
  void CommitFold();

  /// Drops the staged fold, restoring the pre-PrepareFold state.
  void DiscardFold();

 private:
  struct Impl;
  explicit IncrementalGroupBy(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

/// Conjunctive equality predicate over the rows of a resident table,
/// compiled once per condition set: string condition values are translated
/// to dictionary codes (one hash lookup per condition, not per row) and
/// numeric values to unboxed comparisons, so Matches() is pure
/// integer/double compares. Semantics are exactly those of
/// `table.GetValue(row, col) == value` per condition (NULL matches NULL,
/// cross-type numeric equality, NaN quirks included). The scan kernels
/// evaluate the same predicates a block at a time (kernels.cc); this is the
/// one-row form for callers that test single rows.
///
/// Holds a pointer into `table`; must not outlive it. Column indices must be
/// validated by the caller.
class RowEqualityMatcher {
 public:
  RowEqualityMatcher(const Table& table, const std::vector<std::pair<int, Value>>& conditions);

  /// True when no row can possibly satisfy the conditions (a string value
  /// absent from the column's dictionary, or a type-mismatched value).
  /// Callers short-circuit to an empty result without scanning.
  bool never_matches() const { return never_matches_; }

  bool Matches(int64_t row) const;

 private:
  enum class Kind : uint8_t {
    kIsNull,    // condition value is NULL: row must be NULL
    kInt64,     // exact int64 equality
    kDoubleEq,  // numeric equality via !(x<v) && !(x>v) (Value::Compare's rule)
    kCode,      // string column: dictionary code equality
  };
  struct Cond {
    const Column* col = nullptr;
    Kind kind = Kind::kIsNull;
    int64_t i64 = 0;
    double f64 = 0.0;
    int32_t code = 0;
  };

  std::vector<Cond> conds_;
  bool never_matches_ = false;
};

}  // namespace cape

#endif  // CAPE_RELATIONAL_OPERATORS_H_
