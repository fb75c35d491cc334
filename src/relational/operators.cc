#include "relational/operators.h"

#include <algorithm>
#include <array>
#include <iterator>
#include <numeric>

#include "common/hash.h"
#include "common/logging.h"
#include "common/macros.h"
#include "relational/kernels.h"
#include "relational/operators_internal.h"

namespace cape {

namespace relational_internal {

Status ValidateColumnIndex(const Table& table, int col) {
  if (col < 0 || col >= table.num_columns()) {
    return Status::InvalidArgument("column index " + std::to_string(col) +
                                   " out of range for table with " +
                                   std::to_string(table.num_columns()) + " columns");
  }
  return Status::OK();
}

Status ValidateAggSpec(const Table& table, const AggregateSpec& spec) {
  if (spec.output_name.empty()) {
    return Status::InvalidArgument("aggregate output name must not be empty");
  }
  if (spec.input_col == AggregateSpec::kCountStar) {
    if (spec.func != AggFunc::kCount) {
      return Status::InvalidArgument(std::string(AggFuncToString(spec.func)) +
                                     "(*) is not a valid aggregate");
    }
    return Status::OK();
  }
  CAPE_RETURN_IF_ERROR(ValidateColumnIndex(table, spec.input_col));
  if ((spec.func == AggFunc::kSum || spec.func == AggFunc::kAvg) &&
      !IsNumericType(table.column(spec.input_col).type())) {
    return Status::TypeError(std::string(AggFuncToString(spec.func)) +
                             " requires a numeric column, got " +
                             DataTypeToString(table.column(spec.input_col).type()));
  }
  return Status::OK();
}

DataType AggOutputType(const Table& table, const AggregateSpec& spec) {
  switch (spec.func) {
    case AggFunc::kCount:
      return DataType::kInt64;
    case AggFunc::kAvg:
      return DataType::kDouble;
    case AggFunc::kSum:
      return table.column(spec.input_col).type() == DataType::kInt64 ? DataType::kInt64
                                                                     : DataType::kDouble;
    case AggFunc::kMin:
    case AggFunc::kMax:
      return table.column(spec.input_col).type();
  }
  return DataType::kDouble;
}

Value ChunkGetValue(const ColumnChunk& chunk, const Column& col, int64_t i) {
  if (chunk.validity[i] == 0) return Value::Null();
  switch (col.type()) {
    case DataType::kInt64:
      return Value::Int64(chunk.i64[i]);
    case DataType::kDouble:
      return Value::Double(chunk.f64[i]);
    case DataType::kString:
      return Value::String(col.DictString(chunk.codes[i]));
  }
  return Value::Null();
}

void UpdateAggState(const Table& table, const AggregateSpec& spec, const ColumnChunk* chunks,
                    int64_t i, AggState* state) {
  if (spec.input_col == AggregateSpec::kCountStar) {
    ++state->count;
    return;
  }
  const ColumnChunk& chunk = chunks[spec.input_col];
  if (chunk.validity[i] == 0) return;
  ++state->count;
  const Column& col = table.column(spec.input_col);
  switch (spec.func) {
    case AggFunc::kCount:
      break;
    case AggFunc::kSum:
    case AggFunc::kAvg:
      if (col.type() == DataType::kInt64) {
        state->isum += chunk.i64[i];
        state->dsum += static_cast<double>(chunk.i64[i]);
      } else {
        state->dsum += chunk.f64[i];
      }
      break;
    case AggFunc::kMin: {
      Value v = ChunkGetValue(chunk, col, i);
      if (state->min_value.is_null() || v < state->min_value) state->min_value = std::move(v);
      break;
    }
    case AggFunc::kMax: {
      Value v = ChunkGetValue(chunk, col, i);
      if (state->max_value.is_null() || state->max_value < v) state->max_value = std::move(v);
      break;
    }
  }
}

Value FinalizeAggState(const Table& table, const AggregateSpec& spec, const AggState& state) {
  switch (spec.func) {
    case AggFunc::kCount:
      return Value::Int64(state.count);
    case AggFunc::kSum:
      if (state.count == 0) return Value::Null();
      if (spec.input_col != AggregateSpec::kCountStar &&
          table.column(spec.input_col).type() == DataType::kInt64) {
        return Value::Int64(state.isum);
      }
      return Value::Double(state.dsum);
    case AggFunc::kAvg:
      if (state.count == 0) return Value::Null();
      return Value::Double(state.dsum / static_cast<double>(state.count));
    case AggFunc::kMin:
      return state.min_value;
    case AggFunc::kMax:
      return state.max_value;
  }
  return Value::Null();
}

}  // namespace relational_internal

namespace {

using relational_internal::AggOutputType;
using relational_internal::AggState;
using relational_internal::FinalizeAggState;
using relational_internal::UpdateAggState;
using relational_internal::ValidateAggSpec;
using relational_internal::ValidateColumnIndex;

}  // namespace

const char* AggFuncToString(AggFunc func) {
  switch (func) {
    case AggFunc::kCount:
      return "count";
    case AggFunc::kSum:
      return "sum";
    case AggFunc::kAvg:
      return "avg";
    case AggFunc::kMin:
      return "min";
    case AggFunc::kMax:
      return "max";
  }
  return "?";
}

GroupKeyEncoder::GroupKeyEncoder(const Table& table, std::vector<int> cols)
    : cols_(std::move(cols)) {
  types_.reserve(cols_.size());
  for (int c : cols_) types_.push_back(table.column(c).type());
}

void GroupKeyEncoder::EncodeRow(const ColumnChunk* chunks, int64_t row,
                                std::string* buf) const {
  for (size_t k = 0; k < cols_.size(); ++k) {
    const ColumnChunk& chunk = chunks[cols_[k]];
    if (chunk.validity[row] == 0) {
      buf->push_back('\0');
      continue;
    }
    buf->push_back('\1');
    switch (types_[k]) {
      case DataType::kInt64: {
        const int64_t v = chunk.i64[row];
        buf->append(reinterpret_cast<const char*>(&v), sizeof(v));
        break;
      }
      case DataType::kDouble: {
        double v = chunk.f64[row];
        if (v == 0.0) v = 0.0;  // canonicalize -0.0
        buf->append(reinterpret_cast<const char*>(&v), sizeof(v));
        break;
      }
      case DataType::kString: {
        const int32_t code = chunk.codes[row];
        buf->append(reinterpret_cast<const char*>(&code), sizeof(code));
        break;
      }
    }
  }
}

RowEqualityMatcher::RowEqualityMatcher(const Table& table,
                                       const std::vector<std::pair<int, Value>>& conditions) {
  conds_.reserve(conditions.size());
  for (const auto& [col_idx, value] : conditions) {
    Cond cond;
    cond.col = &table.column(col_idx);
    if (value.is_null()) {
      cond.kind = Kind::kIsNull;
    } else if (cond.col->type() == DataType::kString) {
      if (value.type() != DataType::kString) {
        // A non-string value never equals a string cell (Value::Compare
        // orders numerics before strings, never equal).
        never_matches_ = true;
        return;
      }
      cond.code = cond.col->FindCode(value.string_value());
      if (cond.code == Column::kNullCode) {
        never_matches_ = true;  // value absent from dictionary: no row matches
        return;
      }
      cond.kind = Kind::kCode;
    } else if (value.type() == DataType::kString) {
      never_matches_ = true;  // string value vs numeric column: never equal
      return;
    } else if (cond.col->type() == DataType::kInt64 && value.type() == DataType::kInt64) {
      cond.kind = Kind::kInt64;
      cond.i64 = value.int64_value();
    } else {
      // Mixed numeric comparison goes through double, with Value::Compare's
      // exact rule (see kDoubleEq in Matches).
      cond.kind = Kind::kDoubleEq;
      cond.f64 = value.AsDouble();
    }
    conds_.push_back(cond);
  }
}

bool RowEqualityMatcher::Matches(int64_t row) const {
  for (const Cond& cond : conds_) {
    switch (cond.kind) {
      case Kind::kIsNull:
        if (!cond.col->IsNull(row)) return false;
        break;
      case Kind::kCode:
        // kNullCode (-1) never equals a real code, so no separate null check.
        if (cond.col->GetCode(row) != cond.code) return false;
        break;
      case Kind::kInt64:
        if (cond.col->IsNull(row) || cond.col->GetInt64(row) != cond.i64) return false;
        break;
      case Kind::kDoubleEq: {
        if (cond.col->IsNull(row)) return false;
        const double x = cond.col->GetNumeric(row);
        // Replicates Value::Compare exactly: (x<v)?-1:((x>v)?1:0) == 0, which
        // treats NaN as equal to everything and -0.0 as equal to 0.0. A plain
        // x == v would diverge on NaN.
        if (x < cond.f64 || x > cond.f64) return false;
        break;
      }
    }
  }
  return true;
}

Result<TablePtr> GroupByAggregate(const Table& table, const std::vector<int>& group_cols,
                                  const std::vector<AggregateSpec>& aggs,
                                  StopToken* stop) {
  // γ is the fused σ → γ kernel with no conditions.
  return FilterGroupAggregate(table, {}, group_cols, aggs, stop);
}

Result<TablePtr> GroupByAggregate(const Table& table,
                                  const std::vector<std::string>& group_cols,
                                  const std::vector<AggregateSpec>& aggs,
                                  StopToken* stop) {
  std::vector<int> indices;
  indices.reserve(group_cols.size());
  for (const std::string& name : group_cols) {
    CAPE_ASSIGN_OR_RETURN(int idx, table.schema()->GetFieldIndexChecked(name));
    indices.push_back(idx);
  }
  return GroupByAggregate(table, indices, aggs, stop);
}

Result<TablePtr> Filter(const Table& table, const std::function<bool(int64_t)>& pred,
                        StopToken* stop) {
  if (!table.rows_resident()) {
    // The arbitrary-predicate filter is row-at-a-time by construction; the
    // scan kernels cover every engine query shape (σ= via FilterEquals,
    // counting, fused group-aggregate), so out-of-core tables don't need it.
    return Status::NotImplemented("Filter requires resident rows; use FilterEquals");
  }
  std::vector<int64_t> matches;
  for (int64_t row = 0; row < table.num_rows(); ++row) {
    if ((row & (kStopCheckStride - 1)) == 0) CAPE_RETURN_IF_STOPPED_BLOCK(stop);
    if (pred(row)) matches.push_back(row);
  }
  auto out = std::make_shared<Table>(table.schema());
  out->Reserve(static_cast<int64_t>(matches.size()));
  CAPE_RETURN_IF_ERROR(out->AppendRowsFrom(table, matches));
  return out;
}

Result<TablePtr> Project(const Table& table, const std::vector<int>& cols,
                         StopToken* stop) {
  std::vector<Field> out_fields;
  out_fields.reserve(cols.size());
  for (int c : cols) {
    CAPE_RETURN_IF_ERROR(ValidateColumnIndex(table, c));
    out_fields.push_back(table.schema()->field(c));
  }
  if (!table.rows_resident()) {
    // Full projection would materialize every heap-file row in memory —
    // exactly what out-of-core tables exist to avoid. The engine projects
    // distinct values (paged) or filtered subsets instead.
    return Status::NotImplemented("Project requires resident rows");
  }
  auto out = std::make_shared<Table>(Schema::Make(std::move(out_fields)));
  out->Reserve(table.num_rows());
  for (int64_t row = 0; row < table.num_rows(); ++row) {
    if ((row & (kStopCheckStride - 1)) == 0) CAPE_RETURN_IF_STOPPED_BLOCK(stop);
    CAPE_RETURN_IF_ERROR(out->AppendRow(table.GetRowProjection(row, cols)));
  }
  return out;
}

Result<TablePtr> ProjectDistinct(const Table& table, const std::vector<int>& cols,
                                 StopToken* stop) {
  if (!cols.empty()) {
    // Grouping with no aggregates emits exactly the distinct combinations,
    // in first-seen order.
    return FilterGroupAggregate(table, {}, cols, {}, stop);
  }
  // Distinct over zero columns: one empty row iff the table is non-empty.
  // (The fused kernel's no-group shape always emits a row, so this edge is
  // handled here.)
  auto out = std::make_shared<Table>(Schema::Make({}));
  if (stop != nullptr && stop->ShouldStopNow()) return stop->ToStatus();
  if (table.num_rows() > 0) CAPE_RETURN_IF_ERROR(out->AppendRow(Row{}));
  return out;
}

namespace {

/// Typed row comparison on one numeric column, NULL-first, no Value boxing.
/// (String keys compare as dictionary ranks in SortTable.)
int CompareCells(const Column& col, int64_t a, int64_t b) {
  const bool a_null = col.IsNull(a);
  const bool b_null = col.IsNull(b);
  if (a_null || b_null) return static_cast<int>(!a_null) - static_cast<int>(!b_null);
  switch (col.type()) {
    case DataType::kInt64: {
      const int64_t x = col.GetInt64(a);
      const int64_t y = col.GetInt64(b);
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    case DataType::kDouble: {
      const double x = col.GetDouble(a);
      const double y = col.GetDouble(b);
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    case DataType::kString:
      break;
  }
  return 0;
}

}  // namespace

Result<TablePtr> SortTable(const Table& table, const std::vector<SortKey>& keys,
                           StopToken* stop) {
  for (const SortKey& k : keys) CAPE_RETURN_IF_ERROR(ValidateColumnIndex(table, k.col));
  if (!table.rows_resident()) {
    // The engine sorts (small) aggregated results, never base relations.
    return Status::NotImplemented("SortTable requires resident rows");
  }
  if (stop != nullptr && stop->ShouldStopNow()) return stop->ToStatus();
  // Each string sort key gets a sorted-code rank remap (ranks order exactly
  // as the strings do), turning the O(n log n) comparison phase into pure
  // integer compares for an O(d log d) setup cost.
  std::vector<std::vector<int32_t>> string_ranks(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    const Column& col = table.column(keys[i].col);
    if (col.type() == DataType::kString) string_ranks[i] = col.SortedCodeRanks();
  }
  std::vector<int64_t> order(static_cast<size_t>(table.num_rows()));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    for (size_t i = 0; i < keys.size(); ++i) {
      const SortKey& k = keys[i];
      const Column& col = table.column(k.col);
      int cmp;
      if (!string_ranks[i].empty()) {
        // NULL-first, then by rank; rank equality <=> code equality <=>
        // string equality, so ties break exactly as string comparison would.
        const int32_t ca = col.GetCode(a);
        const int32_t cb = col.GetCode(b);
        if (ca < 0 || cb < 0) {
          cmp = static_cast<int>(ca >= 0) - static_cast<int>(cb >= 0);
        } else {
          const int32_t ra = string_ranks[i][static_cast<size_t>(ca)];
          const int32_t rb = string_ranks[i][static_cast<size_t>(cb)];
          cmp = ra < rb ? -1 : (ra > rb ? 1 : 0);
        }
      } else {
        cmp = CompareCells(col, a, b);
      }
      if (cmp != 0) return k.ascending ? cmp < 0 : cmp > 0;
    }
    return false;
  });
  CAPE_RETURN_IF_STOPPED(stop);
  auto out = std::make_shared<Table>(table.schema());
  out->Reserve(table.num_rows());
  CAPE_RETURN_IF_ERROR(out->AppendRowsFrom(table, order));
  return out;
}

Result<TablePtr> Cube(const Table& table, const std::vector<int>& cube_cols,
                      const std::vector<AggregateSpec>& aggs, const CubeOptions& options,
                      StopToken* stop) {
  const int n = static_cast<int>(cube_cols.size());
  if (n > 20) {
    return Status::InvalidArgument("cube over " + std::to_string(n) +
                                   " columns would create 2^" + std::to_string(n) +
                                   " groupings");
  }
  for (int c : cube_cols) CAPE_RETURN_IF_ERROR(ValidateColumnIndex(table, c));
  for (const AggregateSpec& spec : aggs) {
    CAPE_RETURN_IF_ERROR(ValidateAggSpec(table, spec));
    if (spec.func == AggFunc::kAvg) {
      return Status::NotImplemented("avg cannot be re-aggregated by CUBE");
    }
  }

  // Phase 1: finest grouping over all cube columns, computing each aggregate
  // as a partial (count stays count, sum stays sum, ...).
  std::vector<AggregateSpec> partial_specs;
  partial_specs.reserve(aggs.size());
  for (size_t a = 0; a < aggs.size(); ++a) {
    AggregateSpec p = aggs[a];
    p.output_name = "__partial" + std::to_string(a);
    partial_specs.push_back(std::move(p));
  }
  CAPE_ASSIGN_OR_RETURN(TablePtr finest,
                        GroupByAggregate(table, cube_cols, partial_specs, stop));

  // Output schema: cube columns (nullable), aggregates, optional grouping_id.
  std::vector<Field> out_fields;
  for (int c : cube_cols) {
    Field f = table.schema()->field(c);
    f.nullable = true;
    out_fields.push_back(std::move(f));
  }
  for (const AggregateSpec& spec : aggs) {
    out_fields.push_back(Field{spec.output_name, AggOutputType(table, spec), true});
  }
  if (options.add_grouping_id) {
    out_fields.push_back(Field{"grouping_id", DataType::kInt64, false});
  }
  auto out = std::make_shared<Table>(Schema::Make(std::move(out_fields)));

  // Phase 2: for each admissible subset, re-aggregate the finest grouping.
  // In `finest`, cube column i lives at position i and partial aggregate a at
  // position n + a.
  for (uint32_t mask = 0; mask < (1u << n); ++mask) {
    const int subset_size = __builtin_popcount(mask);
    if (subset_size < options.min_group_size || subset_size > options.max_group_size) {
      continue;
    }
    std::vector<int> subset_cols;
    for (int i = 0; i < n; ++i) {
      if (mask & (1u << i)) subset_cols.push_back(i);
    }
    // Re-aggregation: count -> sum of partial counts; sum -> sum; min -> min;
    // max -> max.
    std::vector<AggregateSpec> rollup_specs;
    rollup_specs.reserve(aggs.size());
    for (size_t a = 0; a < aggs.size(); ++a) {
      AggregateSpec spec = aggs[a];
      spec.input_col = n + static_cast<int>(a);
      if (spec.func == AggFunc::kCount) spec.func = AggFunc::kSum;
      rollup_specs.push_back(std::move(spec));
    }
    CAPE_ASSIGN_OR_RETURN(TablePtr grouped,
                          GroupByAggregate(*finest, subset_cols, rollup_specs, stop));
    const int64_t grouping_id =
        static_cast<int64_t>(~mask & ((1u << n) - 1));  // set bit = aggregated away
    Row out_row;
    for (int64_t row = 0; row < grouped->num_rows(); ++row) {
      if ((row & (kStopCheckStride - 1)) == 0) CAPE_RETURN_IF_STOPPED_BLOCK(stop);
      out_row.assign(static_cast<size_t>(n), Value::Null());
      for (size_t s = 0; s < subset_cols.size(); ++s) {
        out_row[static_cast<size_t>(subset_cols[s])] =
            grouped->GetValue(row, static_cast<int>(s));
      }
      for (size_t a = 0; a < aggs.size(); ++a) {
        Value v = grouped->GetValue(row, static_cast<int>(subset_cols.size() + a));
        // count over zero rows is 0, not NULL (the sum-of-partials rollup
        // would otherwise produce NULL on an empty input).
        if (aggs[a].func == AggFunc::kCount && v.is_null()) v = Value::Int64(0);
        out_row.push_back(std::move(v));
      }
      if (options.add_grouping_id) out_row.push_back(Value::Int64(grouping_id));
      CAPE_RETURN_IF_ERROR(out->AppendRow(out_row));
    }
  }
  return out;
}

/// Open-addressing group lookup: flat (hash, group) slots with linear
/// probing, so a probe costs one cache-miss chain instead of the node walk a
/// std::unordered_map<hash, bucket-vector> pays — this lookup runs once per
/// row per group-set in every fold, and profiles as the fold's hottest site.
/// Distinct keys colliding on the full 64-bit hash simply occupy separate
/// slots on the same probe chain (the caller confirms a hit against the
/// encoded key). Erase leaves a tombstone: deletions only happen when a
/// staged fold is discarded (stop/failure paths), so buildup is negligible
/// and any growth rehash drops them.
class GroupSlotIndex {
 public:
  static constexpr size_t kNotFound = static_cast<size_t>(-1);

  /// Returns the group whose slot matches `hash` and satisfies `eq`, or
  /// kNotFound. `eq(group)` must compare the encoded key for equality.
  template <typename KeyEq>
  size_t Find(uint64_t hash, const KeyEq& eq) const {
    if (slots_.empty()) return kNotFound;
    size_t idx = static_cast<size_t>(hash) & mask_;
    while (true) {
      const Slot& s = slots_[idx];
      if (s.group == kEmpty) return kNotFound;
      if (s.group != kTombstone && s.hash == hash && eq(s.group)) return s.group;
      idx = (idx + 1) & mask_;
    }
  }

  /// Hints the probe start for an upcoming Find(hash, ...).
  void Prefetch(uint64_t hash) const {
    if (!slots_.empty()) __builtin_prefetch(&slots_[static_cast<size_t>(hash) & mask_]);
  }

  void Insert(uint64_t hash, size_t group) {
    if ((used_ + 1) * 2 > slots_.size()) Grow();
    size_t idx = static_cast<size_t>(hash) & mask_;
    while (slots_[idx].group != kEmpty && slots_[idx].group != kTombstone) {
      idx = (idx + 1) & mask_;
    }
    if (slots_[idx].group == kEmpty) used_ += 1;  // tombstone reuse keeps used_
    slots_[idx] = Slot{hash, group};
  }

  /// Removes the slot holding `group` (which must be present under `hash`).
  void Erase(uint64_t hash, size_t group) {
    size_t idx = static_cast<size_t>(hash) & mask_;
    while (slots_[idx].group != group) idx = (idx + 1) & mask_;
    slots_[idx].group = kTombstone;
  }

  /// Pre-sizes for ~n live groups to amortize growth rehashes across a fold.
  void Reserve(size_t n) {
    size_t cap = 64;
    while (cap < n * 2) cap <<= 1;
    if (cap > slots_.size()) Rehash(cap);
  }

 private:
  static constexpr size_t kEmpty = static_cast<size_t>(-1);
  static constexpr size_t kTombstone = static_cast<size_t>(-2);
  struct Slot {
    uint64_t hash;
    size_t group;
  };

  void Grow() { Rehash(slots_.empty() ? 64 : slots_.size() * 2); }

  void Rehash(size_t cap) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(cap, Slot{0, kEmpty});
    mask_ = cap - 1;
    used_ = 0;
    for (const Slot& s : old) {
      if (s.group == kEmpty || s.group == kTombstone) continue;
      size_t idx = static_cast<size_t>(s.hash) & mask_;
      while (slots_[idx].group != kEmpty) idx = (idx + 1) & mask_;
      slots_[idx] = s;
      used_ += 1;
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t used_ = 0;  // slots consumed (live + tombstones)
};

struct IncrementalGroupBy::Impl {
  Impl(TablePtr t, std::vector<int> cols, std::vector<AggregateSpec> specs)
      : table(std::move(t)),
        group_cols(std::move(cols)),
        aggs(std::move(specs)),
        encoder(*table, group_cols) {}

  TablePtr table;
  std::vector<int> group_cols;
  std::vector<AggregateSpec> aggs;
  GroupKeyEncoder encoder;

  // Committed state, mirroring the grouping kernel's byte-keyed path: groups
  // in discovery order, collisions resolved by key comparison against
  // group_keys. group_keys/representative_row also cover staged-new groups
  // (ids >= num_groups) while a fold is staged, so a later delta row folding
  // into a group created earlier in the same fold finds it by lookup.
  // Aggregate states are flat ([group * aggs.size() + agg]) so a group's
  // state row is one contiguous read at a computable address — the
  // maintainer's re-fit reads these in random order, and the flat layout
  // makes that prefetchable.
  GroupSlotIndex group_index;
  std::vector<std::string> group_keys;
  std::vector<int64_t> representative_row;
  std::vector<AggState> states;  // [group * naggs + agg], committed only
  int64_t num_committed = 0;
  int64_t rows_folded = 0;

  // Staged fold. Overlays for committed groups live in a dense epoch-stamped
  // index instead of a hash map: StateOf runs per aggregated cell in the
  // maintainer's re-fit loop, so the overlay probe must be an array read, not
  // a hash probe. overlay_epoch[g] == fold_epoch marks group g as overlaid
  // this fold, with its staged state at overlay_states[overlay_slot[g]];
  // bumping fold_epoch invalidates every stamp in O(1), so neither commit nor
  // discard ever clears the stamp vectors.
  bool staging = false;
  int64_t staged_end = 0;
  int64_t committed_groups = 0;  // states.size() at PrepareFold time
  std::vector<int64_t> touched;  // first-touch order
  uint32_t fold_epoch = 0;
  std::vector<uint32_t> overlay_epoch;   // [committed group]
  std::vector<uint32_t> overlay_slot;    // [committed group]
  std::vector<AggState> overlay_states;  // [slot * naggs + agg], reused across folds
  std::vector<size_t> overlay_groups;    // slot -> committed group id
  size_t overlay_count = 0;
  std::vector<AggState> staged_new;  // [(group - committed_groups) * naggs + agg]

  const AggState* StateOf(int64_t group) const {
    const size_t na = aggs.size();
    if (staging) {
      if (group >= committed_groups) {
        return &staged_new[static_cast<size_t>(group - committed_groups) * na];
      }
      const size_t g = static_cast<size_t>(group);
      if (overlay_epoch[g] == fold_epoch) return &overlay_states[overlay_slot[g] * na];
    }
    return &states[static_cast<size_t>(group) * na];
  }

  void ClearStaging() {
    staging = false;
    touched.clear();
    overlay_count = 0;  // slot objects stay allocated for the next fold
    staged_new.clear();
  }
};

IncrementalGroupBy::IncrementalGroupBy(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}

IncrementalGroupBy::~IncrementalGroupBy() = default;

Result<std::unique_ptr<IncrementalGroupBy>> IncrementalGroupBy::Make(
    TablePtr table, std::vector<int> group_cols, std::vector<AggregateSpec> aggs) {
  if (table == nullptr) {
    return Status::InvalidArgument("IncrementalGroupBy requires a table");
  }
  if (!table->rows_resident()) {
    return Status::InvalidArgument("IncrementalGroupBy requires resident rows");
  }
  if (group_cols.empty()) {
    return Status::InvalidArgument("IncrementalGroupBy requires group columns");
  }
  for (int c : group_cols) CAPE_RETURN_IF_ERROR(ValidateColumnIndex(*table, c));
  for (const AggregateSpec& spec : aggs) {
    CAPE_RETURN_IF_ERROR(ValidateAggSpec(*table, spec));
  }
  auto impl =
      std::make_unique<Impl>(std::move(table), std::move(group_cols), std::move(aggs));
  return std::unique_ptr<IncrementalGroupBy>(new IncrementalGroupBy(std::move(impl)));
}

int64_t IncrementalGroupBy::rows_folded() const { return impl_->rows_folded; }

int64_t IncrementalGroupBy::num_groups() const { return impl_->num_committed; }

Status IncrementalGroupBy::PrepareFold(int64_t end_row, StopToken* stop) {
  Impl& im = *impl_;
  if (im.staging) {
    return Status::InvalidArgument("PrepareFold with a fold already staged");
  }
  if (end_row < im.rows_folded || end_row > im.table->num_rows()) {
    return Status::OutOfRange("fold end " + std::to_string(end_row) +
                              " outside [" + std::to_string(im.rows_folded) + ", " +
                              std::to_string(im.table->num_rows()) + "]");
  }
  im.staging = true;
  im.staged_end = end_row;
  im.committed_groups = im.num_committed;
  im.fold_epoch += 1;  // invalidates every stale overlay stamp at once
  // Grown entries zero-initialize; epoch starts at 1, so they read as stale.
  im.overlay_epoch.resize(static_cast<size_t>(im.num_committed));
  im.overlay_slot.resize(static_cast<size_t>(im.num_committed));
  // Same sizing heuristic as the generic grouping path: group counts land
  // within a small factor of the row count, so a quarter of the fold's rows
  // on top of the live groups avoids nearly all growth rehashes.
  im.group_index.Reserve(static_cast<size_t>(im.num_committed) +
                         static_cast<size_t>(end_row - im.rows_folded) / 4);
  const Table& table = *im.table;
  const size_t na = im.aggs.size();
  // The table grows between folds, so its chunk views are taken per fold.
  const std::vector<ColumnChunk> chunks = table.ResidentChunks();
  // Rows fold in blocks: the first pass encodes the block's keys and
  // prefetches their index slots, the second probes and updates — the
  // per-row random miss on the slot array overlaps across the block instead
  // of serializing on every row.
  constexpr int64_t kBlock = 32;
  std::array<uint64_t, kBlock> hashes;
  std::array<std::string, kBlock> keys;  // reused encode buffers
  for (int64_t base = im.rows_folded; base < end_row; base += kBlock) {
    if (stop != nullptr && stop->ShouldStopNow()) {
      DiscardFold();
      return stop->ToStatus();
    }
    const int64_t count = std::min<int64_t>(kBlock, end_row - base);
    for (int64_t i = 0; i < count; ++i) {
      std::string& key = keys[static_cast<size_t>(i)];
      key.clear();
      im.encoder.EncodeRow(chunks.data(), base + i, &key);
      hashes[static_cast<size_t>(i)] = HashBytes(key.data(), key.size());
      im.group_index.Prefetch(hashes[static_cast<size_t>(i)]);
    }
    for (int64_t i = 0; i < count; ++i) {
      const int64_t row = base + i;
      const std::string& key = keys[static_cast<size_t>(i)];
      const uint64_t hash = hashes[static_cast<size_t>(i)];
      size_t group = im.group_index.Find(
          hash, [&im, &key](size_t g) { return im.group_keys[g] == key; });
      AggState* group_states;
      if (group == GroupSlotIndex::kNotFound) {
        group = im.group_keys.size();
        im.group_index.Insert(hash, group);
        im.group_keys.push_back(key);
        im.representative_row.push_back(row);
        im.staged_new.resize(im.staged_new.size() + na);
        im.touched.push_back(static_cast<int64_t>(group));
        group_states = im.staged_new.data() + (im.staged_new.size() - na);
      } else if (static_cast<int64_t>(group) >= im.committed_groups) {
        group_states =
            im.staged_new.data() +
            (group - static_cast<size_t>(im.committed_groups)) * na;
      } else {
        if (im.overlay_epoch[group] != im.fold_epoch) {  // first touch this fold
          im.overlay_epoch[group] = im.fold_epoch;
          im.overlay_slot[group] = static_cast<uint32_t>(im.overlay_count);
          if (im.overlay_count * na == im.overlay_states.size()) {
            im.overlay_states.resize(im.overlay_states.size() + na);
            im.overlay_groups.emplace_back();
          }
          // Copy the committed state row into the slot; the fold extends the
          // copy below while the committed row stays untouched.
          std::copy(im.states.begin() + static_cast<int64_t>(group * na),
                    im.states.begin() + static_cast<int64_t>((group + 1) * na),
                    im.overlay_states.begin() +
                        static_cast<int64_t>(im.overlay_count * na));
          im.overlay_groups[im.overlay_count] = group;
          im.overlay_count += 1;
          im.touched.push_back(static_cast<int64_t>(group));
        }
        group_states = im.overlay_states.data() + im.overlay_slot[group] * na;
      }
      for (size_t a = 0; a < na; ++a) {
        UpdateAggState(table, im.aggs[a], chunks.data(), row, &group_states[a]);
      }
    }
  }
  return Status::OK();
}

const std::vector<int64_t>& IncrementalGroupBy::staged_touched() const {
  return impl_->touched;
}

int64_t IncrementalGroupBy::staged_num_groups() const {
  return static_cast<int64_t>(impl_->group_keys.size());
}

int64_t IncrementalGroupBy::RepresentativeRow(int64_t group) const {
  return impl_->representative_row[static_cast<size_t>(group)];
}

Value IncrementalGroupBy::AggregateValue(int64_t group, size_t agg_idx) const {
  const Impl& im = *impl_;
  return FinalizeAggState(*im.table, im.aggs[agg_idx], im.StateOf(group)[agg_idx]);
}

bool IncrementalGroupBy::AggregateNumeric(int64_t group, size_t agg_idx,
                                          double* out) const {
  const Impl& im = *impl_;
  const AggState& state = im.StateOf(group)[agg_idx];
  const AggregateSpec& spec = im.aggs[agg_idx];
  // Mirrors FinalizeAggState(...).AsDouble() case by case: NULL -> false,
  // int64 results cast, non-numeric min/max coerce to 0.0 like AsDouble.
  switch (spec.func) {
    case AggFunc::kCount:
      *out = static_cast<double>(state.count);
      return true;
    case AggFunc::kSum:
      if (state.count == 0) return false;
      if (spec.input_col != AggregateSpec::kCountStar &&
          im.table->column(spec.input_col).type() == DataType::kInt64) {
        *out = static_cast<double>(state.isum);
      } else {
        *out = state.dsum;
      }
      return true;
    case AggFunc::kAvg:
      if (state.count == 0) return false;
      *out = state.dsum / static_cast<double>(state.count);
      return true;
    case AggFunc::kMin:
      if (state.min_value.is_null()) return false;
      *out = state.min_value.AsDouble();
      return true;
    case AggFunc::kMax:
      if (state.max_value.is_null()) return false;
      *out = state.max_value.AsDouble();
      return true;
  }
  return false;
}

void IncrementalGroupBy::AggregateNumericBatch(const int64_t* groups, size_t n,
                                               size_t agg_idx, double* out,
                                               uint8_t* valid) const {
  const Impl& im = *impl_;
  const AggregateSpec& spec = im.aggs[agg_idx];
  // Finalize mode resolved once for the whole span (the per-cell branch is
  // then perfectly predicted); kSum splits by result column type up front.
  enum class Mode { kCount, kSumInt, kSumDouble, kAvg, kMinMax };
  Mode mode = Mode::kCount;
  switch (spec.func) {
    case AggFunc::kCount:
      mode = Mode::kCount;
      break;
    case AggFunc::kSum:
      mode = (spec.input_col != AggregateSpec::kCountStar &&
              im.table->column(spec.input_col).type() == DataType::kInt64)
                 ? Mode::kSumInt
                 : Mode::kSumDouble;
      break;
    case AggFunc::kAvg:
      mode = Mode::kAvg;
      break;
    case AggFunc::kMin:
    case AggFunc::kMax:
      mode = Mode::kMinMax;
      break;
  }
  constexpr size_t kLookahead = 8;
  for (size_t i = 0; i < n; ++i) {
    if (i + kLookahead < n) PrefetchGroup(groups[i + kLookahead]);
    const AggState& state = im.StateOf(groups[i])[agg_idx];
    switch (mode) {
      case Mode::kCount:
        out[i] = static_cast<double>(state.count);
        valid[i] = 1;
        break;
      case Mode::kSumInt:
        out[i] = static_cast<double>(state.isum);
        valid[i] = state.count != 0;
        break;
      case Mode::kSumDouble:
        out[i] = state.dsum;
        valid[i] = state.count != 0;
        break;
      case Mode::kAvg:
        out[i] = state.dsum / static_cast<double>(state.count);
        valid[i] = state.count != 0;
        break;
      case Mode::kMinMax: {
        const Value& v =
            spec.func == AggFunc::kMin ? state.min_value : state.max_value;
        out[i] = v.AsDouble();
        valid[i] = !v.is_null();
        break;
      }
    }
  }
}

void IncrementalGroupBy::PrefetchGroup(int64_t group) const {
  const Impl& im = *impl_;
  // Committed states are the bulk; staged-new and overlaid rows are few and
  // recently written, so only the flat committed array is worth hinting.
  if (!im.staging || group < im.committed_groups) {
    __builtin_prefetch(im.states.data() + static_cast<size_t>(group) * im.aggs.size());
  }
}

void IncrementalGroupBy::CommitFold() {
  Impl& im = *impl_;
  if (!im.staging) return;
  const size_t na = im.aggs.size();
  for (size_t slot = 0; slot < im.overlay_count; ++slot) {
    std::move(im.overlay_states.begin() + static_cast<int64_t>(slot * na),
              im.overlay_states.begin() + static_cast<int64_t>((slot + 1) * na),
              im.states.begin() + static_cast<int64_t>(im.overlay_groups[slot] * na));
  }
  im.states.insert(im.states.end(), std::make_move_iterator(im.staged_new.begin()),
                   std::make_move_iterator(im.staged_new.end()));
  im.num_committed = static_cast<int64_t>(im.group_keys.size());
  im.rows_folded = im.staged_end;
  im.ClearStaging();
}

void IncrementalGroupBy::DiscardFold() {
  Impl& im = *impl_;
  if (!im.staging) return;
  // Remove provisional bucket entries and truncate the parallel vectors back
  // to the committed group count.
  const size_t committed = static_cast<size_t>(im.committed_groups);
  for (size_t group = committed; group < im.group_keys.size(); ++group) {
    const std::string& key = im.group_keys[group];
    im.group_index.Erase(HashBytes(key.data(), key.size()), group);
  }
  im.group_keys.resize(committed);
  im.representative_row.resize(committed);
  im.ClearStaging();
}

}  // namespace cape
