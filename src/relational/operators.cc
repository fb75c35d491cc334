#include "relational/operators.h"

#include <algorithm>
#include <cstring>
#include <numeric>

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

}  // namespace relational_internal

namespace {

using relational_internal::AggOutputType;
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
  offsets_.push_back(0);
  for (int c : cols_) {
    types_.push_back(table.column(c).type());
    const size_t payload = types_.back() == DataType::kString ? sizeof(int32_t) : sizeof(int64_t);
    offsets_.push_back(offsets_.back() + 1 + payload);
  }
}

void GroupKeyEncoder::EncodeRow(const ColumnChunk* chunks, int64_t row,
                                std::string* buf) const {
  // The key is zero-filled first, so a NULL cell (flag and payload zero)
  // needs no write.
  const size_t base = buf->size();
  buf->resize(base + key_width());
  char* key = buf->data() + base;
  for (size_t k = 0; k < cols_.size(); ++k) {
    const ColumnChunk& chunk = chunks[cols_[k]];
    if (chunk.validity[row] == 0) continue;
    char* cell = key + offsets_[k];
    cell[0] = '\1';
    switch (types_[k]) {
      case DataType::kInt64:
        std::memcpy(cell + 1, &chunk.i64[row], sizeof(int64_t));
        break;
      case DataType::kDouble: {
        const double v = CanonicalDouble(chunk.f64[row]);
        std::memcpy(cell + 1, &v, sizeof(v));
        break;
      }
      case DataType::kString:
        std::memcpy(cell + 1, &chunk.codes[row], sizeof(int32_t));
        break;
    }
  }
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
        cmp = col.CompareRows(a, b);
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

}  // namespace cape
