#ifndef CAPE_RELATIONAL_OPERATORS_INTERNAL_H_
#define CAPE_RELATIONAL_OPERATORS_INTERNAL_H_

// Aggregate-state machinery shared between the scan kernels (kernels.cc)
// and IncrementalGroupBy (operators.cc). Both must produce byte-identical
// output, so they share the exact update and finalize arithmetic — in
// particular the int64 sum's dual isum/dsum accumulation and the boxed
// min/max comparison rules — and read rows the same way, as ColumnChunk
// arrays.

#include <cstdint>
#include <vector>

#include "relational/operators.h"
#include "relational/table.h"

namespace cape::relational_internal {

Status ValidateColumnIndex(const Table& table, int col);
Status ValidateAggSpec(const Table& table, const AggregateSpec& spec);

/// Output field type of one aggregate over `table`.
DataType AggOutputType(const Table& table, const AggregateSpec& spec);

/// Boxes view-local row `i` of `chunk` exactly as Column::GetValue would:
/// the chunk mirrors the Column layout, and `col` supplies the type and
/// (for strings) the dictionary.
Value ChunkGetValue(const ColumnChunk& chunk, const Column& col, int64_t i);

/// Running state of one aggregate within one group.
struct AggState {
  int64_t count = 0;  // non-null inputs (rows for count(*))
  int64_t isum = 0;   // integer sum
  double dsum = 0.0;  // double sum
  Value min_value;    // NULL until first non-null input
  Value max_value;
};

/// Folds view-local row `i` of `chunks` (one ColumnChunk per column of
/// `table`) into `state`.
void UpdateAggState(const Table& table, const AggregateSpec& spec, const ColumnChunk* chunks,
                    int64_t i, AggState* state);

Value FinalizeAggState(const Table& table, const AggregateSpec& spec,
                       const AggState& state);

}  // namespace cape::relational_internal

#endif  // CAPE_RELATIONAL_OPERATORS_INTERNAL_H_
