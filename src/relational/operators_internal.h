#ifndef CAPE_RELATIONAL_OPERATORS_INTERNAL_H_
#define CAPE_RELATIONAL_OPERATORS_INTERNAL_H_

// Argument validation and aggregate output types, shared between the
// operators (operators.cc) and the scan kernels (kernels.cc, which hold the
// group table and the aggregate-state arithmetic).

#include "relational/operators.h"
#include "relational/table.h"

namespace cape::relational_internal {

Status ValidateColumnIndex(const Table& table, int col);
Status ValidateAggSpec(const Table& table, const AggregateSpec& spec);

/// Output field type of one aggregate over `table`.
DataType AggOutputType(const Table& table, const AggregateSpec& spec);

}  // namespace cape::relational_internal

#endif  // CAPE_RELATIONAL_OPERATORS_INTERNAL_H_
