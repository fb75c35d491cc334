#ifndef CAPE_RELATIONAL_KERNELS_H_
#define CAPE_RELATIONAL_KERNELS_H_

// The chunk-driven scan kernels (DESIGN.md §14, §15). Every scan of a table
// reads its rows as ColumnChunk views from one function, ScanChunks: a
// resident table is one view over its column arrays, with no pin and no IO;
// an out-of-core table (OpenPagedTable) is its heap-file pages, each pinned
// while its rows are read. Each kernel has one body for both residencies;
// outputs are byte-identical either way.

#include <cstdint>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "common/result.h"
#include "relational/operators.h"
#include "relational/table.h"

namespace cape {

/// Block/morsel width of the scan kernels (DESIGN.md §14): scans proceed in
/// fixed-size runs of this many rows, with byte masks and selection vectors
/// sized to one block. 2048 rows keeps a block's mask (2 KB), selection
/// vector (16 KB), and packed keys (16 KB) inside L1/L2 while amortizing the
/// per-block stop check to noise. Heap-file pages hold a multiple of it, so
/// blocks never straddle a page.
inline constexpr int64_t kKernelBlockSize = 2048;
static_assert(kKernelBlockSize == kStopCheckStride,
              "block kernels check the stop token once per block; the shared "
              "stride constant must match the block size so every scan in the "
              "engine has the same stop latency");

/// σ_{c1=v1 ∧ ...} as a selection vector: appends the ascending row indices
/// of `table` satisfying `conditions` to *sel (cleared first) without
/// materializing any table. Conditions compare like RowEqualityMatcher (NULL
/// matches NULL, cross-type numeric equality by Value::Compare's rule). Stop
/// checks run at block granularity.
Status FilterEqualsSel(const Table& table,
                       const std::vector<std::pair<int, Value>>& conditions,
                       StopToken* stop, std::vector<int64_t>* sel);

/// Number of rows satisfying `conditions`, counted straight off the block
/// masks — the existence/cardinality probe shape (user_question.cc), which
/// needs no materialized selection.
Result<int64_t> CountFilterMatches(const Table& table,
                                   const std::vector<std::pair<int, Value>>& conditions,
                                   StopToken* stop = nullptr);

/// Fused σ → γ: exactly GroupByAggregate(*FilterEquals(table, conditions),
/// group_cols, aggs) — byte-identical output, same Status surface — but the
/// selection is never materialized: block masks select rows, group keys are
/// packed from the scanned chunks, and aggregates consume the selected rows
/// directly. This is the retrieval-query shape Q_{P,f} = γ_{V,agg(A)}(σ_{F=f}(R))
/// that the miners and explainers run thousands of times per request.
Result<TablePtr> FilterGroupAggregate(const Table& table,
                                      const std::vector<std::pair<int, Value>>& conditions,
                                      const std::vector<int>& group_cols,
                                      const std::vector<AggregateSpec>& aggs,
                                      StopToken* stop = nullptr);

}  // namespace cape

#endif  // CAPE_RELATIONAL_KERNELS_H_
