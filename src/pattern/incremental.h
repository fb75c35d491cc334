#ifndef CAPE_PATTERN_INCREMENTAL_H_
#define CAPE_PATTERN_INCREMENTAL_H_

#include <memory>
#include <vector>

#include "common/cancellation.h"
#include "common/result.h"
#include "pattern/mining.h"
#include "pattern/pattern_set.h"
#include "relational/table.h"
#include "stats/descriptive.h"

namespace cape {

/// Counters describing the work an incremental maintenance pass avoided and
/// performed (DESIGN.md §16). All counters are cumulative over the
/// maintainer's lifetime; Engine::AppendAndRemine diffs them per call.
struct MaintenanceStats {
  /// Successful Absorb passes that folded at least one row.
  int64_t batches_absorbed = 0;
  /// Delta rows folded across those passes.
  int64_t rows_absorbed = 0;
  /// Group states (summed over all maintained G sets) whose aggregates a
  /// delta changed or created.
  int64_t groups_touched = 0;
  /// Subset of groups_touched that were first seen in a delta.
  int64_t groups_created = 0;
  /// Fragments whose candidate models were re-fitted because a delta touched
  /// at least one of their groups. Untouched fragments keep their local
  /// patterns verbatim — that gap versus the total fragment count is the
  /// incremental win.
  int64_t fragments_refit = 0;
  /// (fragment, candidate) combinations re-validated via the exact same
  /// FitFragmentCandidate path the from-scratch miners use.
  int64_t candidates_revalidated = 0;
  /// Local patterns that appeared / disappeared / were re-fitted in place
  /// under re-validation. Locals in Finalize() beyond added+replaced were
  /// retained verbatim from the previous fold point.
  int64_t locals_added = 0;
  int64_t locals_dropped = 0;
  int64_t locals_replaced = 0;
  /// Per base column, mergeable Welford moments of all non-null values folded
  /// so far (numeric columns only; string slots stay empty). Each Absorb
  /// accumulates the delta into a fresh batch accumulator and folds it in
  /// with RunningStats::Merge — the mergeable-accumulator machinery
  /// stats_incremental_test pins, exercised on the production path.
  std::vector<RunningStats> column_stats;
};

/// Incrementally maintained ARP mining state (DESIGN.md §16): holds, per
/// candidate attribute set G, an IncrementalGroupBy over the base table plus
/// per-(F, V)-split fragment buckets and the surviving local patterns, so an
/// append of d rows re-validates only the fragments whose group keys
/// intersect the delta instead of re-mining all n rows.
///
/// Invariant: after any successful Absorb, Finalize() is byte-identical to
/// running any of the from-scratch miners on the current table with the same
/// config (random_equivalence_test proves this across seeds, append
/// schedules, storage, and thread counts). The equivalence holds
/// because every ingredient reuses the exact batch code path: group states
/// extend the committed AggState fold sequentially (never merging partial
/// sums), fragment cells sort by the same Value ordering SortTable uses, and
/// re-validation calls mining_internal::FitFragmentCandidate on identically
/// constructed vectors.
///
/// Absorb is transactional: on stop, error, or an injected
/// "incremental.merge" fault, all staged work is discarded and the
/// maintainer remains valid at its previous fold point — callers may retry,
/// catch up later, or fall back to a from-scratch mine (Engine does the
/// latter and counts it as a full re-mine).
///
/// Unsupported configurations are rejected at Build with Unimplemented:
/// paged (non-resident) tables and use_fd_optimizations (FD skips change
/// the candidate space). Tables containing NaN in an eligible double attribute are
/// rejected the same way — NaN compares equal to every number under Value
/// ordering, so fragment identity would not be byte-stable.
///
/// Not thread-safe; the table must outlive the maintainer and must only grow
/// via appends between calls.
class PatternMaintainer {
 public:
  /// Builds maintenance state for `table` under `config` and folds all
  /// current rows (equivalent to an initial mine). `stop` bounds the initial
  /// fold; on stop the partially built maintainer is discarded.
  static Result<std::unique_ptr<PatternMaintainer>> Build(TablePtr table,
                                                          const MiningConfig& config,
                                                          StopToken* stop = nullptr);

  ~PatternMaintainer();
  PatternMaintainer(const PatternMaintainer&) = delete;
  PatternMaintainer& operator=(const PatternMaintainer&) = delete;

  /// Folds rows [rows_folded(), table->num_rows()) into the maintained
  /// state: extends every group table by the delta, re-validates exactly the
  /// fragments whose group keys the delta touched, and re-runs candidate
  /// generation only for newly-seen group values. No-op when the table has
  /// not grown. All-or-nothing (see class comment).
  Status Absorb(StopToken* stop = nullptr);

  /// The pattern set for the first rows_folded() rows — byte-identical to a
  /// from-scratch mine of those rows. Cheap relative to mining: it re-ranks
  /// surviving candidates, it does not touch the data.
  PatternSet Finalize() const;

  /// Rows [0, rows_folded()) are reflected in Finalize().
  int64_t rows_folded() const;

  /// MiningConfigDigest of the config the maintainer was built with; callers
  /// must rebuild when their config digest diverges.
  uint64_t config_digest() const;

  const MaintenanceStats& stats() const;

 private:
  struct Rep;
  explicit PatternMaintainer(std::unique_ptr<Rep> rep);
  std::unique_ptr<Rep> rep_;
};

}  // namespace cape

#endif  // CAPE_PATTERN_INCREMENTAL_H_
