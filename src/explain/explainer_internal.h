#ifndef CAPE_EXPLAIN_EXPLAINER_INTERNAL_H_
#define CAPE_EXPLAIN_EXPLAINER_INTERNAL_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "common/cancellation.h"
#include "common/mutex.h"
#include "common/result.h"
#include "explain/explainer.h"
#include "relational/operators.h"
#include "relational/table.h"

namespace cape::explain_internal {

/// Caches whole γ_{attrs, agg(A)}(R) tables, one per refinement attribute
/// set F' ∪ V, shared by every (P, P') pair whose refinement has that set.
/// Only an ExplainSession keeps one, across its batch: the tables depend
/// only on the relation, never on the question. A one-shot call keeps
/// none; it pushes t'[F] = t[F] below γ per pair instead (DESIGN.md §9).
///
/// Thread-safe: concurrent workers requesting the same key serialize on
/// that entry (one computes, the rest reuse), while distinct keys compute
/// in parallel. Shares ownership of the relation, which therefore outlives
/// the cache.
class AggDataCache {
 public:
  explicit AggDataCache(TablePtr relation) : relation_(std::move(relation)) {}

  Result<TablePtr> Get(AttrSet attrs, AggFunc agg, int agg_attr, StopToken* stop)
      CAPE_EXCLUDES(mu_) {
    const std::string key = std::to_string(attrs.bits()) + "|" +
                            std::to_string(static_cast<int>(agg)) + "|" +
                            std::to_string(agg_attr);
    std::shared_ptr<Entry> entry;
    {
      MutexLock lock(mu_);
      std::shared_ptr<Entry>& slot = cache_[key];
      if (slot == nullptr) slot = std::make_shared<Entry>();
      entry = slot;
    }
    MutexLock lock(entry->mu);
    if (entry->table != nullptr) return entry->table;
    AggregateSpec spec;
    spec.func = agg;
    spec.input_col = agg_attr;
    spec.output_name = "agg";
    // A failed computation (deadline mid-aggregation) is not cached: the
    // run is ending anyway, and a later retry must not see a poisoned slot.
    CAPE_ASSIGN_OR_RETURN(TablePtr data,
                          GroupByAggregate(*relation_, attrs.ToIndices(), {spec}, stop));
    entry->table = data;
    return data;
  }

  size_t num_entries() const CAPE_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return cache_.size();
  }

 private:
  struct Entry {
    Mutex mu;
    TablePtr table CAPE_GUARDED_BY(mu);
  };

  const TablePtr relation_;
  mutable Mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<Entry>> cache_ CAPE_GUARDED_BY(mu_);
};

/// Question-independent work memoized across one ExplainSession's batch:
/// the γ tables above and the refinement adjacency (for each pattern index,
/// the indices — in enumeration order — of the patterns refining it, which
/// the one-shot path rediscovers with an O(N_P) scan per relevant pattern
/// on every question). Reusing the adjacency preserves the deterministic
/// pair-list order, so session answers are byte-identical to one-shot
/// Explain() calls.
struct SessionState {
  /// Relation the session is bound to (the first question's) and its row
  /// count at that point. Later questions must target the same table at
  /// the same size: the memoized γ tables cover exactly those rows, and
  /// Engine::AppendAndRemine grows the table in place.
  TablePtr relation;
  int64_t relation_rows = 0;
  std::unique_ptr<AggDataCache> agg_cache;
  bool adjacency_built = false;
  std::vector<std::vector<int64_t>> refinements;

  /// Cumulative counters across the session's questions.
  int64_t questions_answered = 0;
};

/// Shared generator implementation (see explainer.cc). `state` may be
/// nullptr (one-shot call, nothing memoized) or an ExplainSession's state.
Result<ExplainResult> RunExplainWithState(const UserQuestion& q, const PatternSet& patterns,
                                          const DistanceModel& distance,
                                          const ExplainConfig& config, bool optimized,
                                          SessionState* state);

}  // namespace cape::explain_internal

#endif  // CAPE_EXPLAIN_EXPLAINER_INTERNAL_H_
