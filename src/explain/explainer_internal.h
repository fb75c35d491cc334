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

/// The γ memo: whole γ_{attrs, agg(A)}(R) tables, one per attribute set,
/// over the relation as it stood when the memo was made. An Engine keeps
/// one and hands it to every ExplainSession it opens, so all of them share
/// each table. A session reads two things from it: the candidates of every
/// (P, P') pair, from the table over F' ∪ V, and every NORM, from the
/// t[F ∪ V] group of the table over P's own F ∪ V (P refines itself, so its
/// pairs need that table anyway). A one-shot call keeps no memo; it pushes
/// the question's selections below γ instead (DESIGN.md §9). The tables
/// depend only on the relation, so Engine::AppendAndRemine replaces the
/// memo once rows are appended, and a session holding the old one rejects
/// every question.
///
/// Thread-safe: concurrent workers requesting the same key serialize on
/// that entry (one computes, the rest reuse), while distinct keys compute
/// in parallel. Shares ownership of the relation, which therefore outlives
/// the memo.
class AggDataCache {
 public:
  explicit AggDataCache(TablePtr relation)
      : relation_(std::move(relation)), relation_rows_(relation_->num_rows()) {}

  /// The relation, and its row count when the memo was made: the only
  /// questions the tables answer are over that table at that size.
  const TablePtr& relation() const { return relation_; }
  int64_t relation_rows() const { return relation_rows_; }

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
    // Over an out-of-core relation the γ reads pages under entry->mu; that
    // is the single-flight wait, and only requesters of this key share it.
    const std::vector<int> cols = attrs.ToIndices();
    // analyzer:allow-next-line(lock-order) single-flight memo; per-key lock
    CAPE_ASSIGN_OR_RETURN(TablePtr data, GroupByAggregate(*relation_, cols, {spec}, stop));
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
  const int64_t relation_rows_;
  mutable Mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<Entry>> cache_ CAPE_GUARDED_BY(mu_);
};

/// Shared generator implementation (see explainer.cc). `memo` is nullptr
/// for a one-shot call (nothing memoized) or an ExplainSession's γ memo.
Result<ExplainResult> RunExplainWithMemo(const UserQuestion& q, const PatternSet& patterns,
                                         const DistanceModel& distance,
                                         const ExplainConfig& config, bool optimized,
                                         AggDataCache* memo);

}  // namespace cape::explain_internal

#endif  // CAPE_EXPLAIN_EXPLAINER_INTERNAL_H_
