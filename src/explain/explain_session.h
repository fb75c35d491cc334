#ifndef CAPE_EXPLAIN_EXPLAIN_SESSION_H_
#define CAPE_EXPLAIN_EXPLAIN_SESSION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "explain/distance.h"
#include "explain/explainer.h"
#include "explain/user_question.h"
#include "pattern/pattern_set.h"

namespace cape::explain_internal {
// Defined in explainer_internal.h; held by pointer so this public header
// never includes an internal one (tools/lint.py internal-include rule).
class AggDataCache;
}  // namespace cape::explain_internal

namespace cape {

/// Answers user questions against one mined PatternSet from the engine's
/// γ memo — whole γ_{attrs,agg} tables, one per attribute set, which every
/// session of one engine shares. A session holds no explain state of its
/// own: it is a handle on the pattern set and the memo, plus its config and
/// a question count, so it is cheap to open per question. This is the
/// online half of CAPE's offline/online split at serving granularity — mine
/// once, open sessions, answer many questions. A warm memo serves each
/// pair's candidates and each NORM from its tables and scans no relation
/// rows. A one-shot Engine::Explain() uses no memo: it pushes t'[F] = t[F]
/// below γ per (P, P') pair and scans R for each NORM, which is cheaper for
/// one question and dearer than a warm memo for many.
///
/// Every answer is byte-identical to calling Engine::Explain() on the same
/// question: a memoized γ table holds a superset of the pushed-down groups,
/// with the same aggregates in the same relative order, its t[F ∪ V] group
/// sums exactly the rows NORM's scan selects, and the memo never changes
/// the deterministic candidate order (DESIGN.md §11).
///
/// Every question must target the engine's relation at the row count it had
/// when the session was opened (the memo covers exactly those rows; after
/// Engine::AppendAndRemine grows the table, open a new session). Not
/// intended for concurrent Explain() calls on the same session; open one
/// session per serving thread or per request — they share the engine's
/// pattern set and memo.
class ExplainSession {
 public:
  /// Engine::MakeExplainSession() is the usual way to open one; `memo`
  /// comes from MakeMemo.
  ExplainSession(std::shared_ptr<const PatternSet> patterns, DistanceModel distance,
                 ExplainConfig config, std::shared_ptr<explain_internal::AggDataCache> memo);

  ExplainSession(ExplainSession&&) = default;
  ExplainSession& operator=(ExplainSession&&) = default;
  ExplainSession(const ExplainSession&) = delete;
  ExplainSession& operator=(const ExplainSession&) = delete;

  /// An empty γ memo over `relation` at its current row count.
  static std::shared_ptr<explain_internal::AggDataCache> MakeMemo(TablePtr relation);

  /// Answers one question. `optimized` selects EXPL-GEN-OPT over
  /// EXPL-GEN-NAIVE, exactly as in Engine::Explain. InvalidArgument when the
  /// question targets another relation than the memo's, or the memo's
  /// relation after its row count changed.
  Result<ExplainResult> Explain(const UserQuestion& question, bool optimized = true);

  /// Answers questions in order; fails fast on the first error.
  Result<std::vector<ExplainResult>> ExplainBatch(const std::vector<UserQuestion>& questions,
                                                  bool optimized = true);

  const PatternSet& patterns() const { return *patterns_; }
  ExplainConfig& config() { return config_; }
  const ExplainConfig& config() const { return config_; }

  /// Questions answered so far.
  int64_t questions_answered() const { return questions_answered_; }
  /// Distinct γ_{attrs,agg} tables in the memo so far, counting those that
  /// other sessions of the same engine added (it grows sub-linearly in
  /// questions — that is the point of the memo).
  size_t num_cached_agg_tables() const;

 private:
  std::shared_ptr<const PatternSet> patterns_;
  DistanceModel distance_;
  ExplainConfig config_;
  /// The engine's memo, shared with its other sessions.
  std::shared_ptr<explain_internal::AggDataCache> memo_;
  int64_t questions_answered_ = 0;
};

}  // namespace cape

#endif  // CAPE_EXPLAIN_EXPLAIN_SESSION_H_
