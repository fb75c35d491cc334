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
// Defined in explainer_internal.h; held behind a unique_ptr so this public
// header never includes an internal one (tools/lint.py internal-include rule).
struct SessionState;
}  // namespace cape::explain_internal

namespace cape {

/// Answers a batch of user questions against one mined PatternSet,
/// memoizing question-independent work: the whole γ_{attrs,agg} aggregate
/// tables, one per refinement attribute set, and the refinement adjacency
/// (which patterns refine which). This is the online half of CAPE's
/// offline/online split at serving granularity — mine once, open a session,
/// answer many questions. A one-shot Engine::Explain() keeps neither: it
/// computes each (P, P') pair's candidates with t'[F] = t[F] pushed below
/// γ, which is cheaper for one question and dearer than a warm memo for
/// many.
///
/// Every answer is byte-identical to calling Engine::Explain() on the same
/// question: the memoized γ tables hold a superset of the pushed-down
/// groups, with the same aggregates in the same relative order, and the
/// memo never changes the deterministic candidate order (DESIGN.md §11).
///
/// All questions in one session must target the relation of the first
/// question, at the row count it had then (the γ tables are per-relation;
/// after Engine::AppendAndRemine grows the table, open a new session). Not
/// intended for concurrent Explain() calls on the same session; open one
/// session per serving thread — they can all share one cached PatternSet.
class ExplainSession {
 public:
  ExplainSession(std::shared_ptr<const PatternSet> patterns, DistanceModel distance,
                 ExplainConfig config);
  ~ExplainSession();

  ExplainSession(ExplainSession&&) noexcept;
  ExplainSession& operator=(ExplainSession&&) noexcept;
  ExplainSession(const ExplainSession&) = delete;
  ExplainSession& operator=(const ExplainSession&) = delete;

  /// Answers one question. `optimized` selects EXPL-GEN-OPT over
  /// EXPL-GEN-NAIVE, exactly as in Engine::Explain. InvalidArgument when the
  /// question targets another relation than the first question did, or the
  /// same relation after its row count changed.
  Result<ExplainResult> Explain(const UserQuestion& question, bool optimized = true);

  /// Answers questions in order; fails fast on the first error.
  Result<std::vector<ExplainResult>> ExplainBatch(const std::vector<UserQuestion>& questions,
                                                  bool optimized = true);

  const PatternSet& patterns() const { return *patterns_; }
  ExplainConfig& config() { return config_; }
  const ExplainConfig& config() const { return config_; }

  /// Questions answered so far.
  int64_t questions_answered() const;
  /// Distinct γ_{attrs,agg} tables memoized so far (grows sub-linearly in
  /// questions — that is the point of the session).
  size_t num_cached_agg_tables() const;

 private:
  std::shared_ptr<const PatternSet> patterns_;
  DistanceModel distance_;
  ExplainConfig config_;
  std::unique_ptr<explain_internal::SessionState> state_;
};

}  // namespace cape

#endif  // CAPE_EXPLAIN_EXPLAIN_SESSION_H_
