#include "explain/explain_session.h"

#include "common/macros.h"
#include "explain/explainer_internal.h"

namespace cape {

ExplainSession::ExplainSession(std::shared_ptr<const PatternSet> patterns,
                               DistanceModel distance, ExplainConfig config)
    : patterns_(std::move(patterns)), distance_(std::move(distance)),
      config_(std::move(config)),
      state_(std::make_unique<explain_internal::SessionState>()) {}

// Out of line: SessionState is incomplete in the header (pimpl).
ExplainSession::~ExplainSession() = default;
ExplainSession::ExplainSession(ExplainSession&&) noexcept = default;
ExplainSession& ExplainSession::operator=(ExplainSession&&) noexcept = default;

int64_t ExplainSession::questions_answered() const { return state_->questions_answered; }

size_t ExplainSession::num_cached_agg_tables() const {
  return state_->agg_cache == nullptr ? 0 : state_->agg_cache->num_entries();
}

Result<ExplainResult> ExplainSession::Explain(const UserQuestion& question, bool optimized) {
  if (patterns_ == nullptr) {
    return Status::InvalidArgument("ExplainSession has no pattern set");
  }
  if (state_->relation == nullptr) {
    state_->relation = question.relation;
    state_->relation_rows = question.relation->num_rows();
  } else if (state_->relation != question.relation) {
    // The memoized γ tables are computed over the first question's
    // relation; serving a different table from them would be silently
    // wrong, so reject instead.
    return Status::InvalidArgument(
        "ExplainSession answers questions over one relation; open a new session "
        "for a different table");
  } else if (state_->relation->num_rows() != state_->relation_rows) {
    // Same table, grown in place (Engine::AppendAndRemine) since the memo
    // was built: its γ tables miss the new rows while NORM would see them.
    return Status::InvalidArgument(
        "ExplainSession's relation changed size since its first question; open a "
        "new session after an append");
  }
  CAPE_ASSIGN_OR_RETURN(ExplainResult result,
                        explain_internal::RunExplainWithState(question, *patterns_, distance_,
                                                              config_, optimized,
                                                              state_.get()));
  state_->questions_answered += 1;
  return result;
}

Result<std::vector<ExplainResult>> ExplainSession::ExplainBatch(
    const std::vector<UserQuestion>& questions, bool optimized) {
  std::vector<ExplainResult> out;
  out.reserve(questions.size());
  for (const UserQuestion& q : questions) {
    CAPE_ASSIGN_OR_RETURN(ExplainResult result, Explain(q, optimized));
    out.push_back(std::move(result));
  }
  return out;
}

}  // namespace cape
