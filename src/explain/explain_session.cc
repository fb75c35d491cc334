#include "explain/explain_session.h"

#include "common/macros.h"
#include "explain/explainer_internal.h"

namespace cape {

ExplainSession::ExplainSession(std::shared_ptr<const PatternSet> patterns,
                               DistanceModel distance, ExplainConfig config,
                               std::shared_ptr<explain_internal::AggDataCache> memo)
    : patterns_(std::move(patterns)), distance_(std::move(distance)),
      config_(std::move(config)), memo_(std::move(memo)) {}

std::shared_ptr<explain_internal::AggDataCache> ExplainSession::MakeMemo(TablePtr relation) {
  return std::make_shared<explain_internal::AggDataCache>(std::move(relation));
}

size_t ExplainSession::num_cached_agg_tables() const {
  return memo_ == nullptr ? 0 : memo_->num_entries();
}

Result<ExplainResult> ExplainSession::Explain(const UserQuestion& question, bool optimized) {
  if (patterns_ == nullptr || memo_ == nullptr) {
    return Status::InvalidArgument("ExplainSession has no pattern set or no γ memo");
  }
  const explain_internal::AggDataCache& memo = *memo_;
  if (question.relation != memo.relation()) {
    // The memo's γ tables are computed over its relation; serving a
    // different table from them would be silently wrong, so reject instead.
    return Status::InvalidArgument(
        "ExplainSession answers questions over its engine's relation; open a "
        "session of the engine that owns this table");
  }
  if (question.relation->num_rows() != memo.relation_rows()) {
    // Same table, grown in place (Engine::AppendAndRemine) since the memo
    // was made: its γ tables miss the new rows.
    return Status::InvalidArgument(
        "ExplainSession's relation changed size since the session was opened; "
        "open a new session after an append");
  }
  CAPE_ASSIGN_OR_RETURN(ExplainResult result,
                        explain_internal::RunExplainWithMemo(question, *patterns_, distance_,
                                                             config_, optimized, memo_.get()));
  questions_answered_ += 1;
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
