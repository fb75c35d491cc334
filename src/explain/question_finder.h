#ifndef CAPE_EXPLAIN_QUESTION_FINDER_H_
#define CAPE_EXPLAIN_QUESTION_FINDER_H_

#include <vector>

#include "common/cancellation.h"
#include "common/result.h"
#include "explain/user_question.h"
#include "pattern/pattern_set.h"

namespace cape {

/// A recommended user question: a tuple whose aggregate deviates strongly
/// from what a mined pattern predicts for it.
struct CandidateQuestion {
  UserQuestion question;
  /// The pattern whose local model flagged the tuple.
  Pattern pattern;
  /// dev_P(t) (Definition 8); the question direction is kHigh for positive
  /// deviation and kLow for negative.
  double deviation = 0.0;
  /// |deviation| normalized by the local model's prediction magnitude —
  /// the ranking key (a 2x dip at prediction 4 outranks a 5% dip at 400).
  double outlierness = 0.0;
};

struct QuestionFinderOptions {
  /// Number of questions to return; at least 1 (InvalidArgument otherwise).
  int top_k = 10;
  /// Minimum |deviation| / (|prediction|+1) for a tuple to be considered.
  double min_outlierness = 0.3;
  /// Optional cooperative stop: the per-pattern row scans check it at
  /// kStopCheckStride granularity and return its status when it fires.
  /// Not owned; must outlive the call. nullptr = never stop.
  StopToken* stop = nullptr;
};

/// Scans the data of every mined pattern for tuples that deviate strongly
/// from their local model and proposes ready-to-ask user questions, ranked
/// by outlierness. This inverts the CAPE pipeline's entry point: instead of
/// the analyst spotting an outlier manually (the paper assumes the question
/// is given), the mined patterns themselves surface the most question-worthy
/// answers — the interaction the visual-exploration tools in the paper's
/// related-work section provide.
///
/// At most one question (the strongest) is returned per (pattern-granularity
/// tuple), and each question is validated against `table` the same way
/// MakeUserQuestion validates analyst-supplied ones.
Result<std::vector<CandidateQuestion>> FindCandidateQuestions(
    TablePtr table, const PatternSet& patterns, const QuestionFinderOptions& options = {});

}  // namespace cape

#endif  // CAPE_EXPLAIN_QUESTION_FINDER_H_
