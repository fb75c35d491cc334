#ifndef CAPE_EXPLAIN_EXPLAINER_H_
#define CAPE_EXPLAIN_EXPLAINER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/result.h"
#include "explain/distance.h"
#include "explain/explanation.h"
#include "explain/user_question.h"
#include "pattern/pattern_set.h"

namespace cape {

struct ExplainConfig {
  /// Number of explanations to return (top-k, Section 3.4); at least 1, or
  /// the generators and the baseline return InvalidArgument.
  int top_k = 10;
  /// Added to denominators (distance and NORM) to avoid division by zero
  /// (footnote 2 of the paper).
  double epsilon = 1e-9;
  /// EXPL-GEN-OPT ablation knobs (both on by default): process (P, P')
  /// pairs in decreasing score↑ order and stop at the top-k floor; and
  /// apply the per-fragment "more accurate bound" while scanning tuples
  /// (Section 3.5). The naive generator ignores both.
  bool prune_pairs = true;
  bool prune_locals = true;

  /// Worker threads for the online scoring phase: the (P, P') candidate
  /// pairs are partitioned across workers of the shared ThreadPool, each
  /// scoring into its own candidate pool with a shared monotone top-k floor
  /// so the Section 3.5 pruning keeps firing across threads. The merged
  /// top-k is byte-identical to the single-threaded run at any thread count
  /// (DESIGN.md §9). 1 = fully inline, no pool involvement.
  int num_threads = 1;

  /// Request lifecycle: when deadline_ms > 0 the generator stops
  /// cooperatively after that many milliseconds of wall time and returns the
  /// best explanations found so far with ExplainResult::partial set;
  /// cancel_token allows another thread to stop the run the same way.
  /// 0 = no deadline.
  int64_t deadline_ms = 0;
  CancellationToken cancel_token;

  /// StopToken for this request (infinite when deadline_ms <= 0 and no
  /// cancellable token was provided).
  StopToken MakeStopToken() const {
    return StopToken(deadline_ms > 0 ? Deadline::AfterMillis(deadline_ms)
                                     : Deadline::Infinite(),
                     cancel_token);
  }
};

/// Counters for Figures 6a-6c and for tests of the pruning logic.
///
/// `total_ns` is wall time. It splits into three stages: `stage1_ns`
/// (relevant patterns, NORMs and the sorted pair list, inline), the
/// parallel scoring of the pairs, and `merge_ns` (merging the per-worker
/// pools, the cut to k and building the returned Explanations, inline).
/// Both stage times are wall time and their sum is at most `total_ns`; the
/// scoring stage is the rest. `cpu_ns` is the scoring work summed across
/// workers and may exceed `total_ns` when num_threads > 1 (its ratio to the
/// scoring stage's wall time is the effective scoring parallelism). The
/// work counters (num_tuples_checked, num_pairs_pruned, ...) are exact
/// totals but — like any pruning statistic — can vary with thread count
/// and timing, since a faster-rising shared floor prunes more; only the
/// returned top-k is guaranteed identical.
struct ExplainProfile {
  int64_t total_ns = 0;               // wall time of the whole request
  int64_t stage1_ns = 0;              // wall: relevant patterns, NORMs, pair list
  int64_t merge_ns = 0;               // wall: pool merge, cut, Explanations built
  int64_t cpu_ns = 0;                 // scoring time summed over workers
  int64_t num_relevant_patterns = 0;
  int64_t num_refinement_pairs = 0;   // (P, P') combinations considered
  int64_t num_pairs_pruned = 0;       // pairs skipped via the score bound
  /// Candidate t' examined: rows of the (P, P') candidate tables scanned.
  /// A one-shot call pushes t'[F] = t[F] below γ, so there it counts only
  /// the F-matching groups; a session scans whole γ tables and counts
  /// every group (DESIGN.md §9).
  int64_t num_tuples_checked = 0;
  int64_t num_candidates = 0;         // candidates passing Definition 7
};

struct ExplainResult {
  std::vector<Explanation> explanations;  // descending score
  ExplainProfile profile;
  /// Set when the run stopped early (deadline/cancellation). `explanations`
  /// is then the top-k over the candidates scored before the stop — every
  /// entry is fully scored and also appears in the untimed run's candidate
  /// stream. `stopped_stage` names the stage the stop interrupted
  /// ("norm" or "refine").
  bool partial = false;
  StopReason stop_reason = StopReason::kNone;
  std::string stopped_stage;
};

/// Generates the top-k counterbalance explanations for a user question from
/// a set of mined ARPs (Section 3).
class ExplanationGenerator {
 public:
  virtual ~ExplanationGenerator() = default;

  virtual std::string name() const = 0;

  virtual Result<ExplainResult> Explain(const UserQuestion& question,
                                        const PatternSet& patterns,
                                        const DistanceModel& distance,
                                        const ExplainConfig& config) = 0;
};

/// EXPL-GEN-NAIVE: Algorithm 1 — checks every candidate explanation.
std::unique_ptr<ExplanationGenerator> MakeNaiveExplainer();

/// EXPL-GEN-OPT: Section 3.5 — processes (P, P') pairs in decreasing order
/// of their score upper bound score↑(φ, P, P') and prunes pairs (and stops
/// entirely) once the bound cannot beat the current top-k floor.
std::unique_ptr<ExplanationGenerator> MakeOptimizedExplainer();

}  // namespace cape

#endif  // CAPE_EXPLAIN_EXPLAINER_H_
