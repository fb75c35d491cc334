#include "explain/explainer.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <set>
#include <unordered_map>

#include "common/failpoint.h"
#include "common/macros.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "explain/explainer_internal.h"
#include "relational/kernels.h"

namespace cape {

namespace {

using explain_internal::AggDataCache;
using explain_internal::SessionState;

/// Stable identity of a candidate explanation. The paper deduplicates per
/// (P', t'); we deduplicate per counterbalance tuple t' (attrs + values),
/// which additionally collapses the case where the same tuple is reachable
/// through different predictor splits (e.g. [author,venue]:year and
/// [author,year]:venue both yield (AX, ICDE, 2007)) — the displayed tables
/// in the paper contain each tuple once.
std::string CandidateKey(const Explanation& e) {
  std::string key = std::to_string(e.tuple_attrs.bits());
  key.push_back('|');
  key += EncodeRowKey(e.tuple_values);
  return key;
}

/// Deterministic identity of one candidate in the scoring stream: the
/// (P, P') pair's position in the deterministically-ordered pair list plus
/// the tuple's row inside that pair's aggregated data. When two candidates
/// for the same tuple tie on score, the lower rank wins — a rule that
/// depends only on the *set* of candidates scored, never on the order the
/// workers happened to score them, which is what keeps the retained
/// Explanation (and hence the rendered output) identical at any thread
/// count.
struct CandidateRank {
  int64_t pair = 0;
  int64_t row = 0;
};

bool RankLess(const CandidateRank& a, const CandidateRank& b) {
  if (a.pair != b.pair) return a.pair < b.pair;
  return a.row < b.row;
}

/// Holds the best-scoring explanation per counterbalance tuple and exposes
/// the k-th best deduplicated score as the pruning floor. Each scoring
/// worker owns one pool (no locks on the Add path); when a `floor` is
/// attached, every update that changes a full pool's threshold publishes it
/// to the shared monotone floor so other workers prune against it too.
class CandidatePool {
 public:
  CandidatePool(int k, SharedScoreFloor* floor) : k_(k), floor_(floor) {}

  void Add(Explanation e, CandidateRank rank) {
    std::string key = CandidateKey(e);
    auto it = best_.find(key);
    if (it == best_.end()) {
      scores_.insert(e.score);
      best_.emplace(std::move(key), Entry{std::move(e), rank});
      Publish();
      return;
    }
    Entry& held = it->second;
    if (e.score < held.explanation.score) return;
    if (e.score == held.explanation.score) {
      // Same tuple, same score, different (P, P') or row: deterministic
      // winner regardless of insertion order.
      if (RankLess(rank, held.rank)) held = Entry{std::move(e), rank};
      return;
    }
    scores_.erase(scores_.find(held.explanation.score));
    scores_.insert(e.score);
    held = Entry{std::move(e), rank};
    Publish();
  }

  /// Folds another pool's candidates into this one (used for the final
  /// merge; both pools must share the same k).
  void Merge(const CandidatePool& other) {
    for (const auto& [key, entry] : other.best_) Add(entry.explanation, entry.rank);
  }

  bool Full() const { return static_cast<int>(best_.size()) >= k_; }

  /// Lowest score still inside the top-k, or -inf when not yet full.
  double Threshold() const {
    if (!Full()) return -std::numeric_limits<double>::infinity();
    auto it = scores_.begin();
    std::advance(it, k_ - 1);
    return *it;
  }

  std::vector<Explanation> TopK() const {
    std::vector<Explanation> out;
    out.reserve(best_.size());
    for (const auto& [key, entry] : best_) out.push_back(entry.explanation);
    std::sort(out.begin(), out.end(), [](const Explanation& a, const Explanation& b) {
      if (a.score != b.score) return a.score > b.score;
      return CandidateKey(a) < CandidateKey(b);  // deterministic tie-break
    });
    if (static_cast<int>(out.size()) > k_) out.resize(static_cast<size_t>(k_));
    return out;
  }

 private:
  struct Entry {
    Explanation explanation;
    CandidateRank rank;
  };

  void Publish() {
    if (floor_ != nullptr && Full()) floor_->RaiseTo(Threshold());
  }

  int k_;
  SharedScoreFloor* floor_;
  std::unordered_map<std::string, Entry> best_;
  std::multiset<double, std::greater<double>> scores_;
};

/// Relevant patterns (Definition 5) restricted to the question's aggregate:
/// F ∪ V ⊆ G and the pattern holds locally on t[F].
std::vector<const GlobalPattern*> FindRelevantPatterns(const UserQuestion& q,
                                                       const PatternSet& patterns) {
  std::vector<const GlobalPattern*> out;
  for (const GlobalPattern& gp : patterns.patterns()) {
    const Pattern& p = gp.pattern;
    if (p.agg != q.agg || p.agg_attr != q.agg_attr) continue;
    if (!q.group_attrs.ContainsAll(p.GroupAttrs())) continue;
    if (gp.FindLocal(q.ProjectGroupValues(p.partition_attrs)) == nullptr) continue;
    out.push_back(&gp);
  }
  return out;
}

/// σ_{S = t[S]} for S ⊆ G, as equality conditions on R's columns.
std::vector<std::pair<int, Value>> QuestionConditions(const UserQuestion& q, AttrSet s) {
  std::vector<std::pair<int, Value>> conditions;
  const std::vector<int> cols = s.ToIndices();
  const Row values = q.ProjectGroupValues(s);
  for (size_t i = 0; i < cols.size(); ++i) conditions.emplace_back(cols[i], values[i]);
  return conditions;
}

/// NORM of Definition 10: the question's own aggregate at the relevant
/// pattern's granularity, π_{agg(A)}(σ_{F=t[F] ∧ V=t[V]}(γ_{F∪V,agg(A)}(R))).
Result<double> ComputeNorm(const UserQuestion& q, const Pattern& p, StopToken* stop) {
  CAPE_FAILPOINT("explain.norm");
  const AggregateSpec spec{p.agg, p.agg_attr, "agg"};
  // Fused σ→γ over the whole relation: one block scan, no filtered table.
  CAPE_ASSIGN_OR_RETURN(
      TablePtr aggregated,
      FilterGroupAggregate(*q.relation, QuestionConditions(q, p.GroupAttrs()),
                           std::vector<int>{}, {spec}, stop));
  const Value v = aggregated->GetValue(0, 0);
  return v.is_null() ? 0.0 : v.AsDouble();
}

/// dev↑(φ, P'): the largest counterbalancing deviation any tuple of P' can
/// have; <= 0 means no tuple can counterbalance the question's direction.
double DeviationUpperBound(const GlobalPattern& gp, Direction dir) {
  return dir == Direction::kLow ? gp.max_positive_dev : -gp.min_negative_dev;
}

double LocalDeviationUpperBound(const LocalPattern& local, Direction dir) {
  return dir == Direction::kLow ? local.max_positive_dev : -local.min_negative_dev;
}

/// Records an early stop: the result keeps the best explanations found so
/// far and reports which stage the deadline/cancellation interrupted.
void MarkPartial(ExplainResult* result, StopReason reason, const char* stage) {
  result->partial = true;
  result->stop_reason = reason;
  result->stopped_stage = stage;
}

/// One (P, P') scoring unit. `bound` is score↑(φ, P, P') from Section 3.5
/// (0 for the naive generator, which never prunes); `rank` is the unit's
/// position in the deterministically-ordered pair list.
struct PairTask {
  const GlobalPattern* relevant = nullptr;
  const GlobalPattern* refinement = nullptr;
  double norm = 0.0;
  double bound = 0.0;
};

/// Scans all candidate tuples t' for one (P, P') pair, adding every valid
/// explanation (Definition 7) to the worker's pool. When `prune_locals` is
/// set, fragments whose local deviation bound cannot beat the shared score
/// floor are skipped (the "more accurate bound" of Section 3.5). The floor
/// comparison is strict: a fragment that could still *tie* the k-th best
/// score is always scanned, which is what makes the pruned set — and hence
/// the final top-k — independent of thread count and timing.
///
/// The candidates come from the whole γ_{F'∪V,agg(A)}(R) in `cache`, masked
/// to t'[F] = t[F]; or, when `cache` is null, from the fused
/// FilterGroupAggregate(R, F = t[F], F' ∪ V, agg(A)), which pushes that
/// selection below γ. The pushed-down table holds exactly the F-matching
/// groups of the whole γ, in the same relative order and summed over the
/// same rows in the same order, so both sources score the same candidates
/// bit-for-bit. Row indices differ between them, but a tuple occurs at most
/// once per pair, so the row part of a CandidateRank never decides a tie.
Status EvaluatePair(const UserQuestion& q, const GlobalPattern& relevant,
                    const GlobalPattern& refinement, double norm,
                    const DistanceModel& distance_model, const ExplainConfig& config,
                    AggDataCache* cache, bool prune_locals, int64_t pair_rank,
                    const SharedScoreFloor* floor, CandidatePool* pool,
                    ExplainProfile* profile, StopToken* stop) {
  CAPE_FAILPOINT("explain.refine");
  const Pattern& p = relevant.pattern;
  const Pattern& pp = refinement.pattern;
  const AttrSet attrs = pp.GroupAttrs();  // F' ∪ V
  const std::vector<int> attr_list = attrs.ToIndices();

  // Condition (4), t'[F] = t[F], as conditions on `data`'s columns: empty
  // when the selection is pushed below γ, since every group then passes.
  std::vector<std::pair<int, Value>> f_conditions;
  TablePtr data;
  if (cache != nullptr) {
    CAPE_ASSIGN_OR_RETURN(data, cache->Get(attrs, pp.agg, pp.agg_attr, stop));
    f_conditions = QuestionConditions(q, p.partition_attrs);
    for (auto& condition : f_conditions) {  // R's column -> γ's; F ⊆ F' ∪ V
      const int col = condition.first;
      condition.first = static_cast<int>(
          std::lower_bound(attr_list.begin(), attr_list.end(), col) - attr_list.begin());
    }
  } else {
    const AggregateSpec spec{pp.agg, pp.agg_attr, "agg"};
    CAPE_ASSIGN_OR_RETURN(
        data, FilterGroupAggregate(*q.relation, QuestionConditions(q, p.partition_attrs),
                                   attr_list, {spec}, stop));
  }

  const int agg_col = static_cast<int>(attr_list.size());
  std::vector<int> f_prime_positions;  // P'.F' inside attr_list
  std::vector<int> v_positions;        // V inside attr_list
  for (size_t i = 0; i < attr_list.size(); ++i) {
    if (pp.partition_attrs.Contains(attr_list[i])) {
      f_prime_positions.push_back(static_cast<int>(i));
    }
    if (pp.predictor_attrs.Contains(attr_list[i])) v_positions.push_back(static_cast<int>(i));
  }
  const bool same_schema = attrs == q.group_attrs;
  const double isLow = q.dir == Direction::kLow ? 1.0 : -1.0;
  const double norm_denominator = std::fabs(norm) + config.epsilon;
  const double distance_lb = distance_model.LowerBound(q.group_attrs, attrs);

  std::vector<std::pair<int, Value>> t_conditions;
  if (same_schema) {
    t_conditions.reserve(attr_list.size());
    for (size_t i = 0; i < attr_list.size(); ++i) {
      t_conditions.emplace_back(static_cast<int>(i), q.group_values[i]);
    }
  }
  // Condition (4)'s t' != t check, compiled once per (P, P') pair: string
  // condition values translate to dictionary codes here, so the per-row
  // check below is integer compares instead of boxed Value comparisons.
  const RowEqualityMatcher t_matcher(*data, t_conditions);
  const bool check_same_tuple = same_schema && !t_matcher.never_matches();

  // Predictor columns feed the local model's X vector; non-numeric predictors
  // contribute a 0.0 placeholder (the constant model ignores X, and that is
  // the only model fitted over string predictors).
  std::vector<bool> v_is_numeric;
  v_is_numeric.reserve(v_positions.size());
  for (int pos : v_positions) {
    v_is_numeric.push_back(IsNumericType(data->column(pos).type()));
  }

  std::string fragment_key;  // reused across rows; same bytes as EncodeRowKey
  // Conditions (3) and (5) plus candidate emission for one row that already
  // passed condition (4)'s F-match.
  auto score_row = [&](int64_t row) {
    // Condition (4): t' != t when over the same schema.
    if (check_same_tuple && t_matcher.Matches(row)) return;
    if (data->column(agg_col).IsNull(row)) return;

    // Condition (3): P' holds locally on t'[F'].
    fragment_key.clear();
    AppendTableRowKey(*data, row, f_prime_positions, &fragment_key);
    const LocalPattern* local = refinement.FindLocalByKey(fragment_key);
    if (local == nullptr) return;

    if (prune_locals) {
      const double local_bound = LocalDeviationUpperBound(*local, q.dir) /
                                 ((distance_lb + config.epsilon) * norm_denominator);
      if (local_bound < floor->Get()) return;
    }

    // Condition (5): deviation in the opposite direction.
    std::vector<double> x;
    x.reserve(v_positions.size());
    for (size_t i = 0; i < v_positions.size(); ++i) {
      x.push_back(v_is_numeric[i] ? data->column(v_positions[i]).GetNumeric(row) : 0.0);
    }
    const double predicted = local->model->Predict(x);
    const double y = data->column(agg_col).GetNumeric(row);
    if (q.dir == Direction::kLow ? y <= predicted : y >= predicted) return;

    Explanation e;
    e.relevant_pattern = p;
    e.refinement_pattern = pp;
    e.tuple_attrs = attrs;
    e.tuple_values.reserve(attr_list.size());
    for (size_t i = 0; i < attr_list.size(); ++i) {
      e.tuple_values.push_back(data->GetValue(row, static_cast<int>(i)));
    }
    e.agg_value = y;
    e.predicted = predicted;
    e.deviation = y - predicted;
    e.distance =
        distance_model.Distance(q.group_attrs, q.group_values, attrs, e.tuple_values);
    e.norm = norm;
    e.score = (e.deviation * isLow) / ((e.distance + config.epsilon) * norm_denominator);
    profile->num_candidates += 1;
    pool->Add(std::move(e), CandidateRank{pair_rank, row});
  };

  // Condition (4)'s F-match, t'[F] = t[F], selects its rows block-at-a-time
  // over every row of `data`; the scalar scoring above runs only on the
  // selected ones, in ascending row order, so candidate ranks follow rows.
  std::vector<int64_t> matches;
  CAPE_RETURN_IF_ERROR(FilterEqualsSel(*data, f_conditions, stop, &matches));
  profile->num_tuples_checked += data->num_rows();
  for (size_t j = 0; j < matches.size(); ++j) {
    if ((j & (static_cast<size_t>(kStopCheckStride) - 1)) == 0) {
      CAPE_RETURN_IF_STOPPED_BLOCK(stop);
    }
    score_row(matches[j]);
  }
  return Status::OK();
}

/// Shared implementation of both generators (Section 3). The relevant-
/// pattern search and NORM queries run inline; the (P, P') scoring units
/// are then partitioned across the shared ThreadPool — each worker scores
/// into its own CandidatePool against a shared monotone score floor, and
/// the per-worker pools are merged at the end. `optimized` enables the
/// Section 3.5 ordering and pruning (EXPL-GEN-OPT); the naive generator
/// scores every pair in enumeration order.
///
/// Determinism (DESIGN.md §9): the pair list and every per-candidate tie-
/// break are deterministic, the floor is monotone and only ever below the
/// true top-k threshold, and pruning is strict (`bound < floor`), so any
/// candidate that could enter — or tie into — the final top-k is scored by
/// every run. The merged top-k is therefore byte-identical at any thread
/// count.
Result<ExplainResult> RunExplain(const UserQuestion& q, const PatternSet& patterns,
                                 const DistanceModel& distance, const ExplainConfig& config,
                                 bool optimized, SessionState* state) {
  ExplainResult result;
  Stopwatch total;
  StopToken stop = config.MakeStopToken();
  // Where each pair's candidates come from (EvaluatePair): a session's
  // memo of whole γ tables, or, for a one-shot call, no cache at all, each
  // pair pushing t'[F] = t[F] below γ.
  AggDataCache* cache = nullptr;
  if (state != nullptr) {
    if (state->agg_cache == nullptr) {
      state->agg_cache = std::make_unique<AggDataCache>(q.relation);
    }
    cache = state->agg_cache.get();
  }
  const bool prune_pairs = optimized && config.prune_pairs;
  const bool prune_locals = optimized && config.prune_locals;

  // Refinement adjacency is question-independent; a session computes it
  // once. The per-pattern lists keep enumeration order, so the pair list
  // below is identical to the inline scan of the one-shot path.
  const std::vector<GlobalPattern>& all = patterns.patterns();
  if (state != nullptr && !state->adjacency_built) {
    state->refinements.assign(all.size(), {});
    for (size_t i = 0; i < all.size(); ++i) {
      for (size_t j = 0; j < all.size(); ++j) {
        if (all[j].pattern.IsRefinementOf(all[i].pattern)) {
          state->refinements[i].push_back(static_cast<int64_t>(j));
        }
      }
    }
    state->adjacency_built = true;
  }

  // Stage 1 (inline): relevant patterns, NORM per relevant pattern, and the
  // (P, P') pair list with Section 3.5 score upper bounds.
  std::vector<PairTask> pairs;
  const auto relevant = FindRelevantPatterns(q, patterns);
  result.profile.num_relevant_patterns = static_cast<int64_t>(relevant.size());
  for (const GlobalPattern* p : relevant) {
    auto norm_result = ComputeNorm(q, p->pattern, &stop);
    if (!norm_result.ok()) {
      if (norm_result.status().IsStop()) {
        MarkPartial(&result, stop.reason(), "norm");
        break;
      }
      return norm_result.status();
    }
    const double norm = norm_result.ValueOrDie();
    const double norm_denominator = std::fabs(norm) + config.epsilon;
    auto add_pair = [&](const GlobalPattern& pp) {
      result.profile.num_refinement_pairs += 1;
      double bound = 0.0;
      if (optimized) {
        const double dev_up = DeviationUpperBound(pp, q.dir);
        const double d_lb = distance.LowerBound(q.group_attrs, pp.pattern.GroupAttrs());
        bound = dev_up <= 0.0 ? 0.0 : dev_up / ((d_lb + config.epsilon) * norm_denominator);
      }
      pairs.push_back(PairTask{p, &pp, norm, bound});
    };
    if (state != nullptr) {
      const size_t pattern_idx = static_cast<size_t>(p - all.data());
      for (int64_t j : state->refinements[pattern_idx]) {
        add_pair(all[static_cast<size_t>(j)]);
      }
    } else {
      for (const GlobalPattern& pp : all) {
        if (!pp.pattern.IsRefinementOf(p->pattern)) continue;
        add_pair(pp);
      }
    }
  }
  // Decreasing bound order raises the floor as early as possible. The sort
  // is stable so equal bounds keep their deterministic enumeration order —
  // a pair's position is its candidates' tie-break rank.
  if (optimized) {
    std::stable_sort(pairs.begin(), pairs.end(),
                     [](const PairTask& a, const PairTask& b) { return a.bound > b.bound; });
  }

  // Stage 2 (parallel): partition the pairs across workers. A run already
  // stopped in stage 1 skips scoring entirely (matching the sequential
  // semantics: a "norm" stop reports no scored candidates).
  if (!result.partial && !pairs.empty()) {
    ThreadPool& pool_exec = ThreadPool::Global();
    ThreadPool::ParallelForOptions opts;
    opts.max_workers = std::max(config.num_threads, 1);
    opts.grain = 1;  // one (P, P') scan per claim — work units are coarse
    opts.stop = stop;
    const int workers = pool_exec.PlannedWorkers(static_cast<int64_t>(pairs.size()), opts);

    SharedScoreFloor floor;
    std::vector<CandidatePool> pools;
    pools.reserve(static_cast<size_t>(workers));
    for (int w = 0; w < workers; ++w) pools.emplace_back(config.top_k, &floor);
    std::vector<ExplainProfile> profiles(static_cast<size_t>(workers));

    Status scored = pool_exec.ParallelFor(
        static_cast<int64_t>(pairs.size()), opts,
        [&](int worker, int64_t begin, int64_t end, StopToken* worker_stop) -> Status {
          ExplainProfile& profile = profiles[static_cast<size_t>(worker)];
          ScopedTimer cpu(&profile.cpu_ns);
          for (int64_t i = begin; i < end; ++i) {
            const PairTask& pair = pairs[static_cast<size_t>(i)];
            if (prune_pairs && pair.bound < floor.Get()) {
              profile.num_pairs_pruned += 1;
              continue;
            }
            CAPE_RETURN_IF_ERROR(EvaluatePair(
                q, *pair.relevant, *pair.refinement, pair.norm, distance, config, cache,
                prune_locals, i, &floor, &pools[static_cast<size_t>(worker)], &profile,
                worker_stop));
          }
          return Status::OK();
        });
    if (!scored.ok()) {
      if (!scored.IsStop()) return scored;
      MarkPartial(&result, StopReasonFromStatus(scored), "refine");
    }

    CandidatePool merged(config.top_k, nullptr);
    for (const CandidatePool& pool : pools) merged.Merge(pool);
    result.explanations = merged.TopK();
    for (const ExplainProfile& profile : profiles) {
      result.profile.cpu_ns += profile.cpu_ns;
      result.profile.num_pairs_pruned += profile.num_pairs_pruned;
      result.profile.num_tuples_checked += profile.num_tuples_checked;
      result.profile.num_candidates += profile.num_candidates;
    }
  }

  result.profile.total_ns = total.ElapsedNanos();
  return result;
}

/// EXPL-GEN-NAIVE (Algorithm 1).
class NaiveExplainer final : public ExplanationGenerator {
 public:
  std::string name() const override { return "EXPL-GEN-NAIVE"; }

  Result<ExplainResult> Explain(const UserQuestion& q, const PatternSet& patterns,
                                const DistanceModel& distance,
                                const ExplainConfig& config) override {
    return RunExplain(q, patterns, distance, config, /*optimized=*/false,
                      /*state=*/nullptr);
  }
};

/// EXPL-GEN-OPT (Section 3.5).
class OptimizedExplainer final : public ExplanationGenerator {
 public:
  std::string name() const override { return "EXPL-GEN-OPT"; }

  Result<ExplainResult> Explain(const UserQuestion& q, const PatternSet& patterns,
                                const DistanceModel& distance,
                                const ExplainConfig& config) override {
    return RunExplain(q, patterns, distance, config, /*optimized=*/true,
                      /*state=*/nullptr);
  }
};

}  // namespace

namespace explain_internal {

Result<ExplainResult> RunExplainWithState(const UserQuestion& q, const PatternSet& patterns,
                                          const DistanceModel& distance,
                                          const ExplainConfig& config, bool optimized,
                                          SessionState* state) {
  return RunExplain(q, patterns, distance, config, optimized, state);
}

}  // namespace explain_internal

std::unique_ptr<ExplanationGenerator> MakeNaiveExplainer() {
  return std::make_unique<NaiveExplainer>();
}

std::unique_ptr<ExplanationGenerator> MakeOptimizedExplainer() {
  return std::make_unique<OptimizedExplainer>();
}

}  // namespace cape
