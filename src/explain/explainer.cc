#include "explain/explainer.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/macros.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "explain/explainer_internal.h"
#include "relational/kernels.h"

namespace cape {

namespace {

using explain_internal::AggDataCache;

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

/// A scored candidate explanation before it is known to be returned: what
/// ranking it needs, plus what building its Explanation reads. `rank.pair`
/// indexes the pair list (P, P' and NORM) and `rank.row` is the tuple's row
/// in `data`, the pair's candidate table, so the tuple is boxed only if it
/// is returned.
struct Candidate {
  double score = 0.0;
  CandidateRank rank;
  double agg_value = 0.0;
  double predicted = 0.0;
  double distance = 0.0;
  TablePtr data;
  /// Stable identity of the counterbalance tuple t': its attributes' bits,
  /// '|', and the EncodeRowKey bytes of its values. The paper deduplicates
  /// per (P', t'); we deduplicate per t', which additionally collapses the
  /// same tuple reached through different predictor splits (e.g.
  /// [author,venue]:year and [author,year]:venue both yield (AX, ICDE,
  /// 2007)) — the displayed tables in the paper contain each tuple once.
  /// Its byte order breaks score ties in the returned top-k.
  std::string key;
};

/// The k best distinct counterbalance tuples seen so far, each with its
/// best-scoring candidate, plus every tuple that ties the k-th best score.
/// The k-th best score is the pool's threshold: a candidate below it is
/// never built, and one that reaches it is kept. Each scoring worker owns
/// one pool (no locks on the Add path); when a `floor` is attached, every
/// rise of the threshold is published to the shared monotone floor so the
/// other workers prune against it too.
///
/// A tuple leaves the pool only when at least k other tuples in it score
/// strictly higher, so it can neither enter nor tie into the top-k of any
/// superset of the candidates, and a later candidate for it either scores
/// below the threshold too or comes back as a fresh entry with a higher
/// score. The threshold is therefore the k-th best over every distinct tuple
/// the pool was offered, as if it kept them all (DESIGN.md §9). Dropping is
/// lazy: entries below the threshold are swept once the pool holds twice
/// its size at the last sweep (and at least 2k), so many ties stay cheap.
class CandidatePool {
 public:
  /// k >= 1: RunExplain rejects smaller top_k.
  CandidatePool(int k, SharedScoreFloor* floor)
      : k_(static_cast<size_t>(k)), floor_(floor), sweep_at_(2 * k_) {}

  /// The k-th best distinct score so far, or -inf before k tuples are held:
  /// a candidate scoring below it cannot be returned.
  double threshold() const { return threshold_; }

  /// Offers a candidate; one scoring below threshold() (or NaN) is ignored.
  void Add(Candidate c) {
    if (!(c.score >= threshold_)) return;
    if (2 * (entries_.size() + 1) > slots_.size()) {
      Reindex(std::max<size_t>(16, 2 * slots_.size()));
    }
    uint32_t& slot = slots_[Probe(c.key)];
    if (slot != 0) {
      Candidate& held = entries_[slot - 1];
      if (c.score < held.score) return;
      if (c.score == held.score) {
        // Same tuple, same score, different (P, P') or row: deterministic
        // winner regardless of insertion order.
        if (RankLess(c.rank, held.rank)) held = std::move(c);
        return;
      }
      const double old_score = held.score;
      held = std::move(c);
      Raised(old_score, held.score);
      return;
    }
    entries_.push_back(std::move(c));
    slot = static_cast<uint32_t>(entries_.size());
    Raised(-std::numeric_limits<double>::infinity(), entries_.back().score);
    if (entries_.size() >= sweep_at_) Sweep();
  }

  /// Folds another pool's candidates into this one (the final merge), by
  /// the same rule as Add; their keys move, they are not rebuilt.
  void Merge(CandidatePool&& other) {
    for (Candidate& c : other.entries_) Add(std::move(c));
    other.entries_.clear();
  }

  /// The top k by (score descending, key ascending).
  std::vector<Candidate> TakeTopK() && {
    std::sort(entries_.begin(), entries_.end(),
              [](const Candidate& a, const Candidate& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.key < b.key;  // deterministic tie-break
              });
    if (entries_.size() > k_) entries_.resize(k_);
    return std::move(entries_);
  }

 private:
  /// Counts a tuple whose best score went from `before` to `after` and, once
  /// k tuples score strictly above the threshold, raises it to the lowest
  /// of them: that is the new k-th best, and fewer than k stay above it.
  void Raised(double before, double after) {
    if (before > threshold_ || !(after > threshold_)) return;
    if (++above_ < k_) return;
    double next = std::numeric_limits<double>::infinity();
    for (const Candidate& c : entries_) {
      if (c.score > threshold_ && c.score < next) next = c.score;
    }
    threshold_ = next;
    above_ = 0;
    for (const Candidate& c : entries_) above_ += c.score > threshold_ ? 1 : 0;
    if (floor_ != nullptr) floor_->RaiseTo(threshold_);
  }

  /// Drops the entries below the threshold.
  void Sweep() {
    std::erase_if(entries_, [this](const Candidate& c) { return c.score < threshold_; });
    sweep_at_ = std::max(2 * k_, 2 * entries_.size());
    Reindex(slots_.size());
  }

  /// slots_ as an open-addressing index of entries_ with `size` slots (a
  /// power of two): each holds an entry's position plus one, 0 when empty.
  void Reindex(size_t size) {
    slots_.assign(size, 0);
    for (size_t i = 0; i < entries_.size(); ++i) {
      slots_[Probe(entries_[i].key)] = static_cast<uint32_t>(i + 1);
    }
  }

  /// The slot holding `key`, or the empty slot where it would go.
  size_t Probe(const std::string& key) const {
    const size_t mask = slots_.size() - 1;
    for (size_t i = std::hash<std::string>{}(key) & mask;; i = (i + 1) & mask) {
      const uint32_t slot = slots_[i];
      if (slot == 0 || entries_[slot - 1].key == key) return i;
    }
  }

  size_t k_;
  SharedScoreFloor* floor_;
  size_t sweep_at_;
  double threshold_ = -std::numeric_limits<double>::infinity();
  size_t above_ = 0;  // entries scoring strictly above threshold_; < k_
  std::vector<Candidate> entries_;
  std::vector<uint32_t> slots_;
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

/// NORM of Definition 10 by a fused σ→γ scan of the whole relation:
/// π_{agg(A)}(σ_{F=t[F] ∧ V=t[V]}(γ_{F∪V,agg(A)}(R))) as one block scan,
/// with no filtered table.
Result<double> ScanNorm(const UserQuestion& q, const Pattern& p, StopToken* stop) {
  const AggregateSpec spec{p.agg, p.agg_attr, "agg"};
  CAPE_ASSIGN_OR_RETURN(
      TablePtr aggregated,
      FilterGroupAggregate(*q.relation, QuestionConditions(q, p.GroupAttrs()),
                           std::vector<int>{}, {spec}, stop));
  const Value v = aggregated->GetValue(0, 0);
  return v.is_null() ? 0.0 : v.AsDouble();
}

/// NORM of Definition 10 for relevant pattern `p`: the question's own
/// aggregate at p's granularity. A one-shot call (no `memo`) scans R. A
/// session reads the t[F ∪ V] group of the memo's γ_{F∪V,agg(A)}(R),
/// building that table on first use. That group sums exactly the rows σ
/// selects, in ascending row order, through the same aggregate state, so
/// both give the same bits, and no group means an empty selection, whose
/// NORM is 0. γ keys and σ compare cells under one rule (value.h), so σ on
/// the γ table selects at most one group.
Result<double> ComputeNorm(const UserQuestion& q, const Pattern& p, AggDataCache* memo,
                           StopToken* stop) {
  CAPE_FAILPOINT("explain.norm");
  if (memo == nullptr) return ScanNorm(q, p, stop);
  const AttrSet attrs = p.GroupAttrs();
  CAPE_ASSIGN_OR_RETURN(TablePtr data, memo->Get(attrs, p.agg, p.agg_attr, stop));
  std::vector<std::pair<int, Value>> conditions = QuestionConditions(q, attrs);
  // R's columns -> γ's: the γ table's key columns are F ∪ V in R's order.
  for (size_t i = 0; i < conditions.size(); ++i) conditions[i].first = static_cast<int>(i);
  std::vector<int64_t> groups;
  CAPE_RETURN_IF_ERROR(FilterEqualsSel(*data, conditions, stop, &groups));
  if (groups.empty()) return 0.0;
  const Value v = data->GetValue(groups[0], static_cast<int>(conditions.size()));
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

/// Scans all candidate tuples t' for one (P, P') pair, offering every valid
/// explanation (Definition 7) to the worker's pool; one scoring below the
/// pool's threshold is counted and dropped unbuilt. When `prune_locals` is
/// set, fragments whose local deviation bound cannot beat the shared score
/// floor are skipped (the "more accurate bound" of Section 3.5). The floor
/// comparison is strict: a fragment that could still *tie* the k-th best
/// score is always scanned, which is what makes the pruned set — and hence
/// the final top-k — independent of thread count and timing.
///
/// The candidates come from the whole γ_{F'∪V,agg(A)}(R) in `memo`, masked
/// to t'[F] = t[F]; or, when `memo` is null, from the fused
/// FilterGroupAggregate(R, F = t[F], F' ∪ V, agg(A)), which pushes that
/// selection below γ. The pushed-down table holds exactly the F-matching
/// groups of the whole γ, in the same relative order and summed over the
/// same rows in the same order, so both sources score the same candidates
/// bit-for-bit. Row indices differ between them, but a tuple occurs at most
/// once per pair, so the row part of a CandidateRank never decides a tie.
Status EvaluatePair(const UserQuestion& q, const GlobalPattern& relevant,
                    const GlobalPattern& refinement, double norm,
                    const DistanceModel& distance_model, const ExplainConfig& config,
                    AggDataCache* memo, bool prune_locals, int64_t pair_rank,
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
  if (memo != nullptr) {
    CAPE_ASSIGN_OR_RETURN(data, memo->Get(attrs, pp.agg, pp.agg_attr, stop));
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

  // Predictor columns feed the local model's X vector; non-numeric predictors
  // contribute a 0.0 placeholder (the constant model ignores X, and that is
  // the only model fitted over string predictors).
  std::vector<bool> v_is_numeric;
  v_is_numeric.reserve(v_positions.size());
  for (int pos : v_positions) {
    v_is_numeric.push_back(IsNumericType(data->column(pos).type()));
  }

  // Buffers reused across rows: the fragment key (the same bytes as
  // EncodeRowKey), the local model's X and the boxed tuple t' that the
  // t' != t test and the distance read.
  std::string fragment_key;
  std::vector<double> x(v_positions.size());
  Row tuple(attr_list.size());
  std::vector<int> tuple_positions(attr_list.size());
  std::iota(tuple_positions.begin(), tuple_positions.end(), 0);
  const std::string key_prefix = std::to_string(attrs.bits()) + "|";
  // Conditions (3), (5) and the rest of (4) plus candidate emission for one
  // row that already passed condition (4)'s F-match.
  auto score_row = [&](int64_t row) {
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

    // Condition (5): deviation in the opposite direction, a strict test that
    // a NaN aggregate or prediction fails.
    for (size_t i = 0; i < v_positions.size(); ++i) {
      x[i] = v_is_numeric[i] ? data->column(v_positions[i]).GetNumeric(row) : 0.0;
    }
    const double predicted = local->model->Predict(x);
    const double y = data->column(agg_col).GetNumeric(row);
    if (!(q.dir == Direction::kLow ? y > predicted : y < predicted)) return;

    for (size_t i = 0; i < tuple.size(); ++i) {
      tuple[i] = data->GetValue(row, static_cast<int>(i));
    }
    // Condition (4): t' != t when over the same schema.
    if (same_schema && tuple == q.group_values) return;
    const double distance =
        distance_model.Distance(q.group_attrs, q.group_values, attrs, tuple);
    const double score = ((y - predicted) * isLow) /
                         ((distance + config.epsilon) * norm_denominator);
    profile->num_candidates += 1;
    if (!(score >= pool->threshold())) return;  // cannot be returned; build nothing

    Candidate c;
    c.score = score;
    c.rank = CandidateRank{pair_rank, row};
    c.agg_value = y;
    c.predicted = predicted;
    c.distance = distance;
    c.data = data;
    c.key = key_prefix;
    AppendTableRowKey(*data, row, tuple_positions, &c.key);
    pool->Add(std::move(c));
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
/// into its own bounded CandidatePool against a shared monotone score floor,
/// the per-worker pools are merged at the end, and only the returned
/// candidates become Explanations. `optimized` enables the Section 3.5
/// ordering and pruning (EXPL-GEN-OPT); the naive generator scores every
/// pair in enumeration order.
///
/// Determinism (DESIGN.md §9): the pair list and every per-candidate tie-
/// break are deterministic, the floor is monotone and only ever below the
/// true top-k threshold, pruning is strict (`bound < floor`), and a pool
/// drops a tuple only when k others it holds score strictly higher, so any
/// candidate that could enter — or tie into — the final top-k is scored and
/// kept by every run. The merged top-k is therefore byte-identical at any
/// thread count.
///
/// `memo` is where each pair's candidates and each NORM come from
/// (EvaluatePair, ComputeNorm): a session's shared memo of whole γ tables,
/// or, for a one-shot call (nullptr), no memo at all, each query pushing its
/// selection below γ.
Result<ExplainResult> RunExplain(const UserQuestion& q, const PatternSet& patterns,
                                 const DistanceModel& distance, const ExplainConfig& config,
                                 bool optimized, AggDataCache* memo) {
  if (config.top_k < 1) return Status::InvalidArgument("top_k must be at least 1");
  ExplainResult result;
  Stopwatch total;
  StopToken stop = config.MakeStopToken();
  const bool prune_pairs = optimized && config.prune_pairs;
  const bool prune_locals = optimized && config.prune_locals;

  // Stage 1 (inline): relevant patterns, NORM per relevant pattern, and the
  // (P, P') pair list with Section 3.5 score upper bounds.
  std::vector<PairTask> pairs;
  const auto relevant = FindRelevantPatterns(q, patterns);
  result.profile.num_relevant_patterns = static_cast<int64_t>(relevant.size());
  for (const GlobalPattern* p : relevant) {
    auto norm_result = ComputeNorm(q, p->pattern, memo, &stop);
    if (!norm_result.ok()) {
      if (norm_result.status().IsStop()) {
        MarkPartial(&result, stop.reason(), "norm");
        break;
      }
      return norm_result.status();
    }
    const double norm = norm_result.ValueOrDie();
    if (std::isnan(norm)) continue;  // no score against a NaN NORM is a number
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
    for (const GlobalPattern& pp : patterns.patterns()) {
      if (!pp.pattern.IsRefinementOf(p->pattern)) continue;
      add_pair(pp);
    }
  }
  // Decreasing bound order raises the floor as early as possible. The sort
  // is stable so equal bounds keep their deterministic enumeration order —
  // a pair's position is its candidates' tie-break rank.
  if (optimized) {
    std::stable_sort(pairs.begin(), pairs.end(),
                     [](const PairTask& a, const PairTask& b) { return a.bound > b.bound; });
  }
  result.profile.stage1_ns = total.ElapsedNanos();

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
                q, *pair.relevant, *pair.refinement, pair.norm, distance, config, memo,
                prune_locals, i, &floor, &pools[static_cast<size_t>(worker)], &profile,
                worker_stop));
          }
          return Status::OK();
        });
    if (!scored.ok()) {
      if (!scored.IsStop()) return scored;
      MarkPartial(&result, StopReasonFromStatus(scored), "refine");
    }

    // Stage 3 (inline): merge the pools, cut to k and build the Explanations
    // of the returned candidates only.
    ScopedTimer merge(&result.profile.merge_ns);
    CandidatePool merged(config.top_k, nullptr);
    for (CandidatePool& pool : pools) merged.Merge(std::move(pool));
    for (const Candidate& c : std::move(merged).TakeTopK()) {
      const PairTask& pair = pairs[static_cast<size_t>(c.rank.pair)];
      Explanation& e = result.explanations.emplace_back();
      e.relevant_pattern = pair.relevant->pattern;
      e.refinement_pattern = pair.refinement->pattern;
      e.tuple_attrs = e.refinement_pattern.GroupAttrs();
      e.tuple_values.reserve(static_cast<size_t>(e.tuple_attrs.size()));
      for (int i = 0; i < e.tuple_attrs.size(); ++i) {
        e.tuple_values.push_back(c.data->GetValue(c.rank.row, i));
      }
      e.agg_value = c.agg_value;
      e.predicted = c.predicted;
      e.deviation = c.agg_value - c.predicted;
      e.distance = c.distance;
      e.norm = pair.norm;
      e.score = c.score;
    }
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
                      /*memo=*/nullptr);
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
                      /*memo=*/nullptr);
  }
};

}  // namespace

namespace explain_internal {

Result<ExplainResult> RunExplainWithMemo(const UserQuestion& q, const PatternSet& patterns,
                                         const DistanceModel& distance,
                                         const ExplainConfig& config, bool optimized,
                                         AggDataCache* memo) {
  return RunExplain(q, patterns, distance, config, optimized, memo);
}

}  // namespace explain_internal

std::unique_ptr<ExplanationGenerator> MakeNaiveExplainer() {
  return std::make_unique<NaiveExplainer>();
}

std::unique_ptr<ExplanationGenerator> MakeOptimizedExplainer() {
  return std::make_unique<OptimizedExplainer>();
}

}  // namespace cape
