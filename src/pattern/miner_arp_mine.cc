#include <algorithm>
#include <set>
#include <utility>

#include "common/failpoint.h"
#include "common/macros.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "fd/fd_detector.h"
#include "pattern/mining.h"
#include "pattern/mining_internal.h"

namespace cape {

namespace {

using mining_internal::AggColumnRef;
using mining_internal::CandidateMap;

/// ARP-MINE (Algorithm 2 + Algorithm 5): shares one aggregation query per
/// attribute set G, reuses each sort order for every (F, V) split whose F is
/// a prefix of the order, detects FDs from group cardinalities as a side
/// effect, and (when enabled) skips candidates that are redundant under the
/// discovered FDs (Appendix D).
///
/// Parallelism (DESIGN.md §9): attribute sets are processed level by level
/// (all G of one size), each level in three phases behind a barrier —
/// (A) group-by queries for every G of the level in parallel, (B) FD
/// recording/detection sequentially in set order, (C) sort-order exploration
/// for every G in parallel against the now-frozen FdSet. FD detection only
/// consumes cardinalities of this and previous levels, so phasing makes the
/// FDs visible to every skip decision a pure function of the level — the
/// mined pattern set is identical at any thread count (num_threads == 1
/// takes the same path).
class ArpMiner final : public PatternMiner {
 public:
  std::string name() const override { return "ARP-MINE"; }

  Result<MiningResult> Mine(const Table& table, const MiningConfig& config) override {
    MiningResult result;
    result.fds = config.initial_fds;
    MiningProfile& profile = result.profile;
    Stopwatch total;
    CandidateMap candidates;
    FdDetector detector(&result.fds);

    ThreadPool& pool = ThreadPool::Global();
    ThreadPool::ParallelForOptions opts;
    opts.max_workers = std::max(config.num_threads, 1);
    opts.grain = 1;  // one attribute set per claim
    opts.stop = config.MakeStopToken();

    if (config.use_fd_optimizations) {
      // Seed singleton cardinalities (the system-catalog statistics a DBMS
      // would provide) so size-2 iterations can already test A -> B: the
      // non-NULL groups of γ_a(R), which is Column::CountDistinct() on a
      // resident column. The scan kernels count them for either residency
      // (an out-of-core table's numeric columns hold no rows to count).
      ScopedTimer timer(&profile.query_ns);
      const AttrSet allowed = mining_internal::AllowedAttrs(*table.schema(), config);
      for (int a : allowed.ToIndices()) {
        profile.num_queries += 1;
        auto groups = GroupByAggregate(table, std::vector<int>{a}, {}, &opts.stop);
        if (!groups.ok()) {
          if (!groups.status().IsStop()) return groups.status();
          result.truncated = true;
          result.stop_reason = StopReasonFromStatus(groups.status());
          break;
        }
        const Table& distinct = **groups;
        detector.RecordGroupSize(AttrSet::Single(a),
                                 distinct.num_rows() - distinct.column(0).null_count());
      }
    }

    // EnumerateGroupSets yields sets in increasing size, the order the FD
    // detection correctness argument relies on (Appendix D). Contiguous runs
    // of equal size form the levels.
    CAPE_ASSIGN_OR_RETURN(const std::vector<AttrSet> group_sets,
                          mining_internal::EnumerateGroupSets(*table.schema(), config));

    size_t level_begin = 0;
    while (level_begin < group_sets.size() && !result.truncated) {
      size_t level_end = level_begin;
      const int level_size = group_sets[level_begin].size();
      while (level_end < group_sets.size() &&
             group_sets[level_end].size() == level_size) {
        ++level_end;
      }
      const int64_t n = static_cast<int64_t>(level_end - level_begin);
      const int workers = pool.PlannedWorkers(n, opts);

      // Phase A: one shared aggregation query per G, in parallel. A stop
      // abandons the whole level: no cardinality of a partially-queried
      // level is recorded and no candidate of it is emitted, so the result
      // stays an exact subset of the untimed run.
      std::vector<GroupData> level(static_cast<size_t>(n));
      std::vector<MiningProfile> profs(static_cast<size_t>(workers));
      Status st = pool.ParallelFor(
          n, opts, [&](int worker, int64_t begin, int64_t end, StopToken* stop) -> Status {
            MiningProfile& prof = profs[static_cast<size_t>(worker)];
            ScopedTimer cpu(&prof.cpu_ns);
            for (int64_t i = begin; i < end; ++i) {
              CAPE_RETURN_IF_ERROR(RunGroupQuery(
                  table, group_sets[level_begin + static_cast<size_t>(i)], config, &prof,
                  &level[static_cast<size_t>(i)], stop));
            }
            return Status::OK();
          });
      MergeProfiles(profs, &profile);
      if (!st.ok()) {
        if (!st.IsStop()) return st;
        result.truncated = true;
        result.stop_reason = StopReasonFromStatus(st);
        break;
      }

      // Phase B: record cardinalities and detect FDs sequentially in set
      // order — identical to the sequential algorithm's visibility within a
      // level, and deterministic by construction.
      if (config.use_fd_optimizations) {
        for (size_t i = 0; i < level.size(); ++i) {
          if (level[i].data == nullptr) continue;
          const AttrSet g = group_sets[level_begin + i];
          detector.RecordGroupSize(g, level[i].data->num_rows());
          detector.DetectFdsFor(g);
        }
      }

      // Phase C: explore sort orders per G in parallel against the frozen
      // FdSet. Candidate keys embed F ∪ V = G, so the per-worker maps are
      // disjoint and each holds only fully-evaluated splits — on a stop the
      // merge below still yields a subset of the untimed result.
      const FdSet& fds = result.fds;
      std::vector<CandidateMap> worker_candidates(static_cast<size_t>(workers));
      std::fill(profs.begin(), profs.end(), MiningProfile{});
      st = pool.ParallelFor(
          n, opts, [&](int worker, int64_t begin, int64_t end, StopToken* stop) -> Status {
            MiningProfile& prof = profs[static_cast<size_t>(worker)];
            ScopedTimer cpu(&prof.cpu_ns);
            for (int64_t i = begin; i < end; ++i) {
              const GroupData& gd = level[static_cast<size_t>(i)];
              if (gd.data == nullptr) continue;
              const AttrSet g = group_sets[level_begin + static_cast<size_t>(i)];
              CAPE_RETURN_IF_ERROR(ExploreSortOrders(
                  table, g, g.ToIndices(), *gd.data, gd.agg_cols, config, fds, &prof,
                  &worker_candidates[static_cast<size_t>(worker)], stop));
            }
            return Status::OK();
          });
      MergeProfiles(profs, &profile);
      // Post-phase merge: a stop here is honored at the next level boundary;
      // erroring out instead would drop the truncated-result contract the
      // stop-checked ParallelFor just upheld.
      // analyzer:allow-next-line(cancellation) truncated-result contract
      for (CandidateMap& wc : worker_candidates) {
        for (auto& [pattern, stats] : wc) candidates.emplace(pattern, std::move(stats));
      }
      if (!st.ok()) {
        if (!st.IsStop()) return st;
        result.truncated = true;
        result.stop_reason = StopReasonFromStatus(st);
        break;
      }

      level_begin = level_end;
    }

    result.patterns = mining_internal::FinalizePatterns(std::move(candidates), config);
    profile.total_ns = total.ElapsedNanos();
    return result;
  }

 private:
  /// The shared aggregated data of one attribute set G; `data` stays null
  /// when G admits no aggregate candidates.
  struct GroupData {
    TablePtr data;
    std::vector<AggColumnRef> agg_cols;
  };

  static void MergeProfiles(const std::vector<MiningProfile>& parts, MiningProfile* out) {
    for (const MiningProfile& p : parts) {
      out->regression_ns += p.regression_ns;
      out->query_ns += p.query_ns;
      out->cpu_ns += p.cpu_ns;
      out->num_candidates += p.num_candidates;
      out->num_candidates_skipped_fd += p.num_candidates_skipped_fd;
      out->num_local_fits += p.num_local_fits;
      out->num_queries += p.num_queries;
      out->num_sorts += p.num_sorts;
      out->num_rows_scanned += p.num_rows_scanned;
    }
  }

  /// Phase A for one G: enumerate agg(A) candidates and run the shared
  /// group-by query.
  static Status RunGroupQuery(const Table& table, AttrSet g, const MiningConfig& config,
                              MiningProfile* profile, GroupData* out, StopToken* stop) {
    const std::vector<int> g_attrs = g.ToIndices();
    const int gs = static_cast<int>(g_attrs.size());
    const auto agg_candidates = mining_internal::EnumerateAggCandidates(table, g, config);
    if (agg_candidates.empty()) return Status::OK();
    std::vector<AggregateSpec> specs;
    for (size_t i = 0; i < agg_candidates.size(); ++i) {
      const auto& [agg, agg_attr] = agg_candidates[i];
      AggregateSpec spec;
      spec.func = agg;
      spec.input_col = agg_attr;
      spec.output_name = "agg" + std::to_string(i);
      specs.push_back(std::move(spec));
      out->agg_cols.push_back(AggColumnRef{agg, agg_attr, gs + static_cast<int>(i)});
    }
    ScopedTimer timer(&profile->query_ns);
    profile->num_queries += 1;
    CAPE_FAILPOINT("mining.group");
    CAPE_ASSIGN_OR_RETURN(out->data, GroupByAggregate(table, g_attrs, specs, stop));
    return Status::OK();
  }

  /// Algorithm 5: iterate permutations S of G; for each S that can test at
  /// least one unexplored (F, V), sort once and evaluate every unexplored
  /// split whose F is a prefix of S. The explored set C is local to G —
  /// its keys (F, V) satisfy F ∪ V = G, so no other attribute set can ever
  /// collide with them.
  static Status ExploreSortOrders(const Table& table, AttrSet g,
                                  const std::vector<int>& g_attrs, const Table& data,
                                  const std::vector<AggColumnRef>& agg_cols,
                                  const MiningConfig& config, const FdSet& fds,
                                  MiningProfile* profile, CandidateMap* candidates,
                                  StopToken* stop) {
    const int gs = static_cast<int>(g_attrs.size());
    std::set<std::pair<uint64_t, uint64_t>> explored;
    std::vector<int> perm = g_attrs;  // ascending = first permutation
    std::sort(perm.begin(), perm.end());
    do {
      // Which prefix lengths of this order would test something new?
      // FD-redundant splits (Appendix D) are resolved here, *before* the
      // sort decision, so a sort order whose only new splits are FD-skipped
      // never triggers a sort query.
      std::vector<int> new_prefix_lengths;
      {
        AttrSet f_attrs;
        for (int len = 1; len < gs; ++len) {
          f_attrs.Add(perm[static_cast<size_t>(len - 1)]);
          AttrSet v_attrs = g.Difference(f_attrs);
          if (!mining_internal::SplitAllowed(table, v_attrs, config)) continue;
          if (explored.count({f_attrs.bits(), v_attrs.bits()}) > 0) continue;
          if (config.use_fd_optimizations &&
              (!fds.IsMinimal(f_attrs) || fds.ImpliesAll(f_attrs, v_attrs))) {
            explored.insert({f_attrs.bits(), v_attrs.bits()});
            const bool v_numeric = mining_internal::AllNumeric(table, v_attrs);
            for (size_t a = 0; a < agg_cols.size(); ++a) {
              (void)a;
              for (ModelType model : config.model_types) {
                if (model == ModelType::kLinear && !v_numeric) continue;
                profile->num_candidates_skipped_fd += 1;
              }
            }
            continue;
          }
          new_prefix_lengths.push_back(len);
        }
      }
      if (new_prefix_lengths.empty()) continue;

      TablePtr sorted;
      {
        ScopedTimer timer(&profile->query_ns);
        profile->num_sorts += 1;
        CAPE_FAILPOINT("mining.sort");
        std::vector<SortKey> keys;
        for (int attr : perm) {
          // Column position of attr inside `data` = rank within g_attrs.
          const int pos = static_cast<int>(
              std::lower_bound(g_attrs.begin(), g_attrs.end(), attr) - g_attrs.begin());
          keys.push_back(SortKey{pos, true});
        }
        CAPE_ASSIGN_OR_RETURN(sorted, SortTable(data, keys, stop));
      }

      for (int len : new_prefix_lengths) {
        AttrSet f_attrs;
        for (int i = 0; i < len; ++i) f_attrs.Add(perm[static_cast<size_t>(i)]);
        AttrSet v_attrs = g.Difference(f_attrs);
        explored.insert({f_attrs.bits(), v_attrs.bits()});

        std::vector<int> f_cols;
        std::vector<int> v_cols;
        for (int i = 0; i < gs; ++i) {
          if (f_attrs.Contains(g_attrs[static_cast<size_t>(i)])) {
            f_cols.push_back(i);
          } else {
            v_cols.push_back(i);
          }
        }
        const bool v_numeric = mining_internal::AllNumeric(table, v_attrs);
        CAPE_RETURN_IF_ERROR(mining_internal::EvaluateSplit(*sorted, f_cols, v_cols,
                                                            v_numeric, f_attrs, v_attrs,
                                                            agg_cols, config, profile,
                                                            candidates, stop));
      }
    } while (std::next_permutation(perm.begin(), perm.end()));
    return Status::OK();
  }
};

}  // namespace

std::unique_ptr<PatternMiner> MakeArpMiner() { return std::make_unique<ArpMiner>(); }

Result<std::unique_ptr<PatternMiner>> MakeMinerByName(const std::string& name) {
  if (name == "NAIVE") return MakeNaiveMiner();
  if (name == "CUBE") return MakeCubeMiner();
  if (name == "SHARE-GRP") return MakeShareGrpMiner();
  if (name == "ARP-MINE") return MakeArpMiner();
  return Status::NotFound("unknown miner '" + name +
                          "'; expected NAIVE, CUBE, SHARE-GRP, or ARP-MINE");
}

}  // namespace cape
