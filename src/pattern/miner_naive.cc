#include "common/failpoint.h"
#include "common/macros.h"
#include "common/stopwatch.h"
#include "pattern/mining.h"
#include "pattern/mining_internal.h"
#include "relational/kernels.h"

namespace cape {

namespace {

using mining_internal::CandidateMap;

/// Brute-force pattern discovery (Appendix C, Algorithms 3 and 4): for every
/// candidate (F, V, agg, A, M), enumerate frag(R, P) and run one retrieval
/// query Q_{P,f} = gamma_{V,agg(A)}(sigma_{F=f}(R)) per fragment.
class NaiveMiner final : public PatternMiner {
 public:
  std::string name() const override { return "NAIVE"; }

  Result<MiningResult> Mine(const Table& table, const MiningConfig& config) override {
    MiningResult result;
    result.fds = config.initial_fds;
    MiningProfile& profile = result.profile;
    Stopwatch total;
    StopToken stop = config.MakeStopToken();
    CandidateMap candidates;

    CAPE_ASSIGN_OR_RETURN(const std::vector<AttrSet> group_sets,
                          mining_internal::EnumerateGroupSets(*table.schema(), config));
    for (AttrSet g : group_sets) {
      if (result.truncated) break;
      const auto agg_candidates = mining_internal::EnumerateAggCandidates(table, g, config);
      const std::vector<int> g_attrs = g.ToIndices();
      const int gs = static_cast<int>(g_attrs.size());
      // All (F, V) splits with F, V non-empty.
      for (uint32_t mask = 1; mask + 1 < (1u << gs); ++mask) {
        if (result.truncated) break;
        AttrSet f_attrs;
        AttrSet v_attrs;
        for (int i = 0; i < gs; ++i) {
          if (mask & (1u << i)) {
            f_attrs.Add(g_attrs[static_cast<size_t>(i)]);
          } else {
            v_attrs.Add(g_attrs[static_cast<size_t>(i)]);
          }
        }
        if (!mining_internal::SplitAllowed(table, v_attrs, config)) continue;
        const bool v_numeric = mining_internal::AllNumeric(table, v_attrs);
        for (const auto& [agg, agg_attr] : agg_candidates) {
          for (ModelType model : config.model_types) {
            if (model == ModelType::kLinear && !v_numeric) continue;
            Pattern pattern{f_attrs, v_attrs, agg, agg_attr, model};
            profile.num_candidates += 1;
            Status st =
                EvaluateCandidate(table, pattern, config, &profile, &candidates, &stop);
            if (st.IsStop()) {
              // The partially-evaluated candidate was discarded; keep the
              // fully-evaluated ones and report truncation.
              result.truncated = true;
              result.stop_reason = stop.reason();
              break;
            }
            CAPE_RETURN_IF_ERROR(st);
          }
          if (result.truncated) break;
        }
      }
    }

    result.patterns = mining_internal::FinalizePatterns(std::move(candidates), config);
    profile.total_ns = total.ElapsedNanos();
    return result;
  }

 private:
  /// Algorithm 4 for a single candidate pattern. The candidate's stats are
  /// staged locally and merged only when every fragment was evaluated, so a
  /// stop mid-candidate leaves `candidates` untouched.
  static Status EvaluateCandidate(const Table& table, const Pattern& pattern,
                                  const MiningConfig& config, MiningProfile* profile,
                                  CandidateMap* candidates, StopToken* stop) {
    const std::vector<int> f_attrs = pattern.partition_attrs.ToIndices();
    const std::vector<int> v_attrs = pattern.predictor_attrs.ToIndices();

    TablePtr fragments;
    {
      ScopedTimer timer(&profile->query_ns);
      profile->num_queries += 1;
      CAPE_FAILPOINT("mining.group");
      CAPE_ASSIGN_OR_RETURN(fragments, ProjectDistinct(table, f_attrs, stop));
    }

    AggregateSpec spec;
    spec.func = pattern.agg;
    spec.input_col = pattern.agg_attr;
    spec.output_name = "agg";

    CandidateMap staged;
    for (int64_t fr = 0; fr < fragments->num_rows(); ++fr) {
      CAPE_RETURN_IF_STOPPED(stop);
      Row fragment = fragments->GetRow(fr);
      std::vector<std::pair<int, Value>> conditions;
      conditions.reserve(f_attrs.size());
      for (size_t i = 0; i < f_attrs.size(); ++i) {
        conditions.emplace_back(f_attrs[i], fragment[i]);
      }
      TablePtr fragment_data;
      {
        ScopedTimer timer(&profile->query_ns);
        profile->num_queries += 1;
        // Fused σ→γ: the fragment's filtered table is never materialized.
        CAPE_ASSIGN_OR_RETURN(fragment_data,
                              FilterGroupAggregate(table, conditions, v_attrs, {spec}, stop));
      }
      const int64_t support = fragment_data->num_rows();
      const int agg_col = static_cast<int>(v_attrs.size());
      std::vector<std::vector<double>> X;
      std::vector<double> y;
      X.reserve(static_cast<size_t>(support));
      y.reserve(static_cast<size_t>(support));
      // String predictors contribute a 0.0 placeholder (only the constant
      // model is fitted when V is not all-numeric).
      std::vector<bool> v_is_numeric;
      v_is_numeric.reserve(v_attrs.size());
      for (size_t vc = 0; vc < v_attrs.size(); ++vc) {
        v_is_numeric.push_back(
            IsNumericType(fragment_data->column(static_cast<int>(vc)).type()));
      }
      for (int64_t row = 0; row < support; ++row) {
        if (fragment_data->column(agg_col).IsNull(row)) continue;
        std::vector<double> x;
        x.reserve(v_attrs.size());
        for (size_t vc = 0; vc < v_attrs.size(); ++vc) {
          x.push_back(v_is_numeric[vc]
                          ? fragment_data->column(static_cast<int>(vc)).GetNumeric(row)
                          : 0.0);
        }
        X.push_back(std::move(x));
        y.push_back(fragment_data->column(agg_col).GetNumeric(row));
      }
      profile->num_rows_scanned += support;
      mining_internal::FitFragmentCandidate(fragment, X, y, support, pattern.model,
                                            pattern, config, profile, &staged);
    }
    for (auto& [p, stats] : staged) {
      candidates->insert_or_assign(p, std::move(stats));
    }
    return Status::OK();
  }
};

}  // namespace

std::unique_ptr<PatternMiner> MakeNaiveMiner() { return std::make_unique<NaiveMiner>(); }

}  // namespace cape
