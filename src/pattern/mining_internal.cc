#include "pattern/mining_internal.h"

#include <algorithm>

#include "common/hash.h"
#include "common/stopwatch.h"
#include "stats/regression.h"

namespace cape::mining_internal {

AttrSet AllowedAttrs(const Schema& schema, const MiningConfig& config) {
  AttrSet allowed;
  for (int i = 0; i < schema.num_fields(); ++i) allowed.Add(i);
  for (const std::string& name : config.excluded_attrs) {
    int idx = schema.GetFieldIndex(name);
    if (idx >= 0) allowed.Remove(idx);
  }
  return allowed;
}

Result<std::vector<AttrSet>> EnumerateGroupSets(const Schema& schema,
                                                const MiningConfig& config) {
  const AttrSet allowed = AllowedAttrs(schema, config);
  const std::vector<int> attrs = allowed.ToIndices();
  const int n = static_cast<int>(attrs.size());
  std::vector<AttrSet> out;
  if (n > 30) {
    return Status::InvalidArgument(
        "cannot mine over " + std::to_string(n) +
        " eligible attributes (subset enumeration limit is 30); use "
        "MiningConfig::excluded_attrs to narrow the candidate space");
  }
  for (uint32_t mask = 0; mask < (1u << n); ++mask) {
    const int size = __builtin_popcount(mask);
    if (size < 2 || size > config.max_pattern_size) continue;
    AttrSet g;
    for (int i = 0; i < n; ++i) {
      if (mask & (1u << i)) g.Add(attrs[static_cast<size_t>(i)]);
    }
    out.push_back(g);
  }
  std::sort(out.begin(), out.end(), [](AttrSet a, AttrSet b) {
    if (a.size() != b.size()) return a.size() < b.size();
    return a.bits() < b.bits();
  });
  return out;
}

std::vector<std::pair<AggFunc, int>> EnumerateAggCandidates(const Table& table, AttrSet g,
                                                            const MiningConfig& config) {
  std::vector<std::pair<AggFunc, int>> out;
  const AttrSet allowed = AllowedAttrs(*table.schema(), config);
  for (AggFunc agg : config.agg_functions) {
    if (agg == AggFunc::kCount) {
      out.emplace_back(AggFunc::kCount, Pattern::kCountStar);
      continue;
    }
    if (agg == AggFunc::kAvg) continue;  // not part of Definition 2
    for (int a : allowed.ToIndices()) {
      if (g.Contains(a)) continue;
      if (!IsNumericType(table.schema()->field(a).type)) continue;
      out.emplace_back(agg, a);
    }
  }
  return out;
}

SharedAggSpecs BuildSharedAggSpecs(const Table& table, AttrSet candidate_attrs,
                                   const MiningConfig& config) {
  SharedAggSpecs out;
  for (AggFunc agg : config.agg_functions) {
    if (agg == AggFunc::kCount) {
      out.specs.push_back(AggregateSpec::CountStar("count_star"));
      out.meaning.emplace_back(AggFunc::kCount, Pattern::kCountStar);
      continue;
    }
    if (agg == AggFunc::kAvg) continue;
    for (int a : candidate_attrs.ToIndices()) {
      if (!IsNumericType(table.schema()->field(a).type)) continue;
      AggregateSpec spec;
      spec.func = agg;
      spec.input_col = a;
      spec.output_name = std::string(AggFuncToString(agg)) + "_" +
                         table.schema()->field(a).name;
      out.specs.push_back(std::move(spec));
      out.meaning.emplace_back(agg, a);
    }
  }
  return out;
}

bool AllNumeric(const Table& table, AttrSet attrs) {
  for (int a : attrs.ToIndices()) {
    if (!IsNumericType(table.schema()->field(a).type)) return false;
  }
  return true;
}

void FitFragmentCandidate(const Row& fragment, const std::vector<std::vector<double>>& X,
                          const std::vector<double>& y, int64_t support, ModelType model,
                          const Pattern& pattern, const MiningConfig& config,
                          MiningProfile* profile, CandidateMap* candidates) {
  auto [it, inserted] = candidates->try_emplace(pattern);
  CandidateStats& stats = it->second;
  if (inserted) stats.pattern = pattern;
  stats.num_fragments += 1;
  if (support < config.local_support_threshold) return;
  stats.num_supported += 1;
  if (y.empty()) return;  // aggregate was NULL everywhere; nothing to fit

  profile->num_local_fits += 1;
  std::unique_ptr<RegressionModel> fitted;
  {
    ScopedTimer timer(&profile->regression_ns);
    auto fit_result = FitRegression(model, X, y);
    if (!fit_result.ok()) return;
    fitted = std::move(fit_result).ValueOrDie();
  }
  // A NaN goodness of fit (a fit over NaN aggregates) fails too.
  if (!(fitted->goodness_of_fit() >= config.local_gof_threshold)) return;

  stats.num_holding += 1;
  LocalPattern local;
  local.fragment = fragment;
  local.support = support;
  for (size_t i = 0; i < y.size(); ++i) {
    const double dev = y[i] - fitted->Predict(X[i]);
    if (dev > local.max_positive_dev) local.max_positive_dev = dev;
    if (dev < local.min_negative_dev) local.min_negative_dev = dev;
  }
  if (local.max_positive_dev > stats.max_positive_dev) {
    stats.max_positive_dev = local.max_positive_dev;
  }
  if (local.min_negative_dev < stats.min_negative_dev) {
    stats.min_negative_dev = local.min_negative_dev;
  }
  local.model = std::move(fitted);
  stats.locals.push_back(std::move(local));
}

Status EvaluateSplit(const Table& data, const std::vector<int>& f_cols,
                     const std::vector<int>& v_cols, bool v_all_numeric, AttrSet f_attrs,
                     AttrSet v_attrs, const std::vector<AggColumnRef>& agg_cols,
                     const MiningConfig& config, MiningProfile* profile,
                     CandidateMap* candidates, StopToken* stop) {
  CAPE_RETURN_IF_STOPPED(stop);  // small splits never reach the stride below
  const int64_t n = data.num_rows();

  // Staging area: a stop mid-split must not leave half-evaluated candidate
  // stats behind, so the split accumulates locally and merges on success.
  // Candidate keys are unique per (F, V) split, so the merge never collides.
  CandidateMap staged;

  // Reused per-block buffers: predictor matrix and one response vector per
  // aggregate column (rows with NULL aggregates are excluded per column).
  std::vector<std::vector<double>> X;
  std::vector<std::vector<double>> ys(agg_cols.size());
  std::vector<std::vector<std::vector<double>>> x_per_agg(agg_cols.size());

  // String predictors contribute a 0.0 placeholder to X (only the constant
  // model — which ignores X — is fitted when V is not all-numeric).
  std::vector<bool> v_is_numeric;
  v_is_numeric.reserve(v_cols.size());
  for (int c : v_cols) v_is_numeric.push_back(IsNumericType(data.column(c).type()));

  auto process_block = [&](int64_t begin, int64_t end) {
    const int64_t support = end - begin;
    Row fragment;
    fragment.reserve(f_cols.size());
    for (int c : f_cols) fragment.push_back(data.GetValue(begin, c));

    X.clear();
    for (auto& y : ys) y.clear();
    for (auto& xs : x_per_agg) xs.clear();
    for (int64_t row = begin; row < end; ++row) {
      std::vector<double> x;
      x.reserve(v_cols.size());
      for (size_t v = 0; v < v_cols.size(); ++v) {
        x.push_back(v_is_numeric[v] ? data.column(v_cols[v]).GetNumeric(row) : 0.0);
      }
      for (size_t a = 0; a < agg_cols.size(); ++a) {
        const Column& col = data.column(agg_cols[a].col_in_data);
        if (col.IsNull(row)) continue;
        ys[a].push_back(col.GetNumeric(row));
        x_per_agg[a].push_back(x);
      }
      X.push_back(std::move(x));
    }

    for (size_t a = 0; a < agg_cols.size(); ++a) {
      for (ModelType model : config.model_types) {
        if (model == ModelType::kLinear && !v_all_numeric) continue;
        Pattern pattern;
        pattern.partition_attrs = f_attrs;
        pattern.predictor_attrs = v_attrs;
        pattern.agg = agg_cols[a].agg;
        pattern.agg_attr = agg_cols[a].agg_attr;
        pattern.model = model;
        FitFragmentCandidate(fragment, x_per_agg[a], ys[a], support, model, pattern,
                             config, profile, &staged);
      }
    }
  };

  // Count each (agg, model) combination once per split as a candidate.
  for (size_t a = 0; a < agg_cols.size(); ++a) {
    for (ModelType model : config.model_types) {
      if (model == ModelType::kLinear && !v_all_numeric) continue;
      profile->num_candidates += 1;
    }
  }

  // Stop checks run every kStopCheckStride scanned rows rather than at every
  // fragment boundary: the staged CandidateMap is discarded wholesale on
  // stop, so any check granularity is safe, and high-cardinality F sets have
  // a boundary nearly every row.
  int64_t block_start = 0;
  int64_t rows_since_check = 0;
  for (int64_t row = 1; row <= n; ++row) {
    bool boundary = (row == n);
    if (!boundary) {
      for (int c : f_cols) {
        if (data.GetValue(row, c) != data.GetValue(row - 1, c)) {
          boundary = true;
          break;
        }
      }
    }
    if (boundary) {
      rows_since_check += row - block_start;
      if (rows_since_check >= kStopCheckStride) {
        CAPE_RETURN_IF_STOPPED_BLOCK(stop);
        rows_since_check = 0;
      }
      process_block(block_start, row);
      block_start = row;
    }
  }
  profile->num_rows_scanned += n;

  for (auto& [pattern, stats] : staged) {
    candidates->insert_or_assign(pattern, std::move(stats));
  }
  return Status::OK();
}

PatternSet FinalizePatterns(CandidateMap candidates, const MiningConfig& config) {
  std::vector<CandidateStats> held;
  // Finalization of already-mined candidates; miners stop upstream.
  // analyzer:allow-next-line(cancellation) no stop token at this boundary
  for (auto& [pattern, stats] : candidates) {
    if (stats.num_supported == 0) continue;
    const double confidence = static_cast<double>(stats.num_holding) /
                              static_cast<double>(stats.num_supported);
    if (stats.num_holding >= config.global_support_threshold &&
        confidence >= config.global_confidence_threshold) {
      held.push_back(std::move(stats));
    }
  }
  std::sort(held.begin(), held.end(), [](const CandidateStats& a, const CandidateStats& b) {
    const Pattern& p = a.pattern;
    const Pattern& q = b.pattern;
    if (p.partition_attrs != q.partition_attrs) return p.partition_attrs < q.partition_attrs;
    if (p.predictor_attrs != q.predictor_attrs) return p.predictor_attrs < q.predictor_attrs;
    if (p.agg != q.agg) return static_cast<int>(p.agg) < static_cast<int>(q.agg);
    if (p.agg_attr != q.agg_attr) return p.agg_attr < q.agg_attr;
    return static_cast<int>(p.model) < static_cast<int>(q.model);
  });

  PatternSet out;
  for (CandidateStats& stats : held) {
    GlobalPattern global;
    global.pattern = stats.pattern;
    global.num_fragments = stats.num_fragments;
    global.num_supported = stats.num_supported;
    global.num_holding = stats.num_holding;
    global.global_confidence = static_cast<double>(stats.num_holding) /
                               static_cast<double>(stats.num_supported);
    global.max_positive_dev = stats.max_positive_dev;
    global.min_negative_dev = stats.min_negative_dev;
    // Deterministic local order: sort by fragment key.
    std::sort(stats.locals.begin(), stats.locals.end(),
              [](const LocalPattern& a, const LocalPattern& b) {
                return EncodeRowKey(a.fragment) < EncodeRowKey(b.fragment);
              });
    global.locals = std::move(stats.locals);
    out.Add(std::move(global));
  }
  return out;
}

}  // namespace cape::mining_internal

namespace cape {

uint64_t MiningConfigDigest(const MiningConfig& config) {
  Fnv64 h;
  h.UpdateU32(static_cast<uint32_t>(config.max_pattern_size));
  h.UpdateDouble(config.local_gof_threshold);
  h.UpdateI64(config.local_support_threshold);
  h.UpdateDouble(config.global_confidence_threshold);
  h.UpdateI64(config.global_support_threshold);
  h.UpdateU64(config.agg_functions.size());
  for (AggFunc f : config.agg_functions) h.UpdateU8(static_cast<uint8_t>(f));
  h.UpdateU64(config.model_types.size());
  for (ModelType m : config.model_types) h.UpdateU8(static_cast<uint8_t>(m));
  h.UpdateU8(config.require_numeric_predictors ? 1 : 0);
  h.UpdateU64(config.excluded_attrs.size());
  for (const std::string& name : config.excluded_attrs) h.UpdateString(name);
  h.UpdateU8(config.use_fd_optimizations ? 1 : 0);
  h.UpdateU64(config.initial_fds.size());
  for (const FunctionalDependency& fd : config.initial_fds.fds()) {
    h.UpdateU64(fd.lhs.bits());
    h.UpdateU32(static_cast<uint32_t>(fd.rhs));
  }
  return h.digest();
}

}  // namespace cape
