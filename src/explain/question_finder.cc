#include "explain/question_finder.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/macros.h"
#include "relational/operators.h"

namespace cape {

Result<std::vector<CandidateQuestion>> FindCandidateQuestions(
    TablePtr table, const PatternSet& patterns, const QuestionFinderOptions& options) {
  if (table == nullptr) return Status::InvalidArgument("table must not be null");
  if (options.top_k < 1) return Status::InvalidArgument("top_k must be at least 1");

  struct Hit {
    Pattern pattern;
    AttrSet attrs;   // F ∪ V
    Row values;      // t[F ∪ V], ascending
    double value;    // t[agg(A)]
    double deviation;
    double outlierness;
  };
  // Best hit per question tuple (a tuple may violate several patterns; keep
  // the strongest evidence).
  std::unordered_map<std::string, Hit> best;

  for (const GlobalPattern& gp : patterns.patterns()) {
    const Pattern& p = gp.pattern;
    const std::vector<int> attrs = p.GroupAttrs().ToIndices();
    AggregateSpec spec;
    spec.func = p.agg;
    spec.input_col = p.agg_attr;
    spec.output_name = "agg";
    CAPE_ASSIGN_OR_RETURN(TablePtr data, GroupByAggregate(*table, attrs, {spec}));
    const int agg_col = static_cast<int>(attrs.size());
    // Miners only emit numeric aggregates, but patterns loaded from disk are
    // unchecked; a string aggregate (min/max over a string attr) has no
    // outlierness notion, so skip the pattern rather than CHECK-fail.
    if (!IsNumericType(data->column(agg_col).type())) continue;

    std::vector<int> f_positions;
    std::vector<int> v_positions;
    for (size_t i = 0; i < attrs.size(); ++i) {
      if (p.partition_attrs.Contains(attrs[i])) f_positions.push_back(static_cast<int>(i));
      else v_positions.push_back(static_cast<int>(i));
    }
    // String predictors contribute a 0.0 placeholder (constant model only).
    std::vector<bool> v_is_numeric;
    v_is_numeric.reserve(v_positions.size());
    for (int pos : v_positions) {
      v_is_numeric.push_back(IsNumericType(data->column(pos).type()));
    }

    std::string fragment_key;  // reused across rows; same bytes as EncodeRowKey
    for (int64_t row = 0; row < data->num_rows(); ++row) {
      if ((row & (kStopCheckStride - 1)) == 0) CAPE_RETURN_IF_STOPPED_BLOCK(options.stop);
      if (data->column(agg_col).IsNull(row)) continue;
      fragment_key.clear();
      AppendTableRowKey(*data, row, f_positions, &fragment_key);
      const LocalPattern* local = gp.FindLocalByKey(fragment_key);
      if (local == nullptr) continue;

      std::vector<double> x;
      for (size_t v = 0; v < v_positions.size(); ++v) {
        x.push_back(v_is_numeric[v] ? data->column(v_positions[v]).GetNumeric(row) : 0.0);
      }
      const double predicted = local->model->Predict(x);
      const double value = data->column(agg_col).GetNumeric(row);
      const double deviation = value - predicted;
      const double outlierness = std::fabs(deviation) / (std::fabs(predicted) + 1.0);
      if (!(outlierness >= options.min_outlierness)) continue;  // NaN fails too

      Hit hit;
      hit.pattern = p;
      hit.attrs = p.GroupAttrs();
      hit.values.reserve(attrs.size());
      for (size_t i = 0; i < attrs.size(); ++i) {
        hit.values.push_back(data->GetValue(row, static_cast<int>(i)));
      }
      hit.value = value;
      hit.deviation = deviation;
      hit.outlierness = outlierness;

      const std::string key =
          std::to_string(hit.attrs.bits()) + "|" + EncodeRowKey(hit.values);
      auto it = best.find(key);
      if (it == best.end() || it->second.outlierness < outlierness) {
        best[key] = std::move(hit);
      }
    }
  }

  std::vector<Hit> hits;
  hits.reserve(best.size());
  for (auto& [key, hit] : best) hits.push_back(std::move(hit));
  std::sort(hits.begin(), hits.end(), [](const Hit& a, const Hit& b) {
    if (a.outlierness != b.outlierness) return a.outlierness > b.outlierness;
    return EncodeRowKey(a.values) < EncodeRowKey(b.values);  // deterministic ties
  });
  if (static_cast<int>(hits.size()) > options.top_k) {
    hits.resize(static_cast<size_t>(options.top_k));
  }

  std::vector<CandidateQuestion> out;
  const Schema& schema = *table->schema();
  for (Hit& hit : hits) {
    std::vector<std::string> group_by;
    for (int attr : hit.attrs.ToIndices()) group_by.push_back(schema.field(attr).name);
    const std::string agg_attr =
        hit.pattern.agg_attr == Pattern::kCountStar ? "*"
                                                    : schema.field(hit.pattern.agg_attr).name;
    CAPE_ASSIGN_OR_RETURN(
        UserQuestion question,
        MakeUserQuestion(table, group_by,
                         std::vector<Value>(hit.values.begin(), hit.values.end()),
                         hit.pattern.agg, agg_attr,
                         hit.deviation > 0 ? Direction::kHigh : Direction::kLow));
    CandidateQuestion cq;
    cq.question = std::move(question);
    cq.pattern = hit.pattern;
    cq.deviation = hit.deviation;
    cq.outlierness = hit.outlierness;
    out.push_back(std::move(cq));
  }
  return out;
}

}  // namespace cape
