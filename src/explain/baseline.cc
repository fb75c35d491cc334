#include "explain/baseline.h"

#include <algorithm>
#include <cmath>

#include "common/cancellation.h"
#include "common/macros.h"
#include "common/stopwatch.h"
#include "stats/descriptive.h"

namespace cape {

Result<ExplainResult> BaselineExplain(const UserQuestion& q,
                                      const DistanceModel& distance,
                                      const ExplainConfig& config) {
  if (config.top_k < 1) return Status::InvalidArgument("top_k must be at least 1");
  ExplainResult result;
  Stopwatch total;
  StopToken stop = config.MakeStopToken();

  AggregateSpec spec;
  spec.func = q.agg;
  spec.input_col = q.agg_attr;
  spec.output_name = "agg";
  const std::vector<int> g = q.group_attrs.ToIndices();
  CAPE_ASSIGN_OR_RETURN(TablePtr data, GroupByAggregate(*q.relation, g, {spec}, &stop));
  const int agg_col = static_cast<int>(g.size());
  // MakeUserQuestion rejects non-numeric aggregates; guard hand-built
  // questions too (min/max over a string attribute aggregates to strings).
  if (!IsNumericType(data->column(agg_col).type())) {
    return Status::TypeError(std::string("baseline requires a numeric aggregate, got ") +
                             DataTypeToString(data->column(agg_col).type()));
  }

  RunningStats stats;
  for (int64_t row = 0; row < data->num_rows(); ++row) {
    if ((row & (kStopCheckStride - 1)) == 0) CAPE_RETURN_IF_STOPPED_BLOCK(&stop);
    if (!data->column(agg_col).IsNull(row)) stats.Add(data->column(agg_col).GetNumeric(row));
  }
  const double avg = stats.mean();
  const double isLow = q.dir == Direction::kLow ? 1.0 : -1.0;

  std::vector<Explanation> candidates;
  for (int64_t row = 0; row < data->num_rows(); ++row) {
    if ((row & (kStopCheckStride - 1)) == 0) CAPE_RETURN_IF_STOPPED_BLOCK(&stop);
    result.profile.num_tuples_checked += 1;
    if (data->column(agg_col).IsNull(row)) continue;
    Row values;
    values.reserve(g.size());
    for (size_t i = 0; i < g.size(); ++i) {
      values.push_back(data->GetValue(row, static_cast<int>(i)));
    }
    if (values == q.group_values) continue;  // t' != t
    const double y = data->column(agg_col).GetNumeric(row);
    const double dev = y - avg;
    // Counterbalance: deviation from the average in the opposite direction,
    // a strict test that a NaN deviation fails.
    if (!(q.dir == Direction::kLow ? dev > 0.0 : dev < 0.0)) continue;

    Explanation e;
    e.tuple_attrs = q.group_attrs;
    e.tuple_values = std::move(values);
    e.agg_value = y;
    e.predicted = avg;
    e.deviation = dev;
    e.distance = distance.Distance(q.group_attrs, q.group_values, q.group_attrs,
                                   e.tuple_values);
    e.norm = 1.0;
    e.score = dev * isLow / (e.distance + config.epsilon);
    result.profile.num_candidates += 1;
    candidates.push_back(std::move(e));
  }

  std::sort(candidates.begin(), candidates.end(),
            [](const Explanation& a, const Explanation& b) { return a.score > b.score; });
  if (static_cast<int>(candidates.size()) > config.top_k) {
    candidates.resize(static_cast<size_t>(config.top_k));
  }
  result.explanations = std::move(candidates);
  result.profile.total_ns = total.ElapsedNanos();
  return result;
}

}  // namespace cape
