#include <fcntl.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <random>
#include <set>
#include <thread>

#include "bench.h"
#include "common/string_util.h"
#include "relational/kernels.h"
#include "relational/operators.h"

namespace perfbench {

using namespace cape;  // NOLINT

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SleepUntilNs(int64_t deadline_ns) {
  const int64_t now = NowNs();
  if (deadline_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(deadline_ns - now));
  }
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const auto mid = values.begin() + static_cast<std::ptrdiff_t>(values.size() / 2);
  std::nth_element(values.begin(), mid, values.end());
  if (values.size() % 2 == 1) return *mid;
  return 0.5 * (*std::max_element(values.begin(), mid) + *mid);
}

double Tail(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values.size() >= 11 ? values[values.size() - 11] : values.back();
}

int HardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

void PrintSeries(const char* label, const std::vector<double>& values) {
  std::fprintf(stderr, "%s:", label);
  for (double v : values) std::fprintf(stderr, " %.4g", v);
  std::fprintf(stderr, "\n");
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

IoSnapshot ReadIo() {
  IoSnapshot snap;
  const int fd = ::open("/proc/self/io", O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw Fatal("cannot open /proc/self/io");
  char buf[1024];
  // One call: the file is under 200 bytes, and every call counts in syscr.
  const ssize_t n = ::read(fd, buf, sizeof(buf) - 1);
  ::close(fd);
  if (n <= 0) throw Fatal("cannot read /proc/self/io");
  buf[n] = '\0';
  snap.self_bytes = n;
  long long value = 0;
  for (const char* line = buf; line != nullptr && *line != '\0';) {
    if (std::sscanf(line, "rchar: %lld", &value) == 1) snap.rchar = value;
    if (std::sscanf(line, "syscr: %lld", &value) == 1) snap.syscr = value;
    line = std::strchr(line, '\n');
    if (line != nullptr) ++line;
  }
  return snap;
}

IoDelta Diff(const IoSnapshot& before, const IoSnapshot& after) {
  return {after.rchar - before.rchar - before.self_bytes, after.syscr - before.syscr - 1};
}

void MustOk(const Status& status, const std::string& what) {
  if (!status.ok()) throw Fatal(what + ": " + status.ToString());
}

// ---- Tracer ---------------------------------------------------------------

namespace {
thread_local std::vector<int64_t> open_spans;
}  // namespace

int64_t Tracer::Begin(const char* name, int64_t request) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.start_ns = NowNs();
  span.parent = open_spans.empty() ? -1 : open_spans.back();
  span.request = request;
  int64_t id = 0;
  {
    MutexLock lock(mu_);
    id = static_cast<int64_t>(spans_.size());
    spans_.push_back(span);
  }
  open_spans.push_back(id);
  return id;
}

void Tracer::End(int64_t id) {
  if (id < 0) return;
  const int64_t end = NowNs();
  open_spans.pop_back();
  MutexLock lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = end;
}

int64_t Tracer::Record(const char* name, int64_t start_ns, int64_t end_ns, int64_t parent,
                       int64_t request) {
  if (!enabled_) return -1;
  MutexLock lock(mu_);
  spans_.push_back(Span{name, start_ns, end_ns, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

size_t Tracer::size() const {
  MutexLock lock(mu_);
  return spans_.size();
}

std::map<std::string, Tracer::NameStats> Tracer::Summarize() const {
  MutexLock lock(mu_);
  // Children of each span, to subtract the time they cover from its own.
  std::vector<std::vector<size_t>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<size_t>(spans_[i].parent)].push_back(i);
    }
  }
  std::map<std::string, NameStats> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::vector<std::pair<int64_t, int64_t>> covered;
    for (size_t c : children[i]) {
      const int64_t b = std::max(spans_[c].start_ns, s.start_ns);
      const int64_t e = std::min(spans_[c].end_ns, s.end_ns);
      if (e > b) covered.emplace_back(b, e);
    }
    std::sort(covered.begin(), covered.end());
    int64_t child_ns = 0;
    int64_t reach = s.start_ns;
    for (const auto& [b, e] : covered) {
      const int64_t from = std::max(b, reach);
      if (e > from) child_ns += e - from;
      reach = std::max(reach, e);
    }
    const double ms = static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    NameStats& stats = out[s.name];
    stats.durations_ms.push_back(ms);
    stats.total_ms += ms;
    stats.self_ms += ms - static_cast<double>(child_ns) * 1e-6;
  }
  return out;
}

void Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw Fatal("cannot write trace file " + path);
  {
    MutexLock lock(mu_);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                   "\"parent\":%lld,\"request\":%lld}\n",
                   i, s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), static_cast<long long>(s.parent),
                   static_cast<long long>(s.request));
    }
  }
  for (const auto& [name, stats] : Summarize()) {
    std::fprintf(f, "{\"summary\":\"%s\",\"count\":%zu,\"total_ms\":%s,\"self_ms\":%s}\n",
                 name.c_str(), stats.durations_ms.size(),
                 FormatDouble(stats.total_ms).c_str(),
                 FormatDouble(stats.self_ms).c_str());
  }
  std::fclose(f);
}

// ---- Report ---------------------------------------------------------------

void Report::Check(bool ok, const std::string& what) {
  if (!ok) failed_checks_.push_back(what);
}

std::string Report::ToJson() const {
  auto metrics = [](const Metrics& m) {
    std::string out = "{";
    for (const auto& [name, entry] : m) {
      if (out.size() > 1) out += ",";
      const double v = std::isfinite(entry.first) ? entry.first : 0.0;
      out += "\"" + name + "\":{\"value\":" + FormatDouble(v) + ",\"unit\":\"" +
             entry.second + "\"}";
    }
    return out + "}";
  };
  return "{\"correct\":" + std::string(correct() ? "true" : "false") +
         ",\"attempted\":" + std::to_string(attempted_) + ",\"failed\":" +
         std::to_string(failed_) + ",\"end_to_end\":" + metrics(end_to_end_) +
         ",\"per_layer\":" + metrics(per_layer_) + "}";
}

void TimeRoundSetups(const std::function<void()>& setup, std::vector<double>* seconds) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    throw Fatal("sched_getaffinity failed");
  }
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  for (int g = 0; g < kSetupGroupsPerRound; ++g) {
    int64_t total_ns = 0;
    for (int c : cpus) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(c, &one);
      if (sched_setaffinity(0, sizeof(one), &one) != 0) throw Fatal("sched_setaffinity failed");
      const int64_t t0 = NowNs();
      setup();
      total_ns += NowNs() - t0;
    }
    seconds->push_back(static_cast<double>(total_ns) * 1e-9 /
                       static_cast<double>(cpus.size()));
  }
  if (sched_setaffinity(0, sizeof(allowed), &allowed) != 0) {
    throw Fatal("sched_setaffinity failed");
  }
}

MiningConfig Fig6Thresholds() {
  MiningConfig config;
  config.max_pattern_size = 4;
  config.local_gof_threshold = 0.2;
  config.local_support_threshold = 3;
  config.global_confidence_threshold = 0.2;
  config.global_support_threshold = 10;
  config.agg_functions = {AggFunc::kCount};
  return config;
}

// ---- Questions ----------------------------------------------------------

namespace {

// Group-by shapes of the seeded questions: 3-4 attributes, each with the
// year predictor the mined patterns regress over.
const std::vector<std::vector<std::string>> kQuestionShapes = {
    {"primary_type", "community", "year"},
    {"primary_type", "community", "year", "month"},
    {"community", "year", "month"},
    {"primary_type", "year", "month"},
    {"primary_type", "district", "year"},
    {"location_desc", "community", "year"},
    {"primary_type", "location_desc", "year"},
    {"location_desc", "community", "year", "month"},
};

// Questions per group-by shape, and the ranks on each side of a band's
// center the seed chooses among.
constexpr int kQuestionBands = 24;
constexpr int64_t kBandWindow = 2;

}  // namespace

std::vector<QuestionSpec> MakeQuestionSpecs(const Table& table, uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  std::vector<QuestionSpec> specs;
  for (size_t shape = 0; shape < kQuestionShapes.size(); ++shape) {
    const std::vector<std::string>& names = kQuestionShapes[shape];
    std::vector<int> cols;
    for (const std::string& name : names) {
      const int col = table.schema()->GetFieldIndex(name);
      if (col < 0) throw Fatal("question attribute missing from schema: " + name);
      cols.push_back(col);
    }
    const TablePtr groups =
        Must(GroupByAggregate(table, cols, {AggregateSpec::CountStar("n")}),
             "GroupByAggregate");
    const TablePtr ranked = Must(
        SortTable(*groups, {SortKey{static_cast<int>(cols.size()), false}}), "SortTable");
    const int64_t n = ranked->num_rows();
    for (int band = 0; band < kQuestionBands; ++band) {
      // Band b: the groups ranked within kBandWindow of n^((b+1/2)/B) - 1.
      const double exponent = (band + 0.5) / static_cast<double>(kQuestionBands);
      const auto center =
          static_cast<int64_t>(std::pow(static_cast<double>(n), exponent) - 1.0);
      const int64_t lo = std::max<int64_t>(0, center - kBandWindow);
      const int64_t hi = std::min<int64_t>(n, center + kBandWindow + 1);
      const int64_t row =
          lo + static_cast<int64_t>(rng() % static_cast<uint64_t>(hi - lo));
      QuestionSpec spec;
      spec.group_by = names;
      for (size_t c = 0; c < cols.size(); ++c) {
        spec.values.push_back(ranked->GetValue(row, static_cast<int>(c)));
      }
      spec.dir =
          (band + static_cast<int>(shape)) % 2 == 0 ? Direction::kLow : Direction::kHigh;
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

UserQuestion BuildUserQuestion(const TablePtr& table, const QuestionSpec& spec) {
  return Must(
      MakeUserQuestion(table, spec.group_by, spec.values, AggFunc::kCount, "*", spec.dir),
      "MakeUserQuestion");
}

std::string ExplainStatement(const QuestionSpec& spec, const std::string& table) {
  std::string sql = "EXPLAIN WHY count(*) IS ";
  sql += spec.dir == Direction::kLow ? "LOW" : "HIGH";
  sql += " FOR ";
  for (size_t i = 0; i < spec.group_by.size(); ++i) {
    if (i > 0) sql += ", ";
    const Value& v = spec.values[i];
    sql += spec.group_by[i] + " = ";
    sql += v.type() == DataType::kString ? "'" + v.string_value() + "'" : v.ToString();
  }
  return sql + " FROM " + table;
}

// ---- Probes ---------------------------------------------------------------

void ProbeRelational(const Table& table, const PatternSet& patterns,
                     const std::vector<UserQuestion>& questions, Tracer* tracer) {
  std::set<uint64_t> seen;
  for (const GlobalPattern& gp : patterns.patterns()) {
    const std::vector<int> cols = gp.pattern.GroupAttrs().ToIndices();
    if (!seen.insert(gp.pattern.GroupAttrs().bits()).second) continue;
    TablePtr grouped;
    {
      ScopedSpan span(tracer, "relational.GroupByAggregate");
      grouped = Must(GroupByAggregate(table, cols, {AggregateSpec::CountStar("cnt")}),
                     "GroupByAggregate");
    }
    // Fragment order: F then V, as the miners sort a group table.
    std::vector<SortKey> keys;
    for (const AttrSet part : {gp.pattern.partition_attrs, gp.pattern.predictor_attrs}) {
      for (int attr : part.ToIndices()) {
        const auto pos = std::find(cols.begin(), cols.end(), attr) - cols.begin();
        keys.push_back(SortKey{static_cast<int>(pos), true});
      }
    }
    ScopedSpan span(tracer, "relational.SortTable");
    Must(SortTable(*grouped, keys), "SortTable");
  }
  for (const UserQuestion& q : questions) {
    std::vector<std::pair<int, Value>> conditions;
    const std::vector<int> attrs = q.group_attrs.ToIndices();
    for (size_t i = 0; i < attrs.size(); ++i) {
      conditions.emplace_back(attrs[i], q.group_values[i]);
    }
    {
      ScopedSpan span(tracer, "relational.FilterGroupAggregate");
      Must(FilterGroupAggregate(table, conditions, {}, {AggregateSpec::CountStar("cnt")}),
           "FilterGroupAggregate");
    }
    ScopedSpan span(tracer, "relational.CountFilterMatches");
    Must(CountFilterMatches(table, conditions), "CountFilterMatches");
  }
}

void MiningLayerMetrics(const MiningProfile& profile, int64_t locals, Report* report) {
  // Miners that run on one thread leave cpu_ns unset; their work is wall time.
  const int64_t work_ns = std::max(profile.cpu_ns, profile.total_ns);
  const int64_t other_ns = work_ns - profile.query_ns - profile.regression_ns;
  report->Layer("stats.fit_s", static_cast<double>(profile.regression_ns) * 1e-9, "s");
  report->Layer("stats.fits", static_cast<double>(profile.num_local_fits), "count");
  report->Layer("fd.candidates_skipped",
                static_cast<double>(profile.num_candidates_skipped_fd), "count");
  report->Layer("pattern.query_s", static_cast<double>(profile.query_ns) * 1e-9, "s");
  report->Layer("pattern.other_s",
                static_cast<double>(std::max<int64_t>(other_ns, 0)) * 1e-9, "s");
  report->Layer("pattern.cpu_per_wall",
                profile.total_ns > 0 ? static_cast<double>(work_ns) /
                                           static_cast<double>(profile.total_ns)
                                     : 0.0,
                "ratio");
  report->Layer("pattern.candidates", static_cast<double>(profile.num_candidates),
                "count");
  report->Layer("pattern.queries", static_cast<double>(profile.num_queries), "count");
  report->Layer("pattern.sorts", static_cast<double>(profile.num_sorts), "count");
  report->Layer("pattern.rows_scanned", static_cast<double>(profile.num_rows_scanned),
                "count");
  report->Layer("pattern.locals", static_cast<double>(locals), "count");
}

void ExplainTally::Add(const ExplainProfile& p) {
  ++questions;
  relevant += p.num_relevant_patterns;
  pairs += p.num_refinement_pairs;
  pruned += p.num_pairs_pruned;
  tuples += p.num_tuples_checked;
  candidates += p.num_candidates;
  cpu_ns += p.cpu_ns;
  wall_ns += p.total_ns;
}

void ExplainTally::Emit(int64_t session_tables, Report* report) const {
  auto ratio = [](int64_t num, int64_t den) {
    return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
  };
  report->Layer("explain.relevant_patterns", ratio(relevant, questions), "count");
  report->Layer("explain.pairs", ratio(pairs, questions), "count");
  report->Layer("explain.pruned_share", ratio(pruned, pairs), "ratio");
  report->Layer("explain.tuples_checked", ratio(tuples, questions), "count");
  report->Layer("explain.candidate_yield", ratio(candidates, tuples), "ratio");
  report->Layer("explain.cpu_per_wall", ratio(cpu_ns, wall_ns), "ratio");
  report->Layer("explain.session_tables", static_cast<double>(session_tables), "count");
}

void TimedQuestionPass(size_t num_questions, const char* span,
                       const std::function<Result<ExplainResult>(size_t)>& ask,
                       const std::function<void(size_t, const ExplainResult&)>& on_answer,
                       Tracer* tracer, AnswerLog* log) {
  const int64_t pass_start = NowNs();
  int64_t answered = 0;
  for (size_t q = 0; q < num_questions; ++q) {
    const int64_t t0 = NowNs();
    Result<ExplainResult> result = [&] {
      ScopedSpan scoped(tracer, span, log->attempted + 1);
      return ask(q);
    }();
    const int64_t t1 = NowNs();
    ++log->attempted;
    if (!result.ok() || result->partial) {
      ++log->failed;
      continue;
    }
    ++answered;
    log->latency_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    log->tally.Add(result->profile);
    if (on_answer) on_answer(q, *result);
  }
  log->pass_rps.push_back(static_cast<double>(answered) /
                          (static_cast<double>(NowNs() - pass_start) * 1e-9));
}

void LayerMetricsFromSpans(const Tracer& tracer, Report* report) {
  const auto stats = tracer.Summarize();
  auto durations = [&](const char* name) {
    auto it = stats.find(name);
    return it == stats.end() ? std::vector<double>{} : it->second.durations_ms;
  };
  auto median_ms = [&](const char* name) { return Median(durations(name)); };
  auto total_ms = [&](const char* name) {
    auto it = stats.find(name);
    return it == stats.end() ? 0.0 : it->second.total_ms;
  };
  std::vector<double> gen = durations("datagen.GenerateCrime");
  for (double d : durations("datagen.GenerateCrimeToHeapFile")) gen.push_back(d);
  report->Layer("datagen.gen_s", Median(gen) * 1e-3, "s");
  report->Layer("relational.gamma_ms", total_ms("relational.GroupByAggregate"), "ms");
  report->Layer("relational.sort_ms", total_ms("relational.SortTable"), "ms");
  report->Layer("relational.norm_us", median_ms("relational.FilterGroupAggregate") * 1e3,
                "us");
  report->Layer("relational.probe_us", median_ms("relational.CountFilterMatches") * 1e3,
                "us");
  report->Layer("relational.csv_load_s", median_ms("core.Engine::FromCsvFile") * 1e-3,
                "s");
  report->Layer("explain.session_ms", median_ms("explain.ExplainSession::Explain"), "ms");
  report->Layer("sql.parse_us", median_ms("sql.ParseStatement") * 1e3, "us");
  report->Layer("sql.bind_us", median_ms("sql.BuildQuestion") * 1e3, "us");
  report->Layer("server.protocol_us", median_ms("server.ParseRequestLine") * 1e3, "us");
  report->Layer("server.render_us", median_ms("server.RenderResponse") * 1e3, "us");
  report->Layer("server.queue_ms", median_ms("server.queue"), "ms");
  report->Layer("server.queue_tail_ms", Tail(durations("server.queue")), "ms");
  report->Layer("server.exec_ms", median_ms("server.execute"), "ms");
  report->Layer("storage.scan_ms", total_ms("storage.PageSource::Pin"), "ms");
  report->Layer("trace.spans", static_cast<double>(tracer.size()), "count");
}

}  // namespace perfbench
