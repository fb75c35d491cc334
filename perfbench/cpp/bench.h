// Shared pieces of the benchmark program: the clock, sample statistics,
// process counters read from outside the engine, the span tracer, the
// result report, and the seeded question generator every workload uses.
//
// The engine is driven only through its public headers; every number here
// is measured from the outside, around calls into a layer's public API.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "explain/explainer.h"
#include "explain/user_question.h"
#include "pattern/mining.h"
#include "pattern/pattern_set.h"
#include "relational/table.h"
#include "server/server.h"

namespace perfbench {

// ---- Clock and statistics ----------------------------------------------

/// Monotonic nanoseconds. Every latency, span and schedule uses this clock.
int64_t NowNs();

/// Sleeps until `deadline_ns` on the NowNs() clock.
void SleepUntilNs(int64_t deadline_ns);

double Median(std::vector<double> values);

/// The highest percentile with at least ten samples beyond it: the
/// 11th-largest value, or the largest when there are fewer than 11 samples.
double Tail(std::vector<double> values);

int HardwareThreads();

/// Prints "label: v1 v2 ..." on stderr, for the human-readable summary.
void PrintSeries(const char* label, const std::vector<double>& values);

// ---- Process counters ----------------------------------------------------

/// Peak resident set of this process so far (getrusage ru_maxrss).
double PeakRssMb();

/// One read of /proc/self/io. `self_bytes` is what that read returned; the
/// kernel charges it to rchar after the snapshot was taken.
struct IoSnapshot {
  int64_t rchar = 0;
  int64_t syscr = 0;
  int64_t self_bytes = 0;
};
IoSnapshot ReadIo();

/// Bytes and read calls issued between two snapshots, excluding the cost of
/// taking `before` (one read call of `before.self_bytes` bytes).
struct IoDelta {
  int64_t bytes = 0;
  int64_t calls = 0;
};
IoDelta Diff(const IoSnapshot& before, const IoSnapshot& after);

// ---- Errors ---------------------------------------------------------------

/// A setup or benchmark step failed; the run cannot produce numbers.
struct Fatal : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void MustOk(const cape::Status& status, const std::string& what);

template <typename T>
T Must(cape::Result<T> result, const std::string& what) {
  if (!result.ok()) throw Fatal(what + ": " + result.status().ToString());
  return std::move(result).ValueOrDie();
}

// ---- Tracing --------------------------------------------------------------

/// In-memory span recorder. A span has a name, start and end on the NowNs()
/// clock, the span that caused it, and the request it serves. Spans opened
/// with ScopedSpan nest through a per-thread stack; spans measured across
/// threads (a server request) are recorded whole with Record(). Disabled
/// tracers record nothing and cost one branch per call.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span parented to this thread's innermost open span; returns
  /// its id (-1 when disabled).
  int64_t Begin(const char* name, int64_t request = 0);
  void End(int64_t id);

  /// Records a finished span with explicit times and parent.
  int64_t Record(const char* name, int64_t start_ns, int64_t end_ns, int64_t parent = -1,
                 int64_t request = 0);

  struct NameStats {
    std::vector<double> durations_ms;  // one per span, in record order
    double total_ms = 0.0;
    double self_ms = 0.0;  // total minus the time child spans cover
  };
  std::map<std::string, NameStats> Summarize() const;

  /// Writes every span as one JSON line, then one summary line per name.
  void Write(const std::string& path) const;

  size_t size() const;

 private:
  struct Span {
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t parent = -1;
    int64_t request = 0;
  };

  const bool enabled_;
  mutable cape::Mutex mu_;
  std::vector<Span> spans_ CAPE_GUARDED_BY(mu_);
};

/// Span around one call on the current thread.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t request = 0)
      : tracer_(tracer), id_(tracer->Begin(name, request)) {}
  ~ScopedSpan() { tracer_->End(id_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int64_t id_;
};

// ---- Report -----------------------------------------------------------------

/// What one workload run prints: operation counts, correctness checks and
/// named metrics with units.
class Report {
 public:
  void EndToEnd(const std::string& name, double value, const std::string& unit) {
    end_to_end_[name] = {value, unit};
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    per_layer_[name] = {value, unit};
  }
  void Operations(int64_t attempted, int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  /// Records a correctness check; a false check fails the run.
  void Check(bool ok, const std::string& what);

  bool correct() const { return failed_checks_.empty(); }
  const std::vector<std::string>& failed_checks() const { return failed_checks_; }

  /// One-line JSON: correct, attempted, failed, end_to_end, per_layer.
  std::string ToJson() const;

 private:
  using Metrics = std::map<std::string, std::pair<double, std::string>>;
  Metrics end_to_end_;
  Metrics per_layer_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> failed_checks_;
};

// ---- Workload inputs ------------------------------------------------------

/// The thresholds of the paper's Figure 6 runs: psi=4, theta=0.2, delta=3,
/// lambda=0.2, Delta=10, count(*) only.
cape::MiningConfig Fig6Thresholds();

/// Generator seed of every workload's relation (the seed the repository's
/// own benches use). The relation is the system's state, fixed like a
/// database at a given scale; --seed drives the traffic: which questions
/// are asked.
inline constexpr uint64_t kDataSeed = 7;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
};

/// Timed rounds every workload runs even when --seconds is spent sooner.
inline constexpr int kMinRounds = 3;

/// setup_s samples: at the start of every round, kSetupGroupsPerRound
/// groups, each one set-up pinned to every CPU in turn; a group's mean is one
/// sample and setup_s is their median. A set-up takes tens of milliseconds,
/// and on a machine shared with other work CPUs change speed from second to
/// second: unpinned, a round's set-ups all ran on one CPU and the run's
/// median jumped between a fast and a slow level.
inline constexpr int kSetupGroupsPerRound = 2;

/// Runs `setup` kSetupGroupsPerRound times on every CPU this thread may use,
/// pinned to each in turn, and appends each group's mean wall time in
/// seconds to `seconds`. What the set-ups build is discarded.
void TimeRoundSetups(const std::function<void()>& setup, std::vector<double>* seconds);

/// A seeded user question: a 3-4 attribute group-by, one of its groups and a
/// direction.
struct QuestionSpec {
  std::vector<std::string> group_by;
  std::vector<cape::Value> values;
  cape::Direction dir = cape::Direction::kLow;
};

/// 24 questions per group-by shape, drawn by stratified sampling: the
/// shape's groups are ranked by size, band b of 24 is centered on rank
/// n^((b+1/2)/24) - 1 (geometric steps from the largest group down to the
/// long tail of small ones), and the seed picks one of the few groups
/// ranked nearest that center. Every seed thus asks a mix of the same cost
/// profile while the groups themselves vary. Directions alternate across
/// bands and shapes.
std::vector<QuestionSpec> MakeQuestionSpecs(const cape::Table& table, uint64_t seed);

cape::UserQuestion BuildUserQuestion(const cape::TablePtr& table,
                                     const QuestionSpec& spec);

/// "EXPLAIN WHY count(*) IS LOW FOR a = 'x', b = 3 FROM <table>".
std::string ExplainStatement(const QuestionSpec& spec, const std::string& table);

// ---- Per-layer probes -----------------------------------------------------

/// Replays the workload's own relational shapes on its own table inside
/// spans: GroupByAggregate and SortTable over every distinct F ∪ V of the
/// mined set, and per question NORM's FilterGroupAggregate and
/// MakeUserQuestion's CountFilterMatches probe.
void ProbeRelational(const cape::Table& table, const cape::PatternSet& patterns,
                     const std::vector<cape::UserQuestion>& questions, Tracer* tracer);

/// Fills the per-layer metrics that are pure functions of recorded spans.
void LayerMetricsFromSpans(const Tracer& tracer, Report* report);

/// Miner counters of one from-scratch mine (pattern, stats and fd layers).
/// Query and fit times are summed over workers, so the unattributed share
/// is the summed work (wall time for one-thread miners) minus both.
void MiningLayerMetrics(const cape::MiningProfile& profile, int64_t locals,
                        Report* report);

/// Sums ExplainProfile counters over the questions a workload answered.
struct ExplainTally {
  int64_t questions = 0;
  int64_t relevant = 0;
  int64_t pairs = 0;
  int64_t pruned = 0;
  int64_t tuples = 0;
  int64_t candidates = 0;
  int64_t cpu_ns = 0;
  int64_t wall_ns = 0;

  void Add(const cape::ExplainProfile& p);
  /// explain.* counters plus the session's memoized table count.
  void Emit(int64_t session_tables, Report* report) const;
};

/// What timed closed-loop question passes observed.
struct AnswerLog {
  std::vector<double> latency_ms;  // ok answers, call to return
  std::vector<double> pass_rps;    // ok answers per second, one per pass
  ExplainTally tally;
  int64_t attempted = 0;
  int64_t failed = 0;  // not ok, or partial
};

/// One client asks every question once, in order: `ask(q)` is timed from
/// call to return inside a span named `span`. An answer that is not ok or
/// is partial counts as failed; `on_answer(q, result)`, when given, sees
/// each other answer after its clock stopped.
void TimedQuestionPass(size_t num_questions, const char* span,
                       const std::function<cape::Result<cape::ExplainResult>(size_t)>& ask,
                       const std::function<void(size_t, const cape::ExplainResult&)>& on_answer,
                       Tracer* tracer, AnswerLog* log);

// ---- Server load ----------------------------------------------------------

/// One request of an open-loop schedule.
struct ScheduledRequest {
  int64_t due_ns = 0;  // offset from the start of the phase
  std::string line;    // request line, header included
  int question = -1;   // index into the expected payloads
};

/// What a load phase observed. Latencies count from the intended send time
/// (open loop) or the send (closed loop) to the callback, ok answers only.
struct LoadResult {
  std::vector<double> latency_ms;
  std::vector<double> late_ms;  // generator lateness, open loop only
  int64_t sent = 0;
  int64_t ok = 0;
  int64_t not_ok = 0;           // any other outcome: counted as failed
  int64_t lost = 0;             // requests without exactly one outcome
  int64_t payload_mismatch = 0; // ok answers whose payload differs from expected
  std::vector<double> ok_per_s; // ok answers per second, one per phase pooled

  /// Pools another phase's samples and counts into this one.
  void Add(const LoadResult& other);
};

/// Sends `schedule` from one generator thread at the intended times and
/// waits for every answer. `expected[q]` is the payload an ok answer to
/// question q must carry.
LoadResult RunOpenLoop(cape::server::ServerHarness* harness,
                       const std::vector<ScheduledRequest>& schedule,
                       const std::vector<std::string>& expected, Tracer* tracer);

/// Keeps `window` requests outstanding for `seconds`, cycling through
/// `statements` (request i asks question i mod statements.size()), then
/// waits for the stragglers.
LoadResult RunClosedLoop(cape::server::ServerHarness* harness,
                         const std::vector<std::string>& statements, int window,
                         double seconds, const std::vector<std::string>& expected,
                         Tracer* tracer);

// ---- Workloads ------------------------------------------------------------

void RunAnalyst(const Options& options, Tracer* tracer, Report* report);
void RunServe(const Options& options, Tracer* tracer, Report* report);
void RunOutOfCore(const Options& options, Tracer* tracer, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
