// serve: the in-process serving stack (admission -> queue -> pooled
// ExplainSession -> SQL parse/bind -> JSON) over the pattern set ROADMAP
// item 3 names, under an open-loop generator and then a saturating closed
// loop. The warm session memo makes requests heavy on pair scoring and
// light on kernels.

#include <cstdio>
#include <numeric>

#include "bench.h"
#include "core/engine.h"
#include "datagen/crime.h"
#include "server/protocol.h"
#include "server/server.h"
#include "sql/executor.h"
#include "sql/parser.h"

namespace perfbench {

using namespace cape;          // NOLINT
using namespace cape::server;  // NOLINT

namespace {

// MakeQuestionSpecs lists the questions shape by shape, each from its
// largest, slowest groups down. Sent in that order, a shape's first bands
// would arrive back to back and occupy every worker at once, and the tail
// would measure that burst. Taking the list at a stride coprime with its
// length keeps every question and spreads the heavy ones apart.
constexpr size_t kQuestionStride = 77;

/// Seeded questions over `table`, as structs and as EXPLAIN statements, in
/// the order the load generators send them.
struct QuestionSet {
  std::vector<UserQuestion> questions;
  std::vector<std::string> statements;
};

QuestionSet MakeQuestions(const TablePtr& table, uint64_t seed) {
  const std::vector<QuestionSpec> specs = MakeQuestionSpecs(*table, seed);
  if (std::gcd(kQuestionStride, specs.size()) != 1) {
    throw Fatal("serve: question stride shares a factor with the question count");
  }
  QuestionSet set;
  for (size_t i = 0; i < specs.size(); ++i) {
    const QuestionSpec& spec = specs[i * kQuestionStride % specs.size()];
    set.questions.push_back(BuildUserQuestion(table, spec));
    set.statements.push_back(ExplainStatement(spec, "crime"));
  }
  return set;
}

/// The payload a correct server sends for each question: the in-process
/// session answer at the scheduler's top-k.
std::vector<std::string> ExpectedPayloads(const Engine& engine, const QuestionSet& set,
                                          int top_k) {
  ExplainSession session = Must(engine.MakeExplainSession(), "MakeExplainSession");
  session.config().num_threads = 1;
  session.config().top_k = top_k;
  std::vector<std::string> out;
  for (const UserQuestion& q : set.questions) {
    ExplainResult r = Must(session.Explain(q), "ExplainSession::Explain");
    out.push_back(ExplanationsToJson(r.explanations, *engine.table()->schema()));
  }
  return out;
}

/// nproc-1 workers, leaving a core to the generator, and a scheduler under
/// which degrade, shed and retry-after cannot fire at the benchmark's load,
/// so any such outcome is a failure.
ServerOptions HarnessOptions() {
  ServerOptions options;
  options.table_name = "crime";
  options.num_workers = std::max(1, HardwareThreads() - 1);
  options.scheduler.admission.max_in_system = 1 << 16;
  options.scheduler.default_deadline_ms = 60000;
  options.scheduler.max_deadline_ms = 60000;
  options.scheduler.degrade_queue_depth = 0;
  return options;
}

/// Traced-run probes of a served engine: replays each request line's
/// protocol parse, SQL parse and bind, and render in spans; answers every
/// question twice on one in-process session (cold, then warm) for the
/// explain counters; then the relational probes.
void ProbeServedLayers(const Engine& engine, const QuestionSet& set, Tracer* tracer,
                       Report* report) {
  const Catalog catalog = MakeServingCatalog(engine, "crime");
  ExplainSession session = Must(engine.MakeExplainSession(), "MakeExplainSession");
  session.config().num_threads = 1;
  for (size_t i = 0; i < set.statements.size(); ++i) {
    const std::string line = "[id=" + std::to_string(i + 1) + "] " + set.statements[i];
    {
      ScopedSpan span(tracer, "server.ParseRequestLine");
      Must(ParseRequestLine(line), "ParseRequestLine");
    }
    Statement statement;
    {
      ScopedSpan span(tracer, "sql.ParseStatement");
      statement = Must(ParseStatement(set.statements[i]), "ParseStatement");
    }
    UserQuestion question;
    {
      ScopedSpan span(tracer, "sql.BuildQuestion");
      question = Must(BuildQuestion(catalog, std::get<ExplainWhyCommand>(statement)),
                      "BuildQuestion");
    }
    ExplainResult result;
    {
      ScopedSpan span(tracer, "explain.ExplainSession::Explain (cold)");
      result = Must(session.Explain(question), "ExplainSession::Explain");
    }
    ScopedSpan span(tracer, "server.RenderResponse");
    Response response;
    response.id = static_cast<int64_t>(i + 1);
    response.outcome = Outcome::kOk;
    response.payload_json =
        ExplanationsToJson(result.explanations, *engine.table()->schema());
    RenderResponse(response);
  }
  ExplainTally tally;
  for (const UserQuestion& q : set.questions) {
    ScopedSpan span(tracer, "explain.ExplainSession::Explain");
    tally.Add(Must(session.Explain(q), "ExplainSession::Explain").profile);
  }
  tally.Emit(static_cast<int64_t>(session.num_cached_agg_tables()), report);
  ProbeRelational(*engine.table(), engine.patterns(), set.questions, tracer);
}

void ReportLoad(const char* phase, const LoadResult& r) {
  std::fprintf(stderr,
               "%s: sent %lld ok %lld not-ok %lld lost %lld mismatched %lld; "
               "%zu latency samples\n",
               phase, static_cast<long long>(r.sent), static_cast<long long>(r.ok),
               static_cast<long long>(r.not_ok), static_cast<long long>(r.lost),
               static_cast<long long>(r.payload_mismatch), r.latency_ms.size());
}

void CheckLoad(const char* workload, const LoadResult& r, Report* report) {
  report->Operations(r.sent, r.not_ok);
  report->Check(r.lost == 0,
                std::string(workload) + ": a request did not get exactly one outcome");
  report->Check(r.payload_mismatch == 0,
                std::string(workload) + ": an ok payload differs from the session's");
}

void CheckSchedulerAccounting(const char* workload, ServerHarness* harness,
                              Report* report) {
  const RequestScheduler::Stats s = harness->scheduler().stats();
  report->Check(s.submitted == s.ok + s.degraded + s.truncated + s.shed + s.overloaded +
                                   s.retry_after + s.errors,
                std::string(workload) + ": scheduler outcomes do not sum to submissions");
  report->Check(s.degraded + s.truncated + s.shed + s.overloaded + s.retry_after +
                        s.errors ==
                    0,
                std::string(workload) + ": degrade, shed, retry-after or error fired");
}

}  // namespace

// ---- serve ------------------------------------------------------------------

namespace {
constexpr int64_t kServeRows = 30000;
constexpr int kServeMinesPerRound = 2;  // a 4-thread mine varies +-10% within a run
// About a sixth of capacity. At a third, a 10% slowdown of the shared
// machine raised the median by 40% through queueing behind the heavy
// questions.
constexpr double kServeRps = 100.0;
constexpr double kServeOpenSliceS = 3.0;
// Saturated throughput moves by up to 30% from one second to the next on a
// shared machine; a slice averages three of them, and the median of a run's
// slices drops a slice a stall hit.
constexpr double kServeClosedSliceS = 3.0;
constexpr double kServeWarmS = 2.0;
constexpr int kServeWindow = 8;
}  // namespace

void RunServe(const Options& options, Tracer* tracer, Report* report) {
  const int threads = HardwareThreads();
  CrimeOptions data;
  data.num_rows = kServeRows;
  data.num_attrs = 7;
  data.seed = kDataSeed;

  auto setup = [&] {
    TablePtr generated;
    {
      ScopedSpan span(tracer, "datagen.GenerateCrime");
      generated = Must(GenerateCrime(data), "GenerateCrime");
    }
    return Must(Engine::FromTable(generated), "Engine::FromTable");
  };
  Engine engine = setup();
  const TablePtr table = engine.table();
  engine.mining_config() = Fig6Thresholds();
  engine.mining_config().num_threads = threads;
  const QuestionSet set = MakeQuestions(table, options.seed);

  auto miner = Must(MakeMinerByName("ARP-MINE"), "MakeMinerByName");
  MiningResult mined;
  {
    // Untimed: the first multi-threaded burst after idle runs slow.
    ScopedSpan span(tracer, "pattern.Mine (warm-up)");
    mined = Must(miner->Mine(*table, engine.mining_config()), "ARP-MINE");
  }
  engine.SetPatterns(std::move(mined.patterns));
  const int64_t locals = engine.patterns().NumLocalPatterns();

  const ServerOptions server_options = HarnessOptions();
  const std::vector<std::string> expected =
      ExpectedPayloads(engine, set, server_options.scheduler.top_k);
  ServerHarness harness(&engine, server_options);
  // Untimed: a saturating phase long enough for every pooled session to
  // memoize the tables of every question. Sessions are reused last-in
  // first-out, so sequential warm-up calls would warm only one of them.
  Tracer untraced(false);
  const LoadResult warm = RunClosedLoop(&harness, set.statements, kServeWindow,
                                        kServeWarmS, expected, &untraced);

  // Rounds until the run's time is spent: two timed mines while the server
  // idles, an open-loop slice at a fixed rate cycling through the
  // questions, then a saturating closed-loop slice. Interleaving keeps a
  // transient slowdown of the machine to a few samples of each kind.
  std::vector<ScheduledRequest> schedule;
  const auto n_open = static_cast<size_t>(kServeOpenSliceS * kServeRps);
  for (size_t i = 0; i < n_open; ++i) {
    ScheduledRequest r;
    r.due_ns = static_cast<int64_t>(static_cast<double>(i) * 1e9 / kServeRps);
    r.question = static_cast<int>(i % set.statements.size());
    r.line = "[id=" + std::to_string(i + 1) + "] " +
             set.statements[static_cast<size_t>(r.question)];
    schedule.push_back(std::move(r));
  }
  std::vector<double> setup_s;
  std::vector<double> mine_s;
  MiningProfile profile;
  LoadResult open;
  LoadResult saturated;
  int64_t bad_mines = 0;
  const int64_t end = NowNs() + static_cast<int64_t>(options.seconds * 1e9);
  for (int round = 0; NowNs() < end || round < kMinRounds; ++round) {
    TimeRoundSetups([&] { setup(); }, &setup_s);
    for (int m = 0; m < kServeMinesPerRound; ++m) {
      mined = MiningResult();
      const int64_t m0 = NowNs();
      {
        ScopedSpan span(tracer, "pattern.Mine");
        mined = Must(miner->Mine(*table, engine.mining_config()), "ARP-MINE");
      }
      mine_s.push_back(static_cast<double>(NowNs() - m0) * 1e-9);
      profile = mined.profile;
      if (mined.truncated || mined.patterns.size() != engine.patterns().size()) {
        ++bad_mines;
      }
    }
    open.Add(RunOpenLoop(&harness, schedule, expected, tracer));
    saturated.Add(RunClosedLoop(&harness, set.statements, kServeWindow,
                                kServeClosedSliceS, expected, tracer));
  }
  ReportLoad("serve open loop", open);
  ReportLoad("serve closed loop", saturated);
  PrintSeries("serve setups (s)", setup_s);
  PrintSeries("serve mines (s)", mine_s);
  PrintSeries("serve closed-loop slices (1/s)", saturated.ok_per_s);
  const double peak_rss = PeakRssMb();
  const RequestScheduler::Stats sched = harness.scheduler().stats();
  harness.Shutdown();

  CheckLoad("serve", warm, report);
  CheckLoad("serve", open, report);
  CheckLoad("serve", saturated, report);
  CheckSchedulerAccounting("serve", &harness, report);
  report->Check(!open.latency_ms.empty() && saturated.ok > 0, "serve: no answers");
  report->Operations(static_cast<int64_t>(mine_s.size()), bad_mines);

  report->EndToEnd("setup_s", Median(setup_s), "s");
  report->EndToEnd("peak_rss_mb", peak_rss, "MB");
  report->EndToEnd("mine_s", Median(mine_s), "s");
  report->EndToEnd("explain_p50_ms", Median(open.latency_ms), "ms");
  report->EndToEnd("explain_tail_ms", Tail(open.latency_ms), "ms");
  // Median over the closed-loop slices: a stall of the shared machine during
  // one slice moved the pooled rate by up to 30%.
  report->EndToEnd("capacity_rps", Median(saturated.ok_per_s), "1/s");
  std::fprintf(stderr,
               "serve: %zu patterns, %lld locals; generator late p50 %.3f ms "
               "tail %.3f ms\n",
               engine.patterns().size(), static_cast<long long>(locals),
               Median(open.late_ms), Tail(open.late_ms));

  if (tracer->enabled()) {
    MiningLayerMetrics(profile, locals, report);
    report->Layer("server.peak_queued", static_cast<double>(sched.peak_queued), "count");
    report->Layer("server.generator_late_ms", Tail(open.late_ms), "ms");
    report->Layer("explain.samples", static_cast<double>(open.latency_ms.size()),
                  "count");
    ProbeServedLayers(engine, set, tracer, report);
  }
}

}  // namespace perfbench
