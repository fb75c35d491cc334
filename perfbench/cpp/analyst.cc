// analyst: one person exploring a CSV extract. The relation is generated,
// written to CSV and loaded with Engine::FromCsvFile; ARP-MINE with the FD
// optimizations mines it at every hardware thread; then one closed-loop
// client asks seeded questions through one-shot Engine::Explain
// (EXPL-GEN-OPT at every hardware thread). No server, pager or maintainer
// runs, so kernels, miner phases, stats fits, FD skips and parallel
// explain do all the work.

#include <cstdio>

#include "bench.h"
#include "core/engine.h"
#include "datagen/crime.h"
#include "relational/csv.h"
#include "server/protocol.h"

namespace perfbench {

using namespace cape;  // NOLINT

namespace {

constexpr int64_t kRows = 30000;
constexpr int kAttrs = 7;
constexpr int kMinesPerRound = 2;  // a 4-thread mine varies +-10% within a run

}  // namespace

void RunAnalyst(const Options& options, Tracer* tracer, Report* report) {
  const int threads = HardwareThreads();
  CrimeOptions data;
  data.num_rows = kRows;
  data.num_attrs = kAttrs;
  data.seed = kDataSeed;
  const std::string csv = options.work_dir + "/analyst.csv";

  // Setup: generate, write CSV, load.
  auto setup = [&] {
    TablePtr generated;
    {
      ScopedSpan span(tracer, "datagen.GenerateCrime");
      generated = Must(GenerateCrime(data), "GenerateCrime");
    }
    {
      ScopedSpan span(tracer, "relational.WriteCsvFile");
      MustOk(WriteCsvFile(*generated, csv), "WriteCsvFile");
    }
    ScopedSpan span(tracer, "core.Engine::FromCsvFile");
    return Must(Engine::FromCsvFile(csv), "Engine::FromCsvFile");
  };
  Engine engine = setup();
  const TablePtr table = engine.table();
  engine.mining_config() = Fig6Thresholds();
  engine.mining_config().use_fd_optimizations = true;
  engine.set_num_threads(threads);

  std::vector<UserQuestion> questions;
  for (const QuestionSpec& spec : MakeQuestionSpecs(*table, options.seed)) {
    questions.push_back(BuildUserQuestion(table, spec));
  }

  // Rounds until the run's time is spent: two timed mines through the
  // miner's public entry point, then one closed-loop pass over every
  // question through one-shot Engine::Explain. Interleaving keeps a
  // transient slowdown of the machine to a few samples of each kind, and
  // whole passes keep the question mix identical in every round. One
  // untimed mine first: the first multi-threaded burst after idle runs slow.
  auto miner = Must(MakeMinerByName("ARP-MINE"), "MakeMinerByName");
  MiningResult mined;
  {
    ScopedSpan span(tracer, "pattern.Mine (warm-up)");
    mined = Must(miner->Mine(*table, engine.mining_config()), "ARP-MINE");
  }
  engine.SetPatterns(std::move(mined.patterns));
  const int64_t locals = engine.patterns().NumLocalPatterns();

  std::vector<double> mine_s;
  int64_t bad_mines = 0;
  MiningProfile profile;
  AnswerLog answers;
  std::vector<std::string> first_answer(questions.size());
  const Schema& schema = *table->schema();
  const int64_t end = NowNs() + static_cast<int64_t>(options.seconds * 1e9);
  std::vector<double> setup_s;
  for (int round = 0; NowNs() < end || round < kMinRounds; ++round) {
    TimeRoundSetups([&] { setup(); }, &setup_s);
    for (int m = 0; m < kMinesPerRound; ++m) {
      mined = MiningResult();
      const int64_t m0 = NowNs();
      {
        ScopedSpan span(tracer, "pattern.Mine");
        mined = Must(miner->Mine(*table, engine.mining_config()), "ARP-MINE");
      }
      mine_s.push_back(static_cast<double>(NowNs() - m0) * 1e-9);
      if (mined.truncated || mined.patterns.size() != engine.patterns().size()) {
        ++bad_mines;
      }
      profile = mined.profile;
    }
    TimedQuestionPass(
        questions.size(), "core.Engine::Explain",
        [&](size_t q) { return engine.Explain(questions[q]); },
        [&](size_t q, const ExplainResult& result) {
          if (first_answer[q].empty()) {
            first_answer[q] = server::ExplanationsToJson(result.explanations, schema);
          }
        },
        tracer, &answers);
  }
  const double peak_rss = PeakRssMb();
  std::remove(csv.c_str());

  // Checks: every one-shot top-k equals the ExplainSession answer.
  ExplainSession session = Must(engine.MakeExplainSession(), "MakeExplainSession");
  session.config().num_threads = 1;
  int mismatches = 0;
  for (int pass = 0; pass < (tracer->enabled() ? 2 : 1); ++pass) {
    for (size_t q = 0; q < questions.size(); ++q) {
      if (first_answer[q].empty()) continue;
      Result<ExplainResult> result = [&] {
        // The first pass fills the session memo; the second times it warm.
        ScopedSpan span(tracer, pass == 0 ? "explain.ExplainSession::Explain (cold)"
                                          : "explain.ExplainSession::Explain");
        return session.Explain(questions[q]);
      }();
      if (pass > 0) continue;
      if (!result.ok() ||
          server::ExplanationsToJson(result->explanations, schema) != first_answer[q]) {
        ++mismatches;
      }
    }
  }
  report->Check(mismatches == 0,
                "analyst: one-shot answer differs from ExplainSession answer");
  report->Check(!answers.latency_ms.empty(), "analyst: no question answered");
  report->Operations(static_cast<int64_t>(mine_s.size()), bad_mines);
  report->Operations(answers.attempted, answers.failed);

  report->EndToEnd("setup_s", Median(setup_s), "s");
  report->EndToEnd("peak_rss_mb", peak_rss, "MB");
  report->EndToEnd("mine_s", Median(mine_s), "s");
  report->EndToEnd("explain_p50_ms", Median(answers.latency_ms), "ms");
  report->EndToEnd("explain_tail_ms", Tail(answers.latency_ms), "ms");
  report->EndToEnd("capacity_rps", Median(answers.pass_rps), "1/s");
  std::fprintf(stderr, "analyst: %zu patterns, %lld locals; %zu answers\n",
               engine.patterns().size(), static_cast<long long>(locals),
               answers.latency_ms.size());
  PrintSeries("analyst setups (s)", setup_s);
  PrintSeries("analyst mines (s)", mine_s);

  if (tracer->enabled()) {
    MiningLayerMetrics(profile, locals, report);
    answers.tally.Emit(static_cast<int64_t>(session.num_cached_agg_tables()), report);
    report->Layer("explain.samples", static_cast<double>(answers.latency_ms.size()),
                  "count");
    ProbeRelational(*table, engine.patterns(), questions, tracer);
  }
}

}  // namespace perfbench
