// outofcore: the only workload larger than the program's own cache. The
// relation is streamed to a columnar heap file and opened non-resident
// with a page budget of a tenth of the file; NAIVE mines it, then one
// closed-loop client asks questions through an ExplainSession on the paged
// table. The pager and the paged kernels dominate.
//
// Bytes come from /proc/self/io, outside the pager's own counters; the run
// checks that the two agree.

#include <cstdio>
#include <filesystem>
#include <optional>

#include "bench.h"
#include "core/engine.h"
#include "datagen/crime.h"
#include "pattern/pattern_io.h"
#include "server/protocol.h"
#include "storage/paged_table.h"

namespace perfbench {

using namespace cape;  // NOLINT

namespace {

// 40 pages of the smallest size the writer accepts: a budget of a tenth of
// the file holds 4 of them, so the scan's read-ahead and CLOCK replacement
// both run.
constexpr int64_t kRowsPerPage = 2048;
constexpr int64_t kRows = 40 * kRowsPerPage;
constexpr int64_t kMinFrames = 4;

/// Adds one phase's IO and pager deltas (`before` to `after`) to the totals.
void Accumulate(IoDelta* io, const IoDelta& delta, PageSourceStats* pager,
                const PageSourceStats& before, const PageSourceStats& after) {
  io->bytes += delta.bytes;
  io->calls += delta.calls;
  pager->hits += after.hits - before.hits;
  pager->misses += after.misses - before.misses;
  pager->evictions += after.evictions - before.evictions;
  pager->bytes_read += after.bytes_read - before.bytes_read;
}

}  // namespace

void RunOutOfCore(const Options& options, Tracer* tracer, Report* report) {
  CrimeOptions data;
  data.num_rows = kRows;
  data.num_attrs = 7;
  data.seed = kDataSeed;
  const std::string path = options.work_dir + "/outofcore.cape";

  // Throwaway set-ups write their own file: the run's table reads `path`.
  const std::string setup_path = options.work_dir + "/outofcore-setup.cape";
  auto setup_at = [&](const std::string& file) {
    {
      ScopedSpan span(tracer, "datagen.GenerateCrimeToHeapFile");
      MustOk(GenerateCrimeToHeapFile(data, file, kRowsPerPage), "GenerateCrimeToHeapFile");
    }
    const auto bytes = static_cast<int64_t>(std::filesystem::file_size(file));
    TablePtr paged;
    {
      ScopedSpan span(tracer, "storage.OpenPagedTable");
      paged = Must(OpenPagedTable(file, bytes / 10), "OpenPagedTable");
    }
    return Must(Engine::FromTable(paged), "Engine::FromTable");
  };
  Engine engine = setup_at(path);
  const auto file_bytes = static_cast<int64_t>(std::filesystem::file_size(path));
  const TablePtr table = engine.table();
  PageSource& pages = *table->page_source();
  auto* paged_table = dynamic_cast<PagedTable*>(&pages);
  if (paged_table == nullptr) throw Fatal("outofcore: table is not paged");
  const int64_t page_bytes = paged_table->heap_file()->page_bytes();
  std::vector<UserQuestion> questions;
  for (const QuestionSpec& spec : MakeQuestionSpecs(*table, options.seed)) {
    questions.push_back(BuildUserQuestion(table, spec));
  }

  // Rounds until the run's time is spent: one timed NAIVE mine (one
  // thread, every fragment query a scan through the pager), then one
  // closed-loop pass over every question through one ExplainSession on the
  // paged table. IO is measured around each phase separately.
  auto miner = Must(MakeMinerByName("NAIVE"), "MakeMinerByName");
  MiningConfig config = Fig6Thresholds();
  config.max_pattern_size = 2;
  std::optional<ExplainSession> session;
  std::vector<double> setup_s;
  std::vector<double> mine_s;
  int64_t bad_mines = 0;
  MiningProfile profile;
  AnswerLog answers;
  IoDelta mine_io;
  IoDelta explain_io;
  PageSourceStats mine_pager;
  PageSourceStats explain_pager;
  const int64_t end = NowNs() + static_cast<int64_t>(options.seconds * 1e9);
  for (int round = 0; NowNs() < end || round < kMinRounds; ++round) {
    TimeRoundSetups([&] { setup_at(setup_path); }, &setup_s);
    PageSourceStats p0 = pages.stats();
    IoSnapshot i0 = ReadIo();
    const int64_t m0 = NowNs();
    MiningResult mined;
    {
      ScopedSpan span(tracer, "pattern.Mine");
      mined = Must(miner->Mine(*table, config), "NAIVE");
    }
    mine_s.push_back(static_cast<double>(NowNs() - m0) * 1e-9);
    Accumulate(&mine_io, Diff(i0, ReadIo()), &mine_pager, p0, pages.stats());
    profile = mined.profile;
    if (!session) {
      engine.SetPatterns(std::move(mined.patterns));
      session.emplace(Must(engine.MakeExplainSession(), "MakeExplainSession"));
      session->config().num_threads = 1;
      for (const UserQuestion& q : questions) {
        // Untimed: fills the session memo before the first timed pass.
        Must(session->Explain(q), "ExplainSession::Explain");
      }
    } else if (mined.truncated || mined.patterns.size() != engine.patterns().size()) {
      ++bad_mines;
    }

    p0 = pages.stats();
    i0 = ReadIo();
    TimedQuestionPass(
        questions.size(), "explain.ExplainSession::Explain",
        [&](size_t q) { return session->Explain(questions[q]); }, nullptr, tracer, &answers);
    Accumulate(&explain_io, Diff(i0, ReadIo()), &explain_pager, p0, pages.stats());
  }
  const PageSourceStats pager_end = pages.stats();
  const double peak_rss = PeakRssMb();
  const int64_t locals = engine.patterns().NumLocalPatterns();
  const auto mines = static_cast<double>(mine_s.size());

  // Checks: the run paged with read-ahead (prefetched pages are read
  // without counting a miss), /proc/self/io saw exactly the pager's bytes,
  // no pin leaked, and the pattern set equals NAIVE over the same rows in
  // memory.
  report->Check(paged_table->buffer_manager().max_frames() >= kMinFrames,
                "outofcore: the budget holds fewer than " + std::to_string(kMinFrames) +
                    " pages");
  report->Check(mine_pager.misses > 0 && mine_pager.evictions > 0,
                "outofcore: the mine did not page");
  report->Check(mine_pager.bytes_read > mine_pager.misses * page_bytes,
                "outofcore: the mine read no page ahead");
  report->Check(pager_end.bytes_pinned == 0, "outofcore: pages still pinned");
  report->Check(mine_io.bytes == mine_pager.bytes_read &&
                    explain_io.bytes == explain_pager.bytes_read,
                "outofcore: /proc/self/io read " +
                    std::to_string(mine_io.bytes + explain_io.bytes) +
                    " bytes, the pager " +
                    std::to_string(mine_pager.bytes_read + explain_pager.bytes_read));
  {
    TablePtr resident = Must(GenerateCrime(data), "GenerateCrime");
    MiningResult in_memory =
        Must(MakeNaiveMiner()->Mine(*resident, config), "in-memory NAIVE");
    report->Check(SerializePatternSet(in_memory.patterns, *resident->schema()) ==
                      SerializePatternSet(engine.patterns(), *table->schema()),
                  "outofcore: paged patterns differ from the in-memory mine");
  }
  report->Check(!answers.latency_ms.empty(), "outofcore: no question answered");
  report->Operations(static_cast<int64_t>(mine_s.size()), bad_mines);
  report->Operations(answers.attempted, answers.failed);

  report->EndToEnd("setup_s", Median(setup_s), "s");
  report->EndToEnd("peak_rss_mb", peak_rss, "MB");
  report->EndToEnd("mine_s", Median(mine_s), "s");
  report->EndToEnd("explain_p50_ms", Median(answers.latency_ms), "ms");
  report->EndToEnd("explain_tail_ms", Tail(answers.latency_ms), "ms");
  report->EndToEnd("capacity_rps", Median(answers.pass_rps), "1/s");
  std::fprintf(stderr,
               "outofcore: %zu patterns; file %.2f MB, %lld pages, %lld frames; mine "
               "read %.1f MB in %lld calls over %.0f mines; explain read %.1f MB; "
               "%zu answers\n",
               engine.patterns().size(), static_cast<double>(file_bytes) / 1e6,
               static_cast<long long>(pages.num_pages()),
               static_cast<long long>(paged_table->buffer_manager().max_frames()),
               static_cast<double>(mine_io.bytes) / 1e6,
               static_cast<long long>(mine_io.calls), mines,
               static_cast<double>(explain_io.bytes) / 1e6, answers.latency_ms.size());
  PrintSeries("outofcore setups (s)", setup_s);
  PrintSeries("outofcore mines (s)", mine_s);

  if (tracer->enabled()) {
    MiningLayerMetrics(profile, locals, report);
    answers.tally.Emit(static_cast<int64_t>(session->num_cached_agg_tables()), report);
    report->Layer("explain.samples", static_cast<double>(answers.latency_ms.size()),
                  "count");
    // Per mine and per pass over the questions (one of each per round), so
    // each repeats exactly.
    const double mine_mb = static_cast<double>(mine_io.bytes) / 1e6 / mines;
    const double pass_mb = static_cast<double>(explain_io.bytes) / 1e6 / mines;
    report->Layer("storage.read_mb", mine_mb + pass_mb, "MB");
    report->Layer("storage.mine_read_mb", mine_mb, "MB");
    report->Layer("storage.explain_read_mb", pass_mb, "MB");
    report->Layer("storage.passes",
                  static_cast<double>(mine_io.bytes) / mines /
                      static_cast<double>(file_bytes),
                  "count");
    report->Layer("storage.pins",
                  static_cast<double>(mine_pager.hits + mine_pager.misses) / mines,
                  "count");
    report->Layer("storage.evictions", static_cast<double>(mine_pager.evictions) / mines,
                  "count");
    report->Layer("storage.read_calls", static_cast<double>(mine_io.calls) / mines,
                  "count");
    report->Layer("storage.read_mb_per_pattern",
                  engine.patterns().empty()
                      ? 0.0
                      : mine_mb / static_cast<double>(engine.patterns().size()),
                  "MB");
    {
      // One sequential pass over every page through the public pin API.
      ScopedSpan span(tracer, "storage.PageSource::Pin");
      for (int64_t p = 0; p < pages.num_pages(); ++p) {
        PageRef ref = Must(pages.Pin(p), "PageSource::Pin");
      }
    }
    ProbeRelational(*table, engine.patterns(), questions, tracer);
  }
  std::filesystem::remove(path);
  std::filesystem::remove(setup_path);
}

}  // namespace perfbench
