#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "common/failpoint.h"
#include "common/macros.h"
#include "core/engine.h"
#include "core/pattern_cache.h"
#include "datagen/dblp.h"
#include "pattern/mining.h"
#include "pattern/pattern_io.h"
#include "relational/catalog.h"
#include "relational/csv.h"
#include "relational/kernels.h"
#include "sql/executor.h"
#include "storage/heap_file.h"
#include "storage/paged_table.h"
#include "test_util.h"

namespace cape {
namespace {

// NOTE: this test must stay first in the file. CAPE_FAILPOINTS is parsed
// exactly once, at the process's first failpoint check; under ctest each
// test runs in its own process, and in a direct ./failpoint_test run
// declaration order keeps this test ahead of any other failpoint use.
TEST(FailpointTest, EnvVarArmsASite) {
  ::setenv("CAPE_FAILPOINTS", "csv.read_row=io", /*overwrite=*/1);
  auto result = ReadCsvString("a,b\n1,2\n");
  ::unsetenv("CAPE_FAILPOINTS");
  failpoint::DeactivateAll();

  if (result.ok()) {
    // Another test in this process already parsed the (then-unset) env var;
    // the once-only semantics make re-parsing impossible, so skip.
    GTEST_SKIP() << "CAPE_FAILPOINTS was already parsed by an earlier test";
  }
  EXPECT_TRUE(result.status().IsIOError());
  EXPECT_NE(result.status().message().find("CAPE_FAILPOINTS"), std::string::npos)
      << result.status().ToString();
}

TEST(FailpointTest, InactiveByDefaultAndSitesRegistered) {
  EXPECT_FALSE(failpoint::AnyActive());
  const std::vector<std::string> sites = failpoint::AllSites();
  EXPECT_GE(sites.size(), 15u);
  // A clean run is unaffected by the framework being compiled in.
  EXPECT_TRUE(ReadCsvString("a,b\n1,2\n").ok());
}

TEST(FailpointTest, UnknownSiteIsRejected) {
  EXPECT_TRUE(failpoint::Activate("no.such.site", StatusCode::kIOError, "x")
                  .IsInvalidArgument());
  failpoint::ScopedFailpoint fp("also.unknown");
  EXPECT_TRUE(fp.activation_status().IsInvalidArgument());
  EXPECT_FALSE(failpoint::AnyActive());
}

/// A SELECT over a small DBLP table: each Run() passes the `sql.execute`
/// site exactly once.
struct SqlProbe {
  Catalog catalog;
  SelectQuery select;

  Status Run() const { return ExecuteSelect(catalog, select).status(); }
};

SqlProbe MakeSqlProbe() {
  DblpOptions options;
  options.num_rows = 200;
  auto table = GenerateDblp(options);
  EXPECT_TRUE(table.ok());
  SqlProbe probe;
  EXPECT_TRUE(probe.catalog.RegisterTable("pub", *table).ok());
  auto select = ParseSelect("SELECT venue, count(*) FROM pub GROUP BY venue;");
  EXPECT_TRUE(select.ok());
  probe.select = std::move(select).ValueOrDie();
  return probe;
}

TEST(FailpointTest, SkipAndCountSemantics) {
  const SqlProbe probe = MakeSqlProbe();

  // First hit passes (skip=1), second fails (count=1), third passes again.
  ASSERT_TRUE(failpoint::Activate("sql.execute", StatusCode::kIOError, "boom",
                                  /*skip=*/1, /*count=*/1)
                  .ok());
  EXPECT_TRUE(probe.Run().ok());
  const Status second = probe.Run();
  EXPECT_TRUE(second.IsIOError());
  EXPECT_EQ(second.message(), "boom");
  EXPECT_TRUE(probe.Run().ok());
  failpoint::Deactivate("sql.execute");
}

TEST(FailpointTest, ActivateFromSpecSyntax) {
  // @skip from the env-style spec keeps exact trigger-after-N semantics.
  const SqlProbe probe = MakeSqlProbe();
  ASSERT_TRUE(failpoint::ActivateFromSpec("sql.execute=internal@1").ok());
  EXPECT_TRUE(probe.Run().ok());
  EXPECT_TRUE(probe.Run().IsInternal());
  failpoint::DeactivateAll();

  // Malformed or out-of-range specs are rejected, never armed.
  EXPECT_TRUE(failpoint::ActivateFromSpec("nonsense").IsInvalidArgument());
  EXPECT_TRUE(failpoint::ActivateFromSpec("no.such.site=io").IsInvalidArgument());
  EXPECT_TRUE(failpoint::ActivateFromSpec("sql.execute=io@-1").IsInvalidArgument());
  EXPECT_TRUE(failpoint::ActivateFromSpec("sql.execute=io%zero").IsInvalidArgument());
  EXPECT_TRUE(failpoint::ActivateFromSpec("sql.execute=io%0").IsInvalidArgument());
  EXPECT_TRUE(failpoint::ActivateFromSpec("sql.execute=io%1.5").IsInvalidArgument());
  EXPECT_FALSE(failpoint::AnyActive());
}

TEST(FailpointTest, ProbabilisticFiringIsDeterministic) {
  const SqlProbe probe = MakeSqlProbe();

  // p = 0.4 over 40 hits: some hits fire, some pass, and because the per-site
  // stream is reset by each Activate, the firing pattern is reproducible.
  auto run = [&] {
    EXPECT_TRUE(failpoint::Activate("sql.execute", StatusCode::kIOError, "chaos",
                                    /*skip=*/0, /*count=*/-1, /*probability=*/0.4)
                    .ok());
    std::string pattern;
    for (int i = 0; i < 40; ++i) pattern += probe.Run().ok() ? '.' : 'X';
    failpoint::Deactivate("sql.execute");
    return pattern;
  };
  const std::string first = run();
  const std::string second = run();
  EXPECT_EQ(first, second);
  const size_t fired = static_cast<size_t>(std::count(first.begin(), first.end(), 'X'));
  EXPECT_GT(fired, 0u) << first;
  EXPECT_LT(fired, 40u) << first;
}

TEST(FailpointTest, ProbabilisticLosingDrawsDoNotConsumeCount) {
  const SqlProbe probe = MakeSqlProbe();

  // count=2 at p=0.4: exactly two of the eligible hits fire, regardless of
  // how many losing draws pass through in between.
  ASSERT_TRUE(failpoint::Activate("sql.execute", StatusCode::kIOError, "chaos",
                                  /*skip=*/0, /*count=*/2, /*probability=*/0.4)
                  .ok());
  int fired = 0;
  for (int i = 0; i < 60; ++i) {
    if (!probe.Run().ok()) ++fired;
  }
  failpoint::Deactivate("sql.execute");
  EXPECT_EQ(fired, 2);
}

// ---------------------------------------------------------------------------
// Every registered site, forced in turn, converts the injected fault into a
// clean Status from its pipeline stage — no crash, no partial mutation.
// Hard sites propagate the fault as an error Status; degrade sites absorb it
// (the stage still succeeds, falling back to cold behavior).

MiningConfig SmallMiningConfig() {
  MiningConfig config;
  config.max_pattern_size = 3;
  config.local_gof_threshold = 0.2;
  config.local_support_threshold = 3;
  config.global_confidence_threshold = 0.3;
  config.global_support_threshold = 10;
  config.agg_functions = {AggFunc::kCount};
  config.excluded_attrs = {"pubid"};
  return config;
}

struct PipelineFixture {
  TablePtr table;
  Engine engine;
  UserQuestion question;
  Catalog catalog;
  SelectQuery select;
  std::string csv_path;
  std::string patterns_path;
};

PipelineFixture MakeFixture() {
  DblpOptions options;
  options.num_rows = 6000;
  auto table = GenerateDblp(options);
  EXPECT_TRUE(table.ok());

  auto engine = Engine::FromTable(*table);
  EXPECT_TRUE(engine.ok());
  Engine e = std::move(engine).ValueOrDie();
  e.mining_config() = SmallMiningConfig();
  EXPECT_TRUE(e.MinePatterns("ARP-MINE").ok());
  EXPECT_GT(e.patterns().size(), 0u);

  auto question = e.MakeQuestion({"author", "venue", "year"},
                                 {Value::String("AX"), Value::String("SIGKDD"),
                                  Value::Int64(2007)},
                                 AggFunc::kCount, "*", Direction::kLow);
  EXPECT_TRUE(question.ok());

  Catalog catalog;
  EXPECT_TRUE(catalog.RegisterTable("pub", *table).ok());
  auto select = ParseSelect("SELECT venue, count(*) FROM pub GROUP BY venue;");
  EXPECT_TRUE(select.ok());

  const std::string csv_path = TestTempPath("failpoint.csv");
  {
    std::ofstream out(csv_path);
    out << "a,b\n1,x\n2,y\n";
  }
  const std::string patterns_path = TestTempPath("failpoint.patterns");
  EXPECT_TRUE(e.SavePatterns(patterns_path).ok());

  return PipelineFixture{*table,
                         std::move(e),
                         std::move(question).ValueOrDie(),
                         std::move(catalog),
                         std::move(select).ValueOrDie(),
                         csv_path,
                         patterns_path};
}

/// Runs the pipeline stage that contains `site` and returns its Status.
Status DriveSite(const std::string& site, PipelineFixture& fx) {
  if (site == "csv.open") return ReadCsvFile(fx.csv_path).status();
  if (site == "csv.read_row") return ReadCsvString("a,b\n1,2\n3,4\n").status();
  if (site == "mining.group" || site == "mining.sort") {
    return MakeArpMiner()->Mine(*fx.table, SmallMiningConfig()).status();
  }
  if (site == "mining.cube.group") {
    return MakeCubeMiner()->Mine(*fx.table, SmallMiningConfig()).status();
  }
  if (site == "explain.norm" || site == "explain.refine") {
    return fx.engine.Explain(fx.question).status();
  }
  if (site == "sql.execute") return ExecuteSelect(fx.catalog, fx.select).status();
  if (site == "pattern_io.save") {
    return fx.engine.SavePatterns(TestTempPath("failpoint_out.patterns"));
  }
  if (site == "pattern_io.load") return fx.engine.LoadPatterns(fx.patterns_path);
  if (site == "engine.cache_admit") {
    PatternCache cache(/*byte_budget=*/1ull << 26);
    fx.engine.set_pattern_cache(&cache);
    Status st = fx.engine.MinePatterns("ARP-MINE");
    fx.engine.set_pattern_cache(nullptr);
    return st;
  }
  if (site == "pattern_cache.save_entry") {
    PatternCache cache(/*byte_budget=*/1ull << 26);
    cache.Insert(fx.table->Fingerprint(), /*mining_config_digest=*/1,
                 fx.engine.shared_patterns(), fx.table->schema());
    return cache.SaveToDirectory(TestTempPath("failpoint_cache_out"));
  }
  if (site == "pattern_cache.load_entry") {
    PatternCache cache(/*byte_budget=*/1ull << 26);
    cache.Insert(fx.table->Fingerprint(), /*mining_config_digest=*/1,
                 fx.engine.shared_patterns(), fx.table->schema());
    const std::string dir = TestTempPath("failpoint_cache_load");
    CAPE_RETURN_IF_ERROR(cache.SaveToDirectory(dir));
    PatternCache fresh(/*byte_budget=*/1ull << 26);
    return fresh.LoadFromDirectory(dir, *fx.table->schema(), fx.table->Fingerprint())
        .status();
  }
  if (site == "pattern_cache.lookup_race") {
    PatternCache cache(/*byte_budget=*/1ull << 26);
    cache.Insert(fx.table->Fingerprint(), /*mining_config_digest=*/1,
                 fx.engine.shared_patterns(), fx.table->schema());
    (void)cache.Lookup(fx.table->Fingerprint(), /*mining_config_digest=*/1);
    return Status::OK();
  }
  if (site == "incremental.merge") {
    // The fault fires at the maintainer's commit barrier; AppendAndRemine
    // must absorb it by re-mining from scratch — append durable, patterns
    // correct, no error surfaced.
    return fx.engine.AppendAndRemine({fx.table->GetRow(0)});
  }
  if (site == "storage.page_read") {
    const std::string path = TestTempPath("failpoint_heap.cape");
    CAPE_RETURN_IF_ERROR(WriteTableToHeapFile(*fx.table, path));
    // Open touches only the preamble/trailer; the page-read site fires on
    // the first scan, which must surface it as a clean Status.
    CAPE_ASSIGN_OR_RETURN(TablePtr paged, OpenPagedTable(path, /*budget_bytes=*/1 << 20));
    return CountFilterMatches(*paged, {}).status();
  }
  return Status::Internal("no driver for failpoint site '" + site + "'");
}

/// Sites whose correct response to a fault is to absorb it (fall back to a
/// cold mine, skip a poisoned entry) rather than propagate an error.
bool IsDegradeSite(const std::string& site) {
  return site == "engine.cache_admit" || site == "pattern_cache.load_entry" ||
         site == "pattern_cache.lookup_race" || site == "incremental.merge";
}

TEST(FailpointTest, EverySiteConvertsInjectedFaultIntoCleanStatus) {
  PipelineFixture fx = MakeFixture();

  for (const std::string& site : failpoint::AllSites()) {
    failpoint::ScopedFailpoint fp(site);
    ASSERT_TRUE(fp.activation_status().ok()) << site;
    Status st = DriveSite(site, fx);
    if (IsDegradeSite(site)) {
      EXPECT_TRUE(st.ok()) << site << ": " << st.ToString();
    } else {
      EXPECT_TRUE(st.IsIOError()) << site << ": " << st.ToString();
      EXPECT_NE(st.message().find("injected fault"), std::string::npos) << site;
    }
  }

  // All sites disarmed again: every stage succeeds.
  EXPECT_FALSE(failpoint::AnyActive());
  for (const std::string& site : failpoint::AllSites()) {
    EXPECT_TRUE(DriveSite(site, fx).ok()) << site;
  }
}

TEST(FailpointTest, FaultedMiningLeavesEnginePatternsIntact) {
  PipelineFixture fx = MakeFixture();
  const size_t before = fx.engine.patterns().size();

  failpoint::ScopedFailpoint fp("mining.group");
  EXPECT_FALSE(fx.engine.MinePatterns("SHARE-GRP").ok());
  ASSERT_TRUE(fx.engine.has_patterns());
  EXPECT_EQ(fx.engine.patterns().size(), before);
}

TEST(FailpointTest, FaultedSaveDoesNotCreateTheFile) {
  PipelineFixture fx = MakeFixture();
  const std::string path = TestTempPath("failpoint_never_written.patterns");
  std::remove(path.c_str());

  failpoint::ScopedFailpoint fp("pattern_io.save");
  EXPECT_TRUE(fx.engine.SavePatterns(path).IsIOError());
  EXPECT_FALSE(std::ifstream(path).good());
}

// ---------------------------------------------------------------------------
// Degrade-site semantics: the serving cache absorbs faults instead of
// propagating them, and the engine falls back to a cold mine.

TEST(FailpointTest, CacheAdmitFaultLeavesCacheColdButMiningSucceeds) {
  PipelineFixture fx = MakeFixture();
  PatternCache cache(/*byte_budget=*/1ull << 26);
  fx.engine.set_pattern_cache(&cache);

  {
    failpoint::ScopedFailpoint fp("engine.cache_admit");
    EXPECT_TRUE(fx.engine.MinePatterns("ARP-MINE").ok());
    EXPECT_GT(fx.engine.patterns().size(), 0u);  // the mine itself succeeded
    EXPECT_EQ(cache.stats().entries, 0);         // but nothing was admitted
  }

  // Disarmed: the next mine inserts, and the one after serves from cache.
  EXPECT_TRUE(fx.engine.MinePatterns("ARP-MINE").ok());
  EXPECT_EQ(cache.stats().entries, 1);
  EXPECT_TRUE(fx.engine.MinePatterns("ARP-MINE").ok());
  EXPECT_EQ(fx.engine.mining_profile().total_ns, 0);
  fx.engine.set_pattern_cache(nullptr);
}

TEST(FailpointTest, LookupRaceDegradesToMiss) {
  PipelineFixture fx = MakeFixture();
  PatternCache cache(/*byte_budget=*/1ull << 26);
  cache.Insert(fx.table->Fingerprint(), /*mining_config_digest=*/1,
               fx.engine.shared_patterns(), fx.table->schema());

  {
    failpoint::ScopedFailpoint fp("pattern_cache.lookup_race");
    EXPECT_EQ(cache.Lookup(fx.table->Fingerprint(), 1), nullptr);
    EXPECT_EQ(cache.stats().misses, 1);
    EXPECT_EQ(cache.stats().hits, 0);
  }
  // The entry was never removed; with the race disarmed the hit returns.
  EXPECT_NE(cache.Lookup(fx.table->Fingerprint(), 1), nullptr);
  EXPECT_EQ(cache.stats().hits, 1);
}

TEST(FailpointTest, PoisonedDiskEntryDegradesToColdMine) {
  PipelineFixture fx = MakeFixture();
  const std::string dir = TestTempPath("failpoint_poisoned_store");

  // Persist a valid cache snapshot for this table.
  {
    PatternCache cache(/*byte_budget=*/1ull << 26);
    fx.engine.set_pattern_cache(&cache);
    ASSERT_TRUE(fx.engine.MinePatterns("ARP-MINE").ok());
    ASSERT_EQ(cache.stats().entries, 1);
    ASSERT_TRUE(cache.SaveToDirectory(dir).ok());
    fx.engine.set_pattern_cache(nullptr);
  }
  const std::string rendered = fx.engine.RenderPatterns();

  // A poisoned (corrupt-read) disk entry is skipped at load: the warm-start
  // yields zero entries, and the engine simply mines cold — same patterns,
  // no error surfaced to the request path.
  PatternCache cache(/*byte_budget=*/1ull << 26);
  {
    failpoint::ScopedFailpoint fp("pattern_cache.load_entry");
    auto loaded = cache.LoadFromDirectory(dir, *fx.table->schema(), fx.table->Fingerprint());
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(*loaded, 0);
    EXPECT_EQ(cache.stats().entries, 0);
  }
  fx.engine.set_pattern_cache(&cache);
  ASSERT_TRUE(fx.engine.MinePatterns("ARP-MINE").ok());
  EXPECT_EQ(cache.stats().hits, 0);
  EXPECT_GE(cache.stats().misses, 1);
  EXPECT_GT(fx.engine.mining_profile().total_ns, 0);  // a genuine cold mine, not a hit
  EXPECT_EQ(fx.engine.RenderPatterns(), rendered);
  fx.engine.set_pattern_cache(nullptr);

  // Sanity: with the failpoint disarmed the same directory loads cleanly.
  PatternCache healthy(/*byte_budget=*/1ull << 26);
  auto loaded = healthy.LoadFromDirectory(dir, *fx.table->schema(), fx.table->Fingerprint());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, 1);

  // Genuinely corrupt bytes (not just an injected fault) degrade the same
  // way: truncate the stored entry and reload.
  for (const auto& dirent : std::filesystem::directory_iterator(dir)) {
    std::ofstream out(dirent.path(), std::ios::trunc | std::ios::binary);
    out << "not a pattern store";
  }
  PatternCache corrupt(/*byte_budget=*/1ull << 26);
  loaded = corrupt.LoadFromDirectory(dir, *fx.table->schema(), fx.table->Fingerprint());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, 0);
}

TEST(FailpointTest, PoisonedIncrementalMergeDegradesToFullRemine) {
  PipelineFixture fx = MakeFixture();
  const std::vector<Row> delta = {fx.table->GetRow(0), fx.table->GetRow(1)};

  // Reference: a second engine over a regenerated copy of the same data mines
  // the grown table from scratch — the poisoned maintenance pass must land
  // exactly here.
  DblpOptions options;
  options.num_rows = 6000;
  auto reference_table = GenerateDblp(options);
  ASSERT_TRUE(reference_table.ok());
  auto reference = Engine::FromTable(*reference_table);
  ASSERT_TRUE(reference.ok());
  reference->mining_config() = SmallMiningConfig();
  for (const Row& row : delta) ASSERT_TRUE((*reference_table)->AppendRow(row).ok());
  ASSERT_TRUE(reference->MinePatterns("ARP-MINE").ok());

  {
    failpoint::ScopedFailpoint fp("incremental.merge");
    Status st = fx.engine.AppendAndRemine(delta);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  EXPECT_EQ(fx.engine.run_stats().maint_full_remines, 1);
  EXPECT_EQ(SerializePatternSet(fx.engine.patterns(), fx.engine.schema()),
            SerializePatternSet(reference->patterns(), reference->schema()));

  // Disarmed: the next append maintains incrementally (no further re-mine).
  ASSERT_TRUE(fx.engine.AppendAndRemine({fx.table->GetRow(2)}).ok());
  EXPECT_EQ(fx.engine.run_stats().maint_full_remines, 1);
}

}  // namespace
}  // namespace cape
