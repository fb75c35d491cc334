#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "common/failpoint.h"
#include "common/macros.h"
#include "core/engine.h"
#include "datagen/dblp.h"
#include "pattern/mining.h"
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
  EXPECT_EQ(sites.size(), 11u);
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
// Hard sites propagate the fault as an error Status; the degrade site absorbs
// it (the stage still succeeds, falling back to a full re-mine).

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

TEST(FailpointTest, EverySiteConvertsInjectedFaultIntoCleanStatus) {
  PipelineFixture fx = MakeFixture();

  for (const std::string& site : failpoint::AllSites()) {
    failpoint::ScopedFailpoint fp(site);
    ASSERT_TRUE(fp.activation_status().ok()) << site;
    Status st = DriveSite(site, fx);
    EXPECT_TRUE(st.IsIOError()) << site << ": " << st.ToString();
    EXPECT_NE(st.message().find("injected fault"), std::string::npos) << site;
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

  // APPEND's re-mine fails the same way: the row lands, the set stays.
  const int64_t rows = fx.table->num_rows();
  EXPECT_TRUE(fx.engine.AppendAndRemine({fx.table->GetRow(0)}).IsIOError());
  EXPECT_EQ(fx.table->num_rows(), rows + 1);
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

}  // namespace
}  // namespace cape
