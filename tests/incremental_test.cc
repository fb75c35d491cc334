// PatternMaintainer unit tests (DESIGN.md §16): the incremental maintenance
// core in isolation, plus its engine integration (AppendAndRemine). The
// broad byte-identity oracle across seeds, schedules, storage, and thread
// counts lives in random_equivalence_test; these tests pin the contracts
// that suite assumes — transactional Absorb, reusability after stop/fault,
// and unsupported-config rejection.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/failpoint.h"
#include "core/engine.h"
#include "datagen/dblp.h"
#include "pattern/incremental.h"
#include "pattern/mining.h"
#include "pattern/pattern_io.h"
#include "storage/heap_file.h"
#include "storage/paged_table.h"
#include "test_util.h"

namespace cape {
namespace {

MiningConfig TestConfig() {
  MiningConfig config;
  config.max_pattern_size = 3;
  config.local_gof_threshold = 0.2;
  config.local_support_threshold = 3;
  config.global_confidence_threshold = 0.3;
  config.global_support_threshold = 5;
  config.agg_functions = {AggFunc::kCount, AggFunc::kSum};
  config.excluded_attrs = {"pubid"};
  return config;
}

TablePtr MakeTable(int64_t rows) {
  DblpOptions options;
  options.num_rows = rows;
  auto table = GenerateDblp(options);
  EXPECT_TRUE(table.ok());
  return *table;
}

/// From-scratch reference: what any miner produces on `table` right now.
std::string Scratch(const Table& table, const MiningConfig& config) {
  auto result = MakeArpMiner()->Mine(table, config);
  EXPECT_TRUE(result.ok());
  return SerializePatternSet(result->patterns, *table.schema());
}

std::string Finalized(const PatternMaintainer& maintainer, const Table& table) {
  return SerializePatternSet(maintainer.Finalize(), *table.schema());
}

TEST(IncrementalTest, BuildMatchesScratchMine) {
  TablePtr table = MakeTable(2000);
  const MiningConfig config = TestConfig();
  auto maintainer = PatternMaintainer::Build(table, config);
  ASSERT_TRUE(maintainer.ok()) << maintainer.status().ToString();
  EXPECT_EQ((*maintainer)->rows_folded(), table->num_rows());
  EXPECT_EQ(Finalized(**maintainer, *table), Scratch(*table, config));
  EXPECT_EQ((*maintainer)->config_digest(), MiningConfigDigest(config));
}

TEST(IncrementalTest, AbsorbFoldsDeltaAndMatchesScratch) {
  TablePtr table = MakeTable(2000);
  TablePtr donor = MakeTable(2200);  // superset: rows 2000..2199 are the delta
  const MiningConfig config = TestConfig();
  auto maintainer = PatternMaintainer::Build(table, config);
  ASSERT_TRUE(maintainer.ok());

  for (int64_t r = 2000; r < 2200; ++r) {
    ASSERT_TRUE(table->AppendRow(donor->GetRow(r)).ok());
  }
  ASSERT_TRUE((*maintainer)->Absorb().ok());
  EXPECT_EQ((*maintainer)->rows_folded(), 2200);
  EXPECT_EQ(Finalized(**maintainer, *table), Scratch(*table, config));

  const MaintenanceStats& stats = (*maintainer)->stats();
  EXPECT_EQ(stats.batches_absorbed, 2);  // the Build fold plus this one
  EXPECT_EQ(stats.rows_absorbed, 2200);
  EXPECT_GT(stats.groups_touched, 0);
  EXPECT_GT(stats.fragments_refit, 0);
  EXPECT_GT(stats.candidates_revalidated, 0);
}

TEST(IncrementalTest, AbsorbIsNoOpWhenTableUnchanged) {
  TablePtr table = MakeTable(1000);
  const MiningConfig config = TestConfig();
  auto maintainer = PatternMaintainer::Build(table, config);
  ASSERT_TRUE(maintainer.ok());
  const MaintenanceStats& stats = (*maintainer)->stats();
  const int64_t batches = stats.batches_absorbed;
  ASSERT_TRUE((*maintainer)->Absorb().ok());
  EXPECT_EQ(stats.batches_absorbed, batches);  // nothing to fold, nothing counted
  EXPECT_EQ((*maintainer)->rows_folded(), 1000);
}

TEST(IncrementalTest, ColumnStatsTrackEveryNumericColumn) {
  TablePtr table = MakeTable(1500);
  auto maintainer = PatternMaintainer::Build(table, TestConfig());
  ASSERT_TRUE(maintainer.ok());
  const MaintenanceStats& stats = (*maintainer)->stats();
  ASSERT_EQ(static_cast<int>(stats.column_stats.size()), table->num_columns());
  for (int c = 0; c < table->num_columns(); ++c) {
    if (table->schema()->field(c).type == DataType::kString) {
      EXPECT_EQ(stats.column_stats[static_cast<size_t>(c)].count(), 0u);
    } else {
      // Non-null numeric values folded; dblp generates these fully non-null.
      EXPECT_EQ(stats.column_stats[static_cast<size_t>(c)].count(),
                static_cast<size_t>(table->num_rows()));
    }
  }
}

TEST(IncrementalTest, CancelledAbsorbLeavesMaintainerReusable) {
  TablePtr table = MakeTable(2000);
  TablePtr donor = MakeTable(2100);
  const MiningConfig config = TestConfig();
  auto maintainer = PatternMaintainer::Build(table, config);
  ASSERT_TRUE(maintainer.ok());
  const std::string before = Finalized(**maintainer, *table);

  for (int64_t r = 2000; r < 2100; ++r) {
    ASSERT_TRUE(table->AppendRow(donor->GetRow(r)).ok());
  }

  // A pre-cancelled token stops the pass mid-maintenance; the transaction
  // must roll back completely: fold point unchanged, Finalize untouched.
  CancellationSource source;
  source.RequestCancel();
  StopToken stop(Deadline::Infinite(), source.token(), /*check_stride=*/1);
  Status st = (*maintainer)->Absorb(&stop);
  ASSERT_TRUE(st.IsStop()) << st.ToString();
  EXPECT_EQ((*maintainer)->rows_folded(), 2000);
  EXPECT_EQ(Finalized(**maintainer, *table), before);

  // Reusable: the next unstopped pass catches up and matches scratch.
  ASSERT_TRUE((*maintainer)->Absorb().ok());
  EXPECT_EQ((*maintainer)->rows_folded(), 2100);
  EXPECT_EQ(Finalized(**maintainer, *table), Scratch(*table, config));
}

TEST(IncrementalTest, MergeFailpointRollsBackAndMaintainerStaysValid) {
  TablePtr table = MakeTable(2000);
  TablePtr donor = MakeTable(2100);
  const MiningConfig config = TestConfig();
  auto maintainer = PatternMaintainer::Build(table, config);
  ASSERT_TRUE(maintainer.ok());
  const std::string before = Finalized(**maintainer, *table);

  for (int64_t r = 2000; r < 2100; ++r) {
    ASSERT_TRUE(table->AppendRow(donor->GetRow(r)).ok());
  }
  {
    failpoint::ScopedFailpoint fp("incremental.merge");
    Status st = (*maintainer)->Absorb();
    EXPECT_TRUE(st.IsIOError()) << st.ToString();
    EXPECT_EQ((*maintainer)->rows_folded(), 2000);
    EXPECT_EQ(Finalized(**maintainer, *table), before);
  }
  // Disarmed: same maintainer completes the same delta, byte-identical to
  // scratch — the fault never leaks partial state into the result.
  ASSERT_TRUE((*maintainer)->Absorb().ok());
  EXPECT_EQ(Finalized(**maintainer, *table), Scratch(*table, config));
}

TEST(IncrementalTest, UnsupportedConfigsRejectedAtBuild) {
  TablePtr table = MakeTable(500);

  MiningConfig fd = TestConfig();
  fd.use_fd_optimizations = true;
  EXPECT_TRUE(PatternMaintainer::Build(table, fd).status().IsNotImplemented());

  EXPECT_TRUE(
      PatternMaintainer::Build(nullptr, TestConfig()).status().IsInvalidArgument());
}

TEST(IncrementalTest, PagedTablesRejectedAtBuild) {
  TablePtr table = MakeTable(500);
  const std::string path = TestTempPath("incremental_paged.cape");
  ASSERT_TRUE(WriteTableToHeapFile(*table, path).ok());
  auto paged = OpenPagedTable(path, /*budget_bytes=*/1 << 20);
  ASSERT_TRUE(paged.ok());
  EXPECT_TRUE(PatternMaintainer::Build(*paged, TestConfig()).status().IsNotImplemented());
}

TEST(IncrementalTest, NaNInEligibleDoubleAttrRejected) {
  auto schema = Schema::Make({Field{"g", DataType::kString, false},
                              Field{"m", DataType::kDouble, true}});
  auto table = std::make_shared<Table>(schema);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        table->AppendRow({Value::String("g" + std::to_string(i % 4)),
                          Value::Double(static_cast<double>(i))})
            .ok());
  }
  MiningConfig config;
  config.max_pattern_size = 2;
  config.agg_functions = {AggFunc::kCount};

  // NaN present at Build: rejected outright (fragment identity would not be
  // byte-stable — NaN breaks the Value-ordering equivalence).
  ASSERT_TRUE(table->AppendRow({Value::String("g0"),
                                Value::Double(std::nan(""))}).ok());
  EXPECT_TRUE(PatternMaintainer::Build(table, config).status().IsNotImplemented());

  // NaN arriving in a delta: the established maintainer refuses the batch
  // and stays at its previous fold point.
  auto clean = std::make_shared<Table>(schema);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        clean->AppendRow({Value::String("g" + std::to_string(i % 4)),
                          Value::Double(static_cast<double>(i))})
            .ok());
  }
  auto maintainer = PatternMaintainer::Build(clean, config);
  ASSERT_TRUE(maintainer.ok()) << maintainer.status().ToString();
  ASSERT_TRUE(clean->AppendRow({Value::String("g0"),
                                Value::Double(std::nan(""))}).ok());
  EXPECT_TRUE((*maintainer)->Absorb().IsNotImplemented());
  EXPECT_EQ((*maintainer)->rows_folded(), 20);
}

// ---------------------------------------------------------------------------
// Engine integration: AppendAndRemine.

TEST(IncrementalTest, EngineAppendAndRemineMatchesScratch) {
  TablePtr donor = MakeTable(2200);
  auto engine = Engine::FromTable(MakeTable(2000));
  ASSERT_TRUE(engine.ok());
  engine->mining_config() = TestConfig();
  ASSERT_TRUE(engine->MinePatterns("ARP-MINE").ok());

  std::vector<Row> delta;
  for (int64_t r = 2000; r < 2200; ++r) delta.push_back(donor->GetRow(r));
  ASSERT_TRUE(engine->AppendAndRemine(delta).ok());

  EXPECT_EQ(SerializePatternSet(engine->patterns(), engine->schema()),
            Scratch(*engine->table(), engine->mining_config()));
  const RunStats stats = engine->run_stats();
  EXPECT_EQ(stats.maint_appends, 1);
  EXPECT_EQ(stats.maint_rows_appended, 200);
  EXPECT_EQ(stats.maint_full_remines, 0);
  EXPECT_GT(stats.maint_patterns_revalidated, 0);
}

TEST(IncrementalTest, EngineAppendRejectsInvalidRowsAtomically) {
  auto engine = Engine::FromTable(MakeTable(1000));
  ASSERT_TRUE(engine.ok());
  engine->mining_config() = TestConfig();
  ASSERT_TRUE(engine->MinePatterns("ARP-MINE").ok());
  const std::string before =
      SerializePatternSet(engine->patterns(), engine->schema());

  // Second row has the wrong arity: nothing may be appended, patterns stay.
  std::vector<Row> bad = {engine->table()->GetRow(0), Row{Value::Int64(1)}};
  EXPECT_FALSE(engine->AppendAndRemine(bad).ok());
  EXPECT_EQ(engine->table()->num_rows(), 1000);
  EXPECT_EQ(SerializePatternSet(engine->patterns(), engine->schema()), before);
  EXPECT_EQ(engine->run_stats().maint_appends, 0);
}

TEST(IncrementalTest, EngineCancelledMaintenanceSurfacesStopThenCatchesUp) {
  TablePtr donor = MakeTable(2100);
  auto engine = Engine::FromTable(MakeTable(2000));
  ASSERT_TRUE(engine.ok());
  engine->mining_config() = TestConfig();
  ASSERT_TRUE(engine->MinePatterns("ARP-MINE").ok());
  const std::string stale = SerializePatternSet(engine->patterns(), engine->schema());

  std::vector<Row> delta;
  for (int64_t r = 2000; r < 2100; ++r) delta.push_back(donor->GetRow(r));

  CancellationSource source;
  source.RequestCancel();
  engine->mining_config().cancel_token = source.token();
  Status st = engine->AppendAndRemine(delta);
  ASSERT_TRUE(st.IsStop()) << st.ToString();
  // Rows are in; the pattern set is stale but intact.
  EXPECT_EQ(engine->table()->num_rows(), 2100);
  EXPECT_EQ(SerializePatternSet(engine->patterns(), engine->schema()), stale);

  // Next (unstopped) maintenance pass catches up on the backlog plus the new
  // delta and is byte-identical to scratch again.
  engine->mining_config().cancel_token = CancellationToken();
  ASSERT_TRUE(engine->AppendAndRemine({donor->GetRow(0)}).ok());
  EXPECT_EQ(engine->table()->num_rows(), 2101);
  EXPECT_EQ(SerializePatternSet(engine->patterns(), engine->schema()),
            Scratch(*engine->table(), engine->mining_config()));
  EXPECT_EQ(engine->run_stats().maint_full_remines, 0);
}

TEST(IncrementalTest, EngineConfigChangeRebuildsMaintainer) {
  TablePtr donor = MakeTable(2100);
  auto engine = Engine::FromTable(MakeTable(2000));
  ASSERT_TRUE(engine.ok());
  engine->mining_config() = TestConfig();
  ASSERT_TRUE(engine->MinePatterns("ARP-MINE").ok());
  ASSERT_TRUE(engine->AppendAndRemine({donor->GetRow(2000)}).ok());

  // A changed mining config invalidates the maintained state; the next
  // append must still land exactly on scratch under the new config.
  engine->mining_config().local_gof_threshold = 0.4;
  ASSERT_TRUE(engine->AppendAndRemine({donor->GetRow(2001)}).ok());
  EXPECT_EQ(SerializePatternSet(engine->patterns(), engine->schema()),
            Scratch(*engine->table(), engine->mining_config()));
}

}  // namespace
}  // namespace cape
