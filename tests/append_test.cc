// APPEND on the engine (DESIGN.md §16): Engine::AppendAndRemine appends a
// batch all-or-nothing and re-mines the grown table. These tests pin that
// contract: the answer is a cold mine of all rows, a rejected batch changes
// nothing, and a cut-short re-mine keeps the previous set while the rows
// stay appended. IncrementalVsScratchTest (random_equivalence_test) sweeps seeds
// and append schedules.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "core/engine.h"
#include "datagen/dblp.h"
#include "pattern/mining.h"
#include "pattern/pattern_io.h"
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

/// From-scratch reference: what ARP-MINE produces on `table` right now.
std::string Scratch(const Table& table, const MiningConfig& config) {
  auto result = MakeArpMiner()->Mine(table, config);
  EXPECT_TRUE(result.ok());
  return SerializePatternSet(result->patterns, *table.schema());
}

std::string Installed(const Engine& engine) {
  return SerializePatternSet(engine.patterns(), engine.schema());
}

TEST(AppendTest, AppendMatchesScratch) {
  TablePtr donor = MakeTable(2200);
  auto engine = Engine::FromTable(MakeTable(2000));
  ASSERT_TRUE(engine.ok());
  engine->mining_config() = TestConfig();
  ASSERT_TRUE(engine->MinePatterns("ARP-MINE").ok());

  std::vector<Row> delta;
  for (int64_t r = 2000; r < 2200; ++r) delta.push_back(donor->GetRow(r));
  ASSERT_TRUE(engine->AppendAndRemine(delta).ok());

  EXPECT_EQ(engine->table()->num_rows(), 2200);
  EXPECT_EQ(Installed(*engine), Scratch(*engine->table(), engine->mining_config()));
}

TEST(AppendTest, InvalidBatchRejectedAtomically) {
  auto engine = Engine::FromTable(MakeTable(1000));
  ASSERT_TRUE(engine.ok());
  engine->mining_config() = TestConfig();
  ASSERT_TRUE(engine->MinePatterns("ARP-MINE").ok());
  const std::string before = Installed(*engine);

  // Second row has the wrong arity: nothing may be appended, patterns stay.
  std::vector<Row> bad = {engine->table()->GetRow(0), Row{Value::Int64(1)}};
  EXPECT_FALSE(engine->AppendAndRemine(bad).ok());
  EXPECT_EQ(engine->table()->num_rows(), 1000);
  EXPECT_EQ(Installed(*engine), before);

  // An unknown miner is rejected before any valid row lands.
  EXPECT_TRUE(
      engine->AppendAndRemine({engine->table()->GetRow(0)}, "NO-SUCH-MINER").IsNotFound());
  EXPECT_EQ(engine->table()->num_rows(), 1000);
  EXPECT_EQ(Installed(*engine), before);
}

TEST(AppendTest, CancelledAppendKeepsPreviousSetThenCatchesUp) {
  TablePtr donor = MakeTable(2100);
  auto engine = Engine::FromTable(MakeTable(2000));
  ASSERT_TRUE(engine.ok());
  engine->mining_config() = TestConfig();
  ASSERT_TRUE(engine->MinePatterns("ARP-MINE").ok());
  const std::string stale = Installed(*engine);

  std::vector<Row> delta;
  for (int64_t r = 2000; r < 2100; ++r) delta.push_back(donor->GetRow(r));

  CancellationSource source;
  source.RequestCancel();
  engine->mining_config().cancel_token = source.token();
  const Status st = engine->AppendAndRemine(delta);
  ASSERT_TRUE(st.IsCancelled()) << st.ToString();
  // The rows are in; the cut-short mine installed nothing.
  EXPECT_EQ(engine->table()->num_rows(), 2100);
  EXPECT_EQ(Installed(*engine), stale);
  // The kept set came from a complete mine, so it still saves.
  const std::string path = TestTempPath("cancelled_append.patterns");
  EXPECT_TRUE(engine->SavePatterns(path).ok());
  std::remove(path.c_str());

  // The next append mines every row, the previous batch included.
  engine->mining_config().cancel_token = CancellationToken();
  ASSERT_TRUE(engine->AppendAndRemine({donor->GetRow(0)}).ok());
  EXPECT_EQ(engine->table()->num_rows(), 2101);
  EXPECT_EQ(Installed(*engine), Scratch(*engine->table(), engine->mining_config()));
}

TEST(AppendTest, CancelledAppendBeforeAnyMineInstallsNothing) {
  TablePtr donor = MakeTable(1100);
  auto engine = Engine::FromTable(MakeTable(1000));
  ASSERT_TRUE(engine.ok());
  engine->mining_config() = TestConfig();

  CancellationSource source;
  source.RequestCancel();
  engine->mining_config().cancel_token = source.token();
  std::vector<Row> delta;
  for (int64_t r = 1000; r < 1100; ++r) delta.push_back(donor->GetRow(r));
  ASSERT_TRUE(engine->AppendAndRemine(delta).IsCancelled());
  EXPECT_EQ(engine->table()->num_rows(), 1100);
  EXPECT_FALSE(engine->has_patterns());

  // An empty batch appends nothing and still mines the grown table.
  engine->mining_config().cancel_token = CancellationToken();
  ASSERT_TRUE(engine->AppendAndRemine({}).ok());
  EXPECT_EQ(engine->table()->num_rows(), 1100);
  EXPECT_EQ(Installed(*engine), Scratch(*engine->table(), engine->mining_config()));
}

}  // namespace
}  // namespace cape
