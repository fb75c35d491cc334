#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "common/cancellation.h"
#include "core/engine.h"
#include "datagen/dblp.h"
#include "pattern/mining.h"
#include "relational/catalog.h"
#include "relational/operators.h"
#include "sql/executor.h"

namespace cape {
namespace {

// ---------------------------------------------------------------------------
// StopToken / Deadline unit behavior.

TEST(DeadlineTest, DefaultNeverExpires) {
  Deadline d;
  EXPECT_TRUE(d.infinite());
  EXPECT_FALSE(d.Expired());
  EXPECT_EQ(d.RemainingNanos(), INT64_MAX);
}

TEST(DeadlineTest, PastDeadlineIsExpired) {
  Deadline d = Deadline::AfterNanos(-1);
  EXPECT_FALSE(d.infinite());
  EXPECT_TRUE(d.Expired());
  EXPECT_LT(d.RemainingNanos(), 0);
}

TEST(StopTokenTest, DefaultTokenNeverStops) {
  StopToken stop;
  for (int i = 0; i < 10000; ++i) EXPECT_FALSE(stop.ShouldStop());
  EXPECT_FALSE(stop.ShouldStopNow());
  EXPECT_EQ(stop.reason(), StopReason::kNone);
  EXPECT_TRUE(stop.ToStatus().ok());
}

TEST(StopTokenTest, ExpiredDeadlineStopsAndIsSticky) {
  StopToken stop(Deadline::AfterNanos(-1));
  EXPECT_TRUE(stop.ShouldStopNow());
  EXPECT_EQ(stop.reason(), StopReason::kDeadlineExceeded);
  EXPECT_TRUE(stop.ToStatus().IsDeadlineExceeded());
  EXPECT_TRUE(stop.ToStatus().IsStop());
  // Sticky: keeps reporting stopped.
  EXPECT_TRUE(stop.ShouldStop());
}

TEST(StopTokenTest, FirstCallConsultsTheClockDespiteStride) {
  // countdown starts at zero, so an already-expired deadline is noticed on
  // the very first check even with a huge stride.
  StopToken stop(Deadline::AfterNanos(-1), CancellationToken{}, /*check_stride=*/1000000);
  EXPECT_TRUE(stop.ShouldStop());
  EXPECT_EQ(stop.reason(), StopReason::kDeadlineExceeded);
}

TEST(StopTokenTest, StrideDelaysClockChecksButShouldStopNowForcesOne) {
  StopToken stop(Deadline::AfterMillis(30), CancellationToken{},
                 /*check_stride=*/1000000);
  EXPECT_FALSE(stop.ShouldStop());  // clock checked, deadline not yet reached
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // The stride countdown masks the expiry on plain checks...
  EXPECT_FALSE(stop.ShouldStop());
  // ...but ShouldStopNow() (used at stage boundaries) forces the clock read.
  EXPECT_TRUE(stop.ShouldStopNow());
  EXPECT_EQ(stop.reason(), StopReason::kDeadlineExceeded);
}

TEST(StopTokenTest, CancellationIsObservedRegardlessOfStride) {
  CancellationSource source;
  StopToken cancel_stop(Deadline::Infinite(), source.token(), /*check_stride=*/1000000);
  EXPECT_FALSE(cancel_stop.ShouldStop());
  source.RequestCancel();
  EXPECT_TRUE(cancel_stop.ShouldStop());
  EXPECT_EQ(cancel_stop.reason(), StopReason::kCancelled);
  EXPECT_TRUE(cancel_stop.ToStatus().IsCancelled());
}

TEST(StopTokenTest, CopiesShareTheCancelFlag) {
  CancellationSource source;
  StopToken original(Deadline::Infinite(), source.token());
  StopToken copy = original;  // per-worker copy, shared flag
  source.RequestCancel();
  EXPECT_TRUE(copy.ShouldStop());
  EXPECT_TRUE(original.ShouldStop());
}

// ---------------------------------------------------------------------------
// Operators respect the stop token.

TEST(OperatorStopTest, ExpiredDeadlineStopsEveryOperator) {
  DblpOptions options;
  options.num_rows = 2000;
  auto table = GenerateDblp(options);
  ASSERT_TRUE(table.ok());
  const Table& t = **table;

  StopToken expired(Deadline::AfterNanos(-1), CancellationToken{}, /*check_stride=*/1);
  AggregateSpec count = AggregateSpec::CountStar("n");

  EXPECT_TRUE(GroupByAggregate(t, std::vector<int>{0}, {count}, &expired)
                  .status()
                  .IsDeadlineExceeded());
  EXPECT_TRUE(Filter(t, [](int64_t) { return true; }, &expired)
                  .status()
                  .IsDeadlineExceeded());
  EXPECT_TRUE(Project(t, {0}, &expired).status().IsDeadlineExceeded());
  EXPECT_TRUE(ProjectDistinct(t, {0}, &expired).status().IsDeadlineExceeded());
  EXPECT_TRUE(SortTable(t, {SortKey{0, true}}, &expired).status().IsDeadlineExceeded());
  EXPECT_TRUE(Cube(t, {0, 2}, {count}, {}, &expired).status().IsDeadlineExceeded());
}

// ---------------------------------------------------------------------------
// Miners degrade gracefully: truncated flag + subset-of-untimed patterns.

MiningConfig DblpMiningConfig() {
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

TablePtr DblpTable(int64_t rows) {
  DblpOptions options;
  options.num_rows = rows;
  auto table = GenerateDblp(options);
  EXPECT_TRUE(table.ok());
  return std::move(table).ValueOrDie();
}

/// Every pattern of `subset` must appear in `full` with identical stats —
/// the "truncated results are a prefix-consistent subset" guarantee.
void ExpectPatternSubset(const PatternSet& subset, const PatternSet& full) {
  for (const GlobalPattern& gp : subset.patterns()) {
    const GlobalPattern* match = full.Find(gp.pattern);
    ASSERT_NE(match, nullptr) << "truncated run produced a pattern absent from the "
                                 "untimed run";
    EXPECT_EQ(gp.num_fragments, match->num_fragments);
    EXPECT_EQ(gp.num_supported, match->num_supported);
    EXPECT_EQ(gp.num_holding, match->num_holding);
    EXPECT_EQ(gp.locals.size(), match->locals.size());
  }
}

class MinerDeadlineTest : public ::testing::TestWithParam<const char*> {};

TEST_P(MinerDeadlineTest, PreCancelledRunReturnsCleanTruncatedResult) {
  TablePtr table = DblpTable(1500);
  MiningConfig config = DblpMiningConfig();

  CancellationSource source;
  source.RequestCancel();  // cancelled before the run starts
  config.cancel_token = source.token();

  auto miner = MakeMinerByName(GetParam());
  ASSERT_TRUE(miner.ok());
  auto result = (*miner)->Mine(*table, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->truncated);
  EXPECT_EQ(result->stop_reason, StopReason::kCancelled);
  EXPECT_EQ(result->patterns.size(), 0u);
}

TEST_P(MinerDeadlineTest, TimedRunIsSubsetOfUntimedRun) {
  TablePtr table = DblpTable(1500);
  MiningConfig config = DblpMiningConfig();

  auto miner = MakeMinerByName(GetParam());
  ASSERT_TRUE(miner.ok());
  auto untimed = (*miner)->Mine(*table, config);
  ASSERT_TRUE(untimed.ok());
  EXPECT_FALSE(untimed->truncated);
  EXPECT_GT(untimed->patterns.size(), 0u);

  config.deadline_ms = 2;
  auto timed = (*miner)->Mine(*table, config);
  ASSERT_TRUE(timed.ok()) << timed.status().ToString();
  if (timed->truncated) {
    EXPECT_EQ(timed->stop_reason, StopReason::kDeadlineExceeded);
    EXPECT_LE(timed->patterns.size(), untimed->patterns.size());
  } else {
    // Fast machine: the whole run fit in the deadline, so results match.
    EXPECT_EQ(timed->patterns.size(), untimed->patterns.size());
  }
  ExpectPatternSubset(timed->patterns, untimed->patterns);
}

INSTANTIATE_TEST_SUITE_P(AllMiners, MinerDeadlineTest,
                         ::testing::Values("NAIVE", "CUBE", "SHARE-GRP", "ARP-MINE"));

TEST(MinerDeadlineExtraTest, ParallelShareGrpHonorsCancellation) {
  TablePtr table = DblpTable(1500);
  MiningConfig config = DblpMiningConfig();
  config.num_threads = 4;

  CancellationSource source;
  source.RequestCancel();
  config.cancel_token = source.token();

  auto result = MakeShareGrpMiner()->Mine(*table, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->truncated);
  EXPECT_EQ(result->stop_reason, StopReason::kCancelled);
}

TEST(MinerDeadlineExtraTest, CancellationMidFlightStopsTheMiner) {
  // NAIVE on this size takes far longer than the cancel delay, so the
  // cancel lands mid-run; the miner must come back quickly and cleanly.
  TablePtr table = DblpTable(4000);
  MiningConfig config = DblpMiningConfig();

  CancellationSource source;
  config.cancel_token = source.token();
  std::thread canceller([&source] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    source.RequestCancel();
  });

  const auto start = std::chrono::steady_clock::now();
  auto result = MakeNaiveMiner()->Mine(*table, config);
  canceller.join();
  const auto elapsed = std::chrono::steady_clock::now() - start;

  ASSERT_TRUE(result.ok()) << result.status().ToString();
  if (result->truncated) {
    EXPECT_EQ(result->stop_reason, StopReason::kCancelled);
  }
  // Generous bound: well under what the untimed NAIVE run takes at this size.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(), 30);
}

// ---------------------------------------------------------------------------
// Explain degrades gracefully: partial flag + stage + wall-clock bound.

Engine MinedDblpEngine(int64_t rows) {
  auto engine = Engine::FromTable(DblpTable(rows));
  EXPECT_TRUE(engine.ok());
  Engine e = std::move(engine).ValueOrDie();
  e.mining_config() = DblpMiningConfig();
  EXPECT_TRUE(e.MinePatterns("ARP-MINE").ok());
  EXPECT_GT(e.patterns().size(), 0u);
  return e;
}

Result<UserQuestion> PlantedQuestion(const Engine& engine) {
  return engine.MakeQuestion({"author", "venue", "year"},
                             {Value::String("AX"), Value::String("SIGKDD"),
                              Value::Int64(2007)},
                             AggFunc::kCount, "*", Direction::kLow);
}

TEST(ExplainDeadlineTest, PreCancelledExplainReturnsPartial) {
  Engine engine = MinedDblpEngine(6000);
  auto q = PlantedQuestion(engine);
  ASSERT_TRUE(q.ok());

  CancellationSource source;
  source.RequestCancel();
  engine.explain_config().cancel_token = source.token();

  for (bool optimized : {false, true}) {
    auto result = engine.Explain(*q, optimized);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->partial);
    EXPECT_EQ(result->stop_reason, StopReason::kCancelled);
    EXPECT_TRUE(result->stopped_stage == "norm" || result->stopped_stage == "refine")
        << result->stopped_stage;
    EXPECT_TRUE(engine.run_stats().explain_partial);
  }
}

TEST(ExplainDeadlineTest, TightDeadlineReturnsQuicklyWithPartialResult) {
  Engine engine = MinedDblpEngine(8000);
  auto q = PlantedQuestion(engine);
  ASSERT_TRUE(q.ok());

  // Untimed baseline for comparing result consistency.
  auto untimed = engine.Explain(*q, /*optimized=*/false);
  ASSERT_TRUE(untimed.ok());
  EXPECT_FALSE(untimed->partial);

  engine.explain_config().deadline_ms = 10;
  const auto start = std::chrono::steady_clock::now();
  auto timed = engine.Explain(*q, /*optimized=*/false);
  const auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  ASSERT_TRUE(timed.ok()) << timed.status().ToString();

  // The run must come back in the neighborhood of the deadline, not the
  // untimed runtime. Generous slack absorbs CI scheduling noise.
  EXPECT_LT(elapsed_ms, 2000);
  if (timed->partial) {
    EXPECT_EQ(timed->stop_reason, StopReason::kDeadlineExceeded);
    EXPECT_TRUE(timed->stopped_stage == "norm" || timed->stopped_stage == "refine");
    EXPECT_LE(timed->explanations.size(), static_cast<size_t>(engine.explain_config().top_k));
  } else {
    // Entire explain fit inside 10ms: results must equal the untimed run.
    ASSERT_EQ(timed->explanations.size(), untimed->explanations.size());
  }
  // Every returned explanation is fully scored and appears in the untimed
  // run with the same score.
  for (const Explanation& e : timed->explanations) {
    bool found = false;
    for (const Explanation& u : untimed->explanations) {
      if (u.tuple_attrs == e.tuple_attrs && u.tuple_values == e.tuple_values &&
          u.score == e.score) {
        found = true;
        break;
      }
    }
    // When partial, an explanation may have ranked below the untimed top-k,
    // so membership is only required for complete runs.
    if (!timed->partial) {
      EXPECT_TRUE(found);
    }
  }
}

TEST(ExplainDeadlineTest, NoDeadlineMatchesSeedBehaviorExactly) {
  Engine engine = MinedDblpEngine(6000);
  auto q = PlantedQuestion(engine);
  ASSERT_TRUE(q.ok());

  auto a = engine.Explain(*q);
  auto b = engine.Explain(*q);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(a->partial);
  EXPECT_FALSE(b->partial);
  ASSERT_EQ(a->explanations.size(), b->explanations.size());
  for (size_t i = 0; i < a->explanations.size(); ++i) {
    EXPECT_EQ(a->explanations[i].score, b->explanations[i].score);
    EXPECT_EQ(a->explanations[i].tuple_values, b->explanations[i].tuple_values);
  }
}

// ---------------------------------------------------------------------------
// Engine surfaces RunStats.

TEST(RunStatsTest, MiningAndExplainPopulateRunStats) {
  Engine engine = MinedDblpEngine(6000);
  const RunStats& stats = engine.run_stats();
  EXPECT_GT(stats.mine_ns, 0);
  EXPECT_GT(stats.mine_rows_scanned, 0);
  EXPECT_GT(stats.mine_candidates, 0);
  EXPECT_EQ(stats.patterns_mined, static_cast<int64_t>(engine.patterns().size()));
  EXPECT_FALSE(stats.mine_truncated);
  EXPECT_EQ(stats.mine_stop_reason, StopReason::kNone);

  auto q = PlantedQuestion(engine);
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(engine.Explain(*q).ok());
  EXPECT_GT(engine.run_stats().explain_ns, 0);
  EXPECT_GT(engine.run_stats().explain_pairs_considered, 0);
  EXPECT_FALSE(engine.run_stats().explain_partial);
}

TEST(RunStatsTest, TruncatedMiningIsRecorded) {
  auto engine = Engine::FromTable(DblpTable(1500));
  ASSERT_TRUE(engine.ok());
  Engine e = std::move(engine).ValueOrDie();
  e.mining_config() = DblpMiningConfig();

  CancellationSource source;
  source.RequestCancel();
  e.mining_config().cancel_token = source.token();
  ASSERT_TRUE(e.MinePatterns("SHARE-GRP").ok());
  EXPECT_TRUE(e.run_stats().mine_truncated);
  EXPECT_EQ(e.run_stats().mine_stop_reason, StopReason::kCancelled);
}

// ---------------------------------------------------------------------------
// SQL executor honors the stop token.

TEST(SqlDeadlineTest, ExpiredDeadlineStopsExecuteSelect) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterTable("pub", DblpTable(2000)).ok());
  auto select = ParseSelect("SELECT author, count(*) FROM pub GROUP BY author;");
  ASSERT_TRUE(select.ok());

  StopToken expired(Deadline::AfterNanos(-1), CancellationToken{}, /*check_stride=*/1);
  EXPECT_TRUE(ExecuteSelect(catalog, *select, &expired).status().IsDeadlineExceeded());

  StopToken fine;
  auto ok_result = ExecuteSelect(catalog, *select, &fine);
  EXPECT_TRUE(ok_result.ok());
}

}  // namespace
}  // namespace cape
