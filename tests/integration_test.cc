#include <gtest/gtest.h>

#include <cstdio>

#include "core/engine.h"
#include "datagen/crime.h"
#include "datagen/dblp.h"
#include "datagen/ground_truth.h"
#include "relational/csv.h"
#include "test_util.h"

namespace cape {
namespace {

Engine DblpEngine(int64_t rows = 6000) {
  DblpOptions options;
  options.num_rows = rows;
  auto table = GenerateDblp(options);
  EXPECT_TRUE(table.ok());
  auto engine = Engine::FromTable(std::move(table).ValueOrDie());
  EXPECT_TRUE(engine.ok());
  Engine e = std::move(engine).ValueOrDie();
  MiningConfig& mining = e.mining_config();
  mining.max_pattern_size = 3;
  mining.local_gof_threshold = 0.2;
  mining.local_support_threshold = 3;
  mining.global_confidence_threshold = 0.3;
  mining.global_support_threshold = 10;
  mining.agg_functions = {AggFunc::kCount};
  mining.excluded_attrs = {"pubid"};
  return e;
}

TEST(EngineTest, ExplainRequiresMinedPatterns) {
  Engine engine = DblpEngine(1000);
  auto q = engine.MakeQuestion({"author", "venue", "year"},
                               {Value::String("AX"), Value::String("SIGKDD"),
                                Value::Int64(2007)},
                               AggFunc::kCount, "*", Direction::kLow);
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(engine.has_patterns());
  EXPECT_TRUE(engine.Explain(*q).status().IsInvalidArgument());
  EXPECT_EQ(engine.RenderPatterns(), "(no patterns mined)\n");
}

TEST(EngineTest, UnknownMinerRejected) {
  Engine engine = DblpEngine(1000);
  EXPECT_TRUE(engine.MinePatterns("NOT-A-MINER").IsNotFound());
}

TEST(EngineTest, FullPipelineFindsPlantedCounterbalances) {
  Engine engine = DblpEngine();
  ASSERT_TRUE(engine.MinePatterns("ARP-MINE").ok());
  EXPECT_TRUE(engine.has_patterns());
  EXPECT_GT(engine.patterns().size(), 0u);
  EXPECT_GT(engine.mining_profile().total_ns, 0);

  auto q = engine.MakeQuestion({"author", "venue", "year"},
                               {Value::String(kDblpPlantedAuthor), Value::String("SIGKDD"),
                                Value::Int64(2007)},
                               AggFunc::kCount, "*", Direction::kLow);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->result_value, 1.0);

  auto result = engine.Explain(*q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(result->explanations.empty());

  // The planted ICDE 2007 spike must be in the top-10.
  bool found = false;
  for (const Explanation& e : result->explanations) {
    std::string rendered = e.ToString(engine.schema());
    if (rendered.find("ICDE") != std::string::npos &&
        rendered.find("2007") != std::string::npos &&
        rendered.find(kDblpPlantedAuthor) != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << engine.RenderExplanations(result->explanations);

  // Rendering produces the paper-style ranked table.
  std::string table = engine.RenderExplanations(result->explanations);
  EXPECT_NE(table.find("Rank"), std::string::npos);
  EXPECT_NE(table.find("score"), std::string::npos);

  // Baseline works on the same question and stays within Q(R).
  auto baseline = engine.ExplainBaseline(*q);
  ASSERT_TRUE(baseline.ok());
  EXPECT_FALSE(baseline->explanations.empty());
}

TEST(EngineTest, AllFourMinersWorkThroughTheEngine) {
  Engine engine = DblpEngine(1200);
  engine.mining_config().max_pattern_size = 2;
  size_t expected = 0;
  for (const char* miner : {"NAIVE", "CUBE", "SHARE-GRP", "ARP-MINE"}) {
    ASSERT_TRUE(engine.MinePatterns(miner).ok()) << miner;
    if (expected == 0) expected = engine.patterns().size();
    EXPECT_EQ(engine.patterns().size(), expected) << miner;
  }
}

TEST(EngineTest, SetPatternsSupportsTruncatedSets) {
  Engine engine = DblpEngine();
  ASSERT_TRUE(engine.MinePatterns().ok());
  const int64_t all_locals = engine.patterns().NumLocalPatterns();
  ASSERT_GT(all_locals, 10);

  auto q = engine.MakeQuestion({"author", "venue", "year"},
                               {Value::String(kDblpPlantedAuthor), Value::String("SIGKDD"),
                                Value::Int64(2007)},
                               AggFunc::kCount, "*", Direction::kLow);
  ASSERT_TRUE(q.ok());

  PatternSet truncated = engine.patterns().Truncated(all_locals / 2);
  engine.SetPatterns(truncated);
  EXPECT_EQ(engine.patterns().NumLocalPatterns(), all_locals / 2);
  auto result = engine.Explain(*q);
  ASSERT_TRUE(result.ok());
}

TEST(EngineTest, CsvRoundTrip) {
  DblpOptions options;
  options.num_rows = 500;
  auto table = GenerateDblp(options);
  ASSERT_TRUE(table.ok());
  const std::string path = TestTempPath("integration.csv");
  ASSERT_TRUE(WriteCsvFile(**table, path).ok());

  auto engine = Engine::FromCsvFile(path);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ(engine->table()->num_rows(), 500);
  EXPECT_EQ(engine->schema().GetFieldIndex("venue"), 3);
  std::remove(path.c_str());

  EXPECT_TRUE(Engine::FromCsvFile("/no/such/file.csv").status().IsIOError());
  EXPECT_TRUE(Engine::FromTable(nullptr).status().IsInvalidArgument());
}

TEST(CrimeIntegrationTest, BatteryQuestionFindsPlantedScenario) {
  CrimeOptions options;
  options.num_rows = 12000;
  auto table = GenerateCrime(options);
  ASSERT_TRUE(table.ok());
  auto engine_result = Engine::FromTable(std::move(table).ValueOrDie());
  ASSERT_TRUE(engine_result.ok());
  Engine engine = std::move(engine_result).ValueOrDie();

  MiningConfig& mining = engine.mining_config();
  mining.max_pattern_size = 3;
  mining.local_gof_threshold = 0.15;
  mining.local_support_threshold = 3;
  mining.global_confidence_threshold = 0.3;
  mining.global_support_threshold = 5;
  mining.agg_functions = {AggFunc::kCount};
  ASSERT_TRUE(engine.MinePatterns().ok());
  ASSERT_GT(engine.patterns().size(), 0u);

  // phi1 = why is the number of Battery crimes in area 26 in 2011 low?
  auto dip = FilterEquals(*engine.table(), {{0, Value::String("Battery")},
                                            {1, Value::Int64(26)},
                                            {2, Value::Int64(2011)}});
  ASSERT_TRUE(dip.ok());
  ASSERT_GT((*dip)->num_rows(), 0);
  auto q = engine.MakeQuestion({"primary_type", "community", "year"},
                               {Value::String("Battery"), Value::Int64(26),
                                Value::Int64(2011)},
                               AggFunc::kCount, "*", Direction::kLow);
  ASSERT_TRUE(q.ok()) << q.status().ToString();

  auto result = engine.Explain(*q);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->explanations.empty())
      << "mined patterns:\n" << engine.RenderPatterns();

  // The 2012 Battery spike in area 26 (planted, Table 5 shape) must appear.
  bool found_2012_spike = false;
  for (const Explanation& e : result->explanations) {
    std::string rendered = e.ToString(engine.schema());
    if (rendered.find("2012") != std::string::npos &&
        rendered.find("community=26") != std::string::npos) {
      found_2012_spike = true;
    }
  }
  EXPECT_TRUE(found_2012_spike) << engine.RenderExplanations(result->explanations);
}

TEST(GroundTruthIntegrationTest, CapeRecoversPlantedCounterbalances) {
  CrimeOptions options;
  options.num_rows = 15000;
  options.num_communities = 8;
  options.num_types = 5;
  options.plant_scenario = false;
  auto base = GenerateCrime(options);
  ASSERT_TRUE(base.ok());

  GroundTruthOptions gt_options;
  gt_options.group_by = {"primary_type", "community", "year"};
  gt_options.num_questions = 4;
  gt_options.counterbalances_per_question = 3;
  gt_options.min_cell_rows = 10;
  auto injected = InjectGroundTruth(**base, gt_options);
  ASSERT_TRUE(injected.ok()) << injected.status().ToString();

  auto engine_result = Engine::FromTable(injected->table);
  ASSERT_TRUE(engine_result.ok());
  Engine engine = std::move(engine_result).ValueOrDie();
  MiningConfig& mining = engine.mining_config();
  mining.max_pattern_size = 3;
  mining.local_gof_threshold = 0.1;
  mining.local_support_threshold = 3;
  mining.global_confidence_threshold = 0.3;
  mining.global_support_threshold = 3;
  mining.agg_functions = {AggFunc::kCount};
  ASSERT_TRUE(engine.MinePatterns().ok());

  std::vector<std::vector<Explanation>> per_case;
  for (const GroundTruthCase& c : injected->cases) {
    auto result = engine.Explain(c.question);
    ASSERT_TRUE(result.ok());
    per_case.push_back(result->explanations);
  }
  const double precision = GroundTruthPrecision(injected->cases, per_case, 10);
  // With moderate thresholds CAPE must recover a meaningful share of the
  // planted counterbalances (Figure 7 reports ~0.2-0.6 in its sweet spot).
  EXPECT_GT(precision, 0.05) << "precision=" << precision;
}

}  // namespace
}  // namespace cape
