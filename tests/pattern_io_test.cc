#include <gtest/gtest.h>

#include <cstdio>

#include "core/engine.h"
#include "datagen/dblp.h"
#include "pattern/mining.h"
#include "pattern/pattern_io.h"
#include "relational/table.h"
#include "test_util.h"

namespace cape {
namespace {

/// Mines a non-trivial pattern set (both Const and Lin models, multi-attr
/// fragments, string values with spaces) to serialize.
struct MinedFixture {
  TablePtr table;
  PatternSet patterns;
};

MinedFixture Mine() {
  auto table = MakeEmptyTable({Field{"author name", DataType::kString, false},
                               Field{"year", DataType::kInt64, false},
                               Field{"venue", DataType::kString, false}});
  const char* authors[] = {"Ada L.", "Grace%H", "Edsger\tD", "Barbara"};
  const char* venues[] = {"SIG KDD", "ICDE"};
  for (int a = 0; a < 4; ++a) {
    for (int year = 2000; year < 2010; ++year) {
      for (int v = 0; v < 2; ++v) {
        const int n = 2 + (a + year + v) % 3;
        for (int i = 0; i < n; ++i) {
          EXPECT_TRUE(table
                          ->AppendRow({Value::String(authors[a]), Value::Int64(year),
                                       Value::String(venues[v])})
                          .ok());
        }
      }
    }
  }
  MiningConfig config;
  config.max_pattern_size = 3;
  config.local_gof_threshold = 0.05;
  config.local_support_threshold = 3;
  config.global_confidence_threshold = 0.2;
  config.global_support_threshold = 2;
  config.agg_functions = {AggFunc::kCount};
  auto result = MakeArpMiner()->Mine(*table, config);
  EXPECT_TRUE(result.ok());
  return MinedFixture{table, std::move(result->patterns)};
}

void ExpectPatternSetsEqual(const PatternSet& a, const PatternSet& b) {
  ASSERT_EQ(a.size(), b.size());
  for (const GlobalPattern& gp : a.patterns()) {
    const GlobalPattern* other = b.Find(gp.pattern);
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(gp.num_fragments, other->num_fragments);
    EXPECT_EQ(gp.num_supported, other->num_supported);
    EXPECT_EQ(gp.num_holding, other->num_holding);
    EXPECT_DOUBLE_EQ(gp.global_confidence, other->global_confidence);
    EXPECT_DOUBLE_EQ(gp.max_positive_dev, other->max_positive_dev);
    EXPECT_DOUBLE_EQ(gp.min_negative_dev, other->min_negative_dev);
    ASSERT_EQ(gp.locals.size(), other->locals.size());
    for (const LocalPattern& local : gp.locals) {
      const LocalPattern* other_local = other->FindLocal(local.fragment);
      ASSERT_NE(other_local, nullptr);
      EXPECT_EQ(local.support, other_local->support);
      EXPECT_DOUBLE_EQ(local.max_positive_dev, other_local->max_positive_dev);
      EXPECT_DOUBLE_EQ(local.min_negative_dev, other_local->min_negative_dev);
      EXPECT_EQ(local.model->type(), other_local->model->type());
      EXPECT_DOUBLE_EQ(local.model->goodness_of_fit(),
                       other_local->model->goodness_of_fit());
      EXPECT_EQ(local.model->num_samples(), other_local->model->num_samples());
      // Prediction round-trips exactly (FormatDouble is lossless).
      for (double x : {0.0, 2003.0, 2009.5}) {
        EXPECT_DOUBLE_EQ(local.model->Predict({x}), other_local->model->Predict({x}));
      }
    }
  }
}

TEST(PatternIoTest, RoundTripPreservesEverything) {
  MinedFixture fixture = Mine();
  ASSERT_GT(fixture.patterns.size(), 0u);
  const std::string text =
      SerializePatternSet(fixture.patterns, *fixture.table->schema());
  auto loaded = DeserializePatternSet(text, *fixture.table->schema());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectPatternSetsEqual(fixture.patterns, *loaded);
  // And the round-trip is a fixpoint.
  EXPECT_EQ(text, SerializePatternSet(*loaded, *fixture.table->schema()));
}

TEST(PatternIoTest, EmptySetRoundTrips) {
  auto table = MakeEmptyTable({Field{"x", DataType::kInt64, false}});
  const std::string text = SerializePatternSet(PatternSet(), *table->schema());
  auto loaded = DeserializePatternSet(text, *table->schema());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 0u);
}

TEST(PatternIoTest, SchemaMismatchRejected) {
  MinedFixture fixture = Mine();
  const std::string text =
      SerializePatternSet(fixture.patterns, *fixture.table->schema());

  auto wrong_arity = Schema::Make({Field{"author name", DataType::kString, false}});
  EXPECT_TRUE(DeserializePatternSet(text, *wrong_arity).status().IsInvalidArgument());

  auto wrong_name = Schema::Make({Field{"renamed", DataType::kString, false},
                                  Field{"year", DataType::kInt64, false},
                                  Field{"venue", DataType::kString, false}});
  EXPECT_TRUE(DeserializePatternSet(text, *wrong_name).status().IsInvalidArgument());

  auto wrong_type = Schema::Make({Field{"author name", DataType::kString, false},
                                  Field{"year", DataType::kDouble, false},
                                  Field{"venue", DataType::kString, false}});
  EXPECT_TRUE(DeserializePatternSet(text, *wrong_type).status().IsInvalidArgument());
}

TEST(PatternIoTest, CorruptInputRejected) {
  MinedFixture fixture = Mine();
  const Schema& schema = *fixture.table->schema();
  EXPECT_TRUE(DeserializePatternSet("", schema).status().IsNotFound());
  EXPECT_TRUE(DeserializePatternSet("BOGUS HEADER", schema).status().IsInvalidArgument());
  const std::string text = SerializePatternSet(fixture.patterns, schema);
  // Truncation mid-file.
  EXPECT_FALSE(DeserializePatternSet(text.substr(0, text.size() / 2), schema).ok());
  // Garbled numeric field.
  std::string garbled = text;
  size_t pos = garbled.find("pattern ");
  ASSERT_NE(pos, std::string::npos);
  garbled.replace(pos, 9, "pattern x");
  EXPECT_FALSE(DeserializePatternSet(garbled, schema).ok());
}

TEST(PatternIoTest, EngineSaveLoadWorkflow) {
  DblpOptions options;
  options.num_rows = 4000;
  auto table = GenerateDblp(options);
  ASSERT_TRUE(table.ok());

  const std::string path = TestTempPath("patterns.arp");

  // Offline phase: mine and save.
  {
    Engine engine = std::move(Engine::FromTable(*table)).ValueOrDie();
    MiningConfig& mining = engine.mining_config();
    mining.max_pattern_size = 3;
    mining.local_gof_threshold = 0.2;
    mining.local_support_threshold = 3;
    mining.global_confidence_threshold = 0.3;
    mining.global_support_threshold = 10;
    mining.agg_functions = {AggFunc::kCount};
    mining.excluded_attrs = {"pubid"};
    EXPECT_TRUE(engine.SavePatterns(path).IsInvalidArgument());  // nothing mined yet
    ASSERT_TRUE(engine.MinePatterns().ok());
    ASSERT_TRUE(engine.SavePatterns(path).ok());
  }

  // Online phase: load and explain without re-mining.
  {
    Engine engine = std::move(Engine::FromTable(*table)).ValueOrDie();
    ASSERT_TRUE(engine.LoadPatterns(path).ok());
    ASSERT_TRUE(engine.has_patterns());
    ASSERT_GT(engine.patterns().size(), 0u);
    auto q = engine.MakeQuestion({"author", "venue", "year"},
                                 {Value::String(kDblpPlantedAuthor),
                                  Value::String("SIGKDD"), Value::Int64(2007)},
                                 AggFunc::kCount, "*", Direction::kLow);
    ASSERT_TRUE(q.ok());
    auto result = engine.Explain(*q);
    ASSERT_TRUE(result.ok());
    EXPECT_FALSE(result->explanations.empty());
  }
  std::remove(path.c_str());
  EXPECT_TRUE(LoadPatternSet("/no/such/file.arp", *(*table)->schema()).status().IsIOError());
}

TEST(PatternIoTest, MinedAndLoadedPatternsExplainIdentically) {
  MinedFixture fixture = Mine();
  const std::string text =
      SerializePatternSet(fixture.patterns, *fixture.table->schema());
  auto loaded = DeserializePatternSet(text, *fixture.table->schema());
  ASSERT_TRUE(loaded.ok());

  auto q = MakeUserQuestion(fixture.table, {"author name", "venue", "year"},
                            {Value::String("Ada L."), Value::String("ICDE"),
                             Value::Int64(2005)},
                            AggFunc::kCount, "*", Direction::kLow);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  DistanceModel distance = DistanceModel::MakeDefault(*fixture.table);
  auto from_mined =
      MakeOptimizedExplainer()->Explain(*q, fixture.patterns, distance, {});
  auto from_loaded = MakeOptimizedExplainer()->Explain(*q, *loaded, distance, {});
  ASSERT_TRUE(from_mined.ok());
  ASSERT_TRUE(from_loaded.ok());
  ASSERT_EQ(from_mined->explanations.size(), from_loaded->explanations.size());
  for (size_t i = 0; i < from_mined->explanations.size(); ++i) {
    EXPECT_DOUBLE_EQ(from_mined->explanations[i].score,
                     from_loaded->explanations[i].score);
    EXPECT_EQ(from_mined->explanations[i].tuple_values,
              from_loaded->explanations[i].tuple_values);
  }
}

}  // namespace
}  // namespace cape
