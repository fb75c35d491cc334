#include <gtest/gtest.h>

#include "explain/question_finder.h"
#include "pattern/mining.h"
#include "relational/table.h"

namespace cape {
namespace {

/// Stores with steady monthly counts; S1 spikes in month 5, S2 dips in
/// month 9; S3 is clean.
TablePtr ShopTable() {
  auto table = MakeEmptyTable({Field{"store", DataType::kString, false},
                               Field{"month", DataType::kInt64, false}});
  auto add_n = [&](const char* store, int month, int n) {
    for (int i = 0; i < n; ++i) {
      EXPECT_TRUE(table->AppendRow({Value::String(store), Value::Int64(month)}).ok());
    }
  };
  for (int month = 1; month <= 12; ++month) {
    add_n("S1", month, month == 5 ? 14 : 6);
    add_n("S2", month, month == 9 ? 2 : 7);
    add_n("S3", month, 5);
  }
  return table;
}

MiningConfig ShopMiningConfig() {
  MiningConfig config;
  config.max_pattern_size = 2;
  config.local_gof_threshold = 0.05;
  config.local_support_threshold = 4;
  config.global_confidence_threshold = 0.3;
  config.global_support_threshold = 2;
  config.agg_functions = {AggFunc::kCount};
  return config;
}

TEST(QuestionFinderTest, SurfacesPlantedOutliersWithDirections) {
  auto table = ShopTable();
  auto mined = MakeArpMiner()->Mine(*table, ShopMiningConfig());
  ASSERT_TRUE(mined.ok());
  ASSERT_GT(mined->patterns.size(), 0u);

  QuestionFinderOptions options;
  options.top_k = 5;
  options.min_outlierness = 0.3;
  auto questions = FindCandidateQuestions(table, mined->patterns, options);
  ASSERT_TRUE(questions.ok()) << questions.status().ToString();
  ASSERT_GE(questions->size(), 2u);

  // Ranked by outlierness, descending.
  for (size_t i = 1; i < questions->size(); ++i) {
    EXPECT_GE((*questions)[i - 1].outlierness, (*questions)[i].outlierness);
  }

  bool found_spike = false;
  bool found_dip = false;
  for (const CandidateQuestion& cq : *questions) {
    EXPECT_GE(cq.outlierness, 0.3);
    if (cq.question.group_values == Row{Value::String("S1"), Value::Int64(5)}) {
      found_spike = true;
      EXPECT_EQ(cq.question.dir, Direction::kHigh);
      EXPECT_GT(cq.deviation, 0.0);
      EXPECT_EQ(cq.question.result_value, 14.0);
    }
    if (cq.question.group_values == Row{Value::String("S2"), Value::Int64(9)}) {
      found_dip = true;
      EXPECT_EQ(cq.question.dir, Direction::kLow);
      EXPECT_LT(cq.deviation, 0.0);
    }
  }
  EXPECT_TRUE(found_spike);
  EXPECT_TRUE(found_dip);
}

TEST(QuestionFinderTest, ThresholdFiltersMildDeviations) {
  auto table = ShopTable();
  auto mined = MakeArpMiner()->Mine(*table, ShopMiningConfig());
  ASSERT_TRUE(mined.ok());
  QuestionFinderOptions options;
  options.min_outlierness = 10.0;  // nothing is that extreme
  auto questions = FindCandidateQuestions(table, mined->patterns, options);
  ASSERT_TRUE(questions.ok());
  EXPECT_TRUE(questions->empty());
}

TEST(QuestionFinderTest, TopKCapsAndValidatesQuestions) {
  auto table = ShopTable();
  auto mined = MakeArpMiner()->Mine(*table, ShopMiningConfig());
  ASSERT_TRUE(mined.ok());
  QuestionFinderOptions options;
  options.top_k = 1;
  options.min_outlierness = 0.2;
  auto questions = FindCandidateQuestions(table, mined->patterns, options);
  ASSERT_TRUE(questions.ok());
  ASSERT_EQ(questions->size(), 1u);
  // The returned question is fully validated and immediately usable.
  const UserQuestion& q = (*questions)[0].question;
  EXPECT_GT(q.result_value, 0.0);
  EXPECT_FALSE(q.group_values.empty());
  auto provenance = q.Provenance();
  ASSERT_TRUE(provenance.ok());
  EXPECT_EQ((*provenance)->num_rows(), static_cast<int64_t>(q.result_value));
}

TEST(QuestionFinderTest, TopKBelowOneIsRejected) {
  auto table = ShopTable();
  auto mined = MakeArpMiner()->Mine(*table, ShopMiningConfig());
  ASSERT_TRUE(mined.ok());
  for (int top_k : {0, -1}) {
    QuestionFinderOptions options;
    options.top_k = top_k;
    EXPECT_TRUE(FindCandidateQuestions(table, mined->patterns, options)
                    .status()
                    .IsInvalidArgument())
        << top_k;
    EXPECT_TRUE(
        FindCandidateQuestions(table, PatternSet(), options).status().IsInvalidArgument())
        << top_k;
  }
}

TEST(QuestionFinderTest, EmptyPatternsAndNullTable) {
  auto table = ShopTable();
  auto none = FindCandidateQuestions(table, PatternSet(), {});
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
  EXPECT_TRUE(FindCandidateQuestions(nullptr, PatternSet(), {}).status().IsInvalidArgument());
}

}  // namespace
}  // namespace cape
