#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "core/engine.h"
#include "explain/baseline.h"
#include "explain/distance.h"
#include "explain/explainer.h"
#include "explain/narrative.h"
#include "explain/user_question.h"
#include "pattern/mining.h"
#include "relational/table.h"

namespace cape {
namespace {

/// A small table engineered for Example 5: three authors with constant
/// yearly output; AX dips in SIGKDD 2007 and spikes in ICDE 2007.
TablePtr Example5Table() {
  auto table = MakeEmptyTable({Field{"author", DataType::kString, false},
                               Field{"year", DataType::kInt64, false},
                               Field{"venue", DataType::kString, false}});
  auto add_n = [&](const char* a, int y, const char* v, int n) {
    for (int i = 0; i < n; ++i) {
      EXPECT_TRUE(
          table->AppendRow({Value::String(a), Value::Int64(y), Value::String(v)}).ok());
    }
  };
  for (int year = 2004; year <= 2009; ++year) {
    // AX: SIGKDD 3/year except 1 in 2007; ICDE 3/year except 6 in 2007.
    add_n("AX", year, "SIGKDD", year == 2007 ? 1 : 3);
    add_n("AX", year, "ICDE", year == 2007 ? 6 : 3);
    // Background authors keep the patterns globally supported.
    add_n("AY", year, "SIGKDD", 2);
    add_n("AY", year, "ICDE", 2);
    add_n("AZ", year, "SIGKDD", 4);
    add_n("AZ", year, "ICDE", 3);
  }
  return table;
}

MiningConfig Example5MiningConfig() {
  MiningConfig config;
  config.max_pattern_size = 3;
  config.local_gof_threshold = 0.2;
  config.local_support_threshold = 3;
  config.global_confidence_threshold = 0.5;
  config.global_support_threshold = 2;
  config.agg_functions = {AggFunc::kCount};
  return config;
}

UserQuestion Phi0(TablePtr table) {
  auto q = MakeUserQuestion(
      table, {"author", "venue", "year"},
      {Value::String("AX"), Value::String("SIGKDD"), Value::Int64(2007)}, AggFunc::kCount,
      "*", Direction::kLow);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return std::move(q).ValueOrDie();
}

TEST(UserQuestionTest, BuildsAndValidates) {
  auto table = Example5Table();
  UserQuestion q = Phi0(table);
  EXPECT_EQ(q.result_value, 1.0);
  EXPECT_EQ(q.group_attrs, AttrSet::FromIndices({0, 1, 2}));
  // Values normalized to ascending attribute order: author, year, venue.
  EXPECT_EQ(q.group_values[0], Value::String("AX"));
  EXPECT_EQ(q.group_values[1], Value::Int64(2007));
  EXPECT_EQ(q.group_values[2], Value::String("SIGKDD"));
  EXPECT_NE(q.ToString().find("low"), std::string::npos);

  // Projection helper.
  EXPECT_EQ(q.ProjectGroupValues(AttrSet::Single(0)), (Row{Value::String("AX")}));
  EXPECT_EQ(q.ProjectGroupValues(AttrSet::FromIndices({1, 2})),
            (Row{Value::Int64(2007), Value::String("SIGKDD")}));
}

TEST(UserQuestionTest, RejectionCases) {
  auto table = Example5Table();
  // Unknown attribute.
  EXPECT_TRUE(MakeUserQuestion(table, {"bogus"}, {Value::Int64(1)}, AggFunc::kCount, "*",
                               Direction::kLow)
                  .status()
                  .IsNotFound());
  // Tuple not in Q(R).
  EXPECT_TRUE(MakeUserQuestion(table, {"author"}, {Value::String("NOBODY")},
                               AggFunc::kCount, "*", Direction::kLow)
                  .status()
                  .IsNotFound());
  // Arity mismatch.
  EXPECT_TRUE(MakeUserQuestion(table, {"author", "year"}, {Value::String("AX")},
                               AggFunc::kCount, "*", Direction::kLow)
                  .status()
                  .IsInvalidArgument());
  // Duplicate group-by attribute.
  EXPECT_TRUE(MakeUserQuestion(table, {"author", "author"},
                               {Value::String("AX"), Value::String("AX")}, AggFunc::kCount,
                               "*", Direction::kLow)
                  .status()
                  .IsInvalidArgument());
  // Aggregated attribute inside the group-by.
  EXPECT_TRUE(MakeUserQuestion(table, {"year"}, {Value::Int64(2007)}, AggFunc::kSum,
                               "year", Direction::kLow)
                  .status()
                  .IsInvalidArgument());
  // Null relation.
  EXPECT_TRUE(MakeUserQuestion(nullptr, {"author"}, {Value::String("AX")}, AggFunc::kCount,
                               "*", Direction::kLow)
                  .status()
                  .IsInvalidArgument());
}

TEST(DistanceModelTest, AttributeDistances) {
  CategoricalDistance cat;
  EXPECT_DOUBLE_EQ(cat.Distance(Value::String("a"), Value::String("a")), 0.0);
  EXPECT_DOUBLE_EQ(cat.Distance(Value::String("a"), Value::String("b")), 1.0);

  NumericDistance num(10.0);
  EXPECT_DOUBLE_EQ(num.Distance(Value::Int64(3), Value::Int64(3)), 0.0);
  EXPECT_DOUBLE_EQ(num.Distance(Value::Int64(3), Value::Int64(8)), 0.5);
  EXPECT_DOUBLE_EQ(num.Distance(Value::Int64(0), Value::Int64(100)), 1.0);
  EXPECT_DOUBLE_EQ(num.Distance(Value::Null(), Value::Int64(1)), 1.0);

  BandedNumericDistance banded(2.0);
  EXPECT_DOUBLE_EQ(banded.Distance(Value::Int64(2007), Value::Int64(2007)), 0.0);
  EXPECT_DOUBLE_EQ(banded.Distance(Value::Int64(2007), Value::Int64(2006)), 0.5);
  EXPECT_DOUBLE_EQ(banded.Distance(Value::Int64(2007), Value::Int64(2012)), 1.0);

  ClassBasedDistance classes({{"SIGKDD", 0}, {"ICDM", 0}, {"SIGMOD", 1}, {"VLDB", 1}},
                             0.4);
  EXPECT_DOUBLE_EQ(classes.Distance(Value::String("SIGKDD"), Value::String("SIGKDD")), 0.0);
  EXPECT_DOUBLE_EQ(classes.Distance(Value::String("SIGKDD"), Value::String("ICDM")), 0.4);
  EXPECT_DOUBLE_EQ(classes.Distance(Value::String("SIGKDD"), Value::String("VLDB")), 1.0);
  EXPECT_DOUBLE_EQ(classes.Distance(Value::String("SIGKDD"), Value::String("UNKNOWN")),
                   1.0);
}

TEST(DistanceModelTest, Definition9Semantics) {
  auto table = Example5Table();
  DistanceModel model = DistanceModel::MakeDefault(*table);

  // Identity.
  AttrSet all = AttrSet::FromIndices({0, 1, 2});
  Row t{Value::String("AX"), Value::Int64(2007), Value::String("SIGKDD")};
  EXPECT_DOUBLE_EQ(model.Distance(all, t, all, t), 0.0);

  // Symmetry.
  Row u{Value::String("AX"), Value::Int64(2007), Value::String("ICDE")};
  EXPECT_DOUBLE_EQ(model.Distance(all, t, all, u), model.Distance(all, u, all, t));

  // One attribute differs fully (venue): sqrt(w / (3w)) = sqrt(1/3).
  EXPECT_NEAR(model.Distance(all, t, all, u), std::sqrt(1.0 / 3.0), 1e-12);

  // Missing attribute counts as distance 1: t over (author, year) only.
  AttrSet coarse = AttrSet::FromIndices({0, 1});
  Row tc{Value::String("AX"), Value::Int64(2007)};
  EXPECT_NEAR(model.Distance(all, t, coarse, tc), std::sqrt(1.0 / 3.0), 1e-12);

  // Disjoint schemas: everything contributes 1.
  AttrSet venue_only = AttrSet::Single(2);
  Row tv{Value::String("SIGKDD")};
  EXPECT_NEAR(model.Distance(coarse, tc, venue_only, tv), 1.0, 1e-12);
}

TEST(DistanceModelTest, WeightsAffectDistance) {
  auto table = Example5Table();
  DistanceModel model = DistanceModel::MakeDefault(*table);
  AttrSet all = AttrSet::FromIndices({0, 1, 2});
  Row t{Value::String("AX"), Value::Int64(2007), Value::String("SIGKDD")};
  Row u{Value::String("AY"), Value::Int64(2007), Value::String("SIGKDD")};
  const double before = model.Distance(all, t, all, u);
  model.SetWeight(0, 0.05);  // de-emphasize author
  const double after = model.Distance(all, t, all, u);
  EXPECT_LT(after, before);
}

TEST(DistanceModelTest, LowerBoundIsSoundOverRandomTuples) {
  auto table = Example5Table();
  DistanceModel model = DistanceModel::MakeDefault(*table);
  std::mt19937_64 rng(9);
  const char* authors[] = {"AX", "AY", "AZ"};
  const char* venues[] = {"SIGKDD", "ICDE"};
  for (int trial = 0; trial < 200; ++trial) {
    AttrSet a1(rng() % 7 + 1);  // non-empty subset of {0,1,2}
    AttrSet a2(rng() % 7 + 1);
    auto make_values = [&](AttrSet attrs) {
      Row row;
      for (int attr : attrs.ToIndices()) {
        if (attr == 0) row.push_back(Value::String(authors[rng() % 3]));
        if (attr == 1) row.push_back(Value::Int64(2004 + static_cast<int>(rng() % 6)));
        if (attr == 2) row.push_back(Value::String(venues[rng() % 2]));
      }
      return row;
    };
    Row v1 = make_values(a1);
    Row v2 = make_values(a2);
    EXPECT_LE(model.LowerBound(a1, a2), model.Distance(a1, v1, a2, v2) + 1e-12);
  }
}

TEST(ExplainTest, Example5CounterbalanceIsFound) {
  auto table = Example5Table();
  auto mined = MakeArpMiner()->Mine(*table, Example5MiningConfig());
  ASSERT_TRUE(mined.ok());
  ASSERT_GT(mined->patterns.size(), 0u);

  UserQuestion q = Phi0(table);
  DistanceModel distance = DistanceModel::MakeDefault(*table);
  ExplainConfig config;
  config.top_k = 10;
  auto result = MakeNaiveExplainer()->Explain(q, mined->patterns, distance, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(result->explanations.empty());

  // The ICDE 2007 spike must appear among the counterbalances.
  bool found_icde_2007 = false;
  for (const Explanation& e : result->explanations) {
    if (e.tuple_attrs == AttrSet::FromIndices({0, 1, 2}) &&
        e.tuple_values == Row{Value::String("AX"), Value::Int64(2007),
                              Value::String("ICDE")}) {
      found_icde_2007 = true;
      EXPECT_GT(e.agg_value, e.predicted);  // deviates opposite to `low`
      EXPECT_GT(e.deviation, 0.0);
      EXPECT_GT(e.score, 0.0);
    }
    // Every explanation must counterbalance: positive deviation for `low`.
    EXPECT_GT(e.deviation, 0.0);
    // Scores are internally consistent with Definition 10.
    EXPECT_NEAR(e.score,
                e.deviation / ((e.distance + config.epsilon) *
                               (std::fabs(e.norm) + config.epsilon)),
                1e-9);
  }
  EXPECT_TRUE(found_icde_2007);

  // The question tuple itself never appears.
  for (const Explanation& e : result->explanations) {
    EXPECT_FALSE(e.tuple_attrs == q.group_attrs && e.tuple_values == q.group_values);
  }
}

TEST(ExplainTest, HighDirectionFindsNegativeDeviations) {
  auto table = Example5Table();
  auto mined = MakeArpMiner()->Mine(*table, Example5MiningConfig());
  ASSERT_TRUE(mined.ok());
  // "Why is AX's ICDE 2007 count high?" — SIGKDD 2007 dip counterbalances.
  auto q = MakeUserQuestion(table, {"author", "venue", "year"},
                            {Value::String("AX"), Value::String("ICDE"), Value::Int64(2007)},
                            AggFunc::kCount, "*", Direction::kHigh);
  ASSERT_TRUE(q.ok());
  DistanceModel distance = DistanceModel::MakeDefault(*table);
  auto result = MakeNaiveExplainer()->Explain(*q, mined->patterns, distance, {});
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->explanations.empty());
  for (const Explanation& e : result->explanations) {
    EXPECT_LT(e.deviation, 0.0);
    EXPECT_GT(e.score, 0.0);
  }
  bool found_sigkdd_dip = false;
  for (const Explanation& e : result->explanations) {
    if (e.tuple_values == Row{Value::String("AX"), Value::Int64(2007),
                              Value::String("SIGKDD")}) {
      found_sigkdd_dip = true;
    }
  }
  EXPECT_TRUE(found_sigkdd_dip);
}

TEST(ExplainTest, NoDuplicateTuplesInTopK) {
  auto table = Example5Table();
  auto mined = MakeArpMiner()->Mine(*table, Example5MiningConfig());
  ASSERT_TRUE(mined.ok());
  UserQuestion q = Phi0(table);
  DistanceModel distance = DistanceModel::MakeDefault(*table);
  auto result = MakeOptimizedExplainer()->Explain(q, mined->patterns, distance, {});
  ASSERT_TRUE(result.ok());
  std::set<std::string> seen;
  for (const Explanation& e : result->explanations) {
    std::string key = std::to_string(e.tuple_attrs.bits());
    for (const Value& v : e.tuple_values) key += "|" + v.ToString();
    EXPECT_TRUE(seen.insert(key).second) << "duplicate tuple " << key;
  }
}

TEST(ExplainTest, EmptyPatternSetYieldsNoExplanations) {
  auto table = Example5Table();
  UserQuestion q = Phi0(table);
  DistanceModel distance = DistanceModel::MakeDefault(*table);
  auto result = MakeNaiveExplainer()->Explain(q, PatternSet(), distance, {});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->explanations.empty());
  EXPECT_EQ(result->profile.num_relevant_patterns, 0);
}

TEST(ExplainTest, TopKLimitsOutput) {
  auto table = Example5Table();
  auto mined = MakeArpMiner()->Mine(*table, Example5MiningConfig());
  ASSERT_TRUE(mined.ok());
  UserQuestion q = Phi0(table);
  DistanceModel distance = DistanceModel::MakeDefault(*table);
  ExplainConfig config;
  config.top_k = 2;
  auto small = MakeNaiveExplainer()->Explain(q, mined->patterns, distance, config);
  ASSERT_TRUE(small.ok());
  EXPECT_LE(small->explanations.size(), 2u);
  config.top_k = 1000;
  auto large = MakeNaiveExplainer()->Explain(q, mined->patterns, distance, config);
  ASSERT_TRUE(large.ok());
  EXPECT_GE(large->explanations.size(), small->explanations.size());
  // Scores are sorted descending.
  for (size_t i = 1; i < large->explanations.size(); ++i) {
    EXPECT_GE(large->explanations[i - 1].score, large->explanations[i].score);
  }
}

TEST(ExplainTest, TopKBelowOneIsRejected) {
  // top_k sizes the candidate pools and the baseline's cut; below 1 it is a
  // caller error on every entry point, not a crash or an empty answer.
  auto engine = Engine::FromTable(Example5Table());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  engine->mining_config() = Example5MiningConfig();
  ASSERT_TRUE(engine->MinePatterns().ok());
  const UserQuestion q = Phi0(engine->table());
  for (const int k : {0, -1}) {
    engine->explain_config().top_k = k;
    for (const bool optimized : {false, true}) {
      EXPECT_TRUE(engine->Explain(q, optimized).status().IsInvalidArgument())
          << "top_k " << k << " optimized " << optimized;
    }
    auto session = engine->MakeExplainSession();
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    EXPECT_TRUE(session->Explain(q).status().IsInvalidArgument()) << "top_k " << k;
    EXPECT_TRUE(engine->ExplainBaseline(q).status().IsInvalidArgument()) << "top_k " << k;
  }
  engine->explain_config().top_k = 1;
  auto one = engine->Explain(q);
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  EXPECT_EQ(one->explanations.size(), 1u);
}

TEST(ExplainTest, ProfileTimesStageOneAndTheMerge) {
  auto table = Example5Table();
  auto mined = MakeArpMiner()->Mine(*table, Example5MiningConfig());
  ASSERT_TRUE(mined.ok());
  UserQuestion q = Phi0(table);
  DistanceModel distance = DistanceModel::MakeDefault(*table);
  for (const int threads : {1, 4}) {
    ExplainConfig config;
    config.num_threads = threads;
    for (auto make : {MakeNaiveExplainer, MakeOptimizedExplainer}) {
      auto result = make()->Explain(q, mined->patterns, distance, config);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ASSERT_FALSE(result->explanations.empty());
      const ExplainProfile& profile = result->profile;
      EXPECT_GT(profile.stage1_ns, 0) << threads << " threads";
      EXPECT_GT(profile.merge_ns, 0) << threads << " threads";
      EXPECT_LE(profile.stage1_ns + profile.merge_ns, profile.total_ns)
          << threads << " threads";
    }
  }
}

/// Property: the optimized generator returns exactly the naive top-k.
class OptEquivalenceProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OptEquivalenceProperty, OptimizedMatchesNaive) {
  std::mt19937_64 rng(GetParam());
  // Random publications table.
  auto table = MakeEmptyTable({Field{"author", DataType::kString, false},
                               Field{"year", DataType::kInt64, false},
                               Field{"venue", DataType::kString, false}});
  const char* authors[] = {"A", "B", "C", "D", "E", "F"};
  const char* venues[] = {"V1", "V2", "V3"};
  for (int i = 0; i < 900; ++i) {
    ASSERT_TRUE(table
                    ->AppendRow({Value::String(authors[rng() % 6]),
                                 Value::Int64(2000 + static_cast<int>(rng() % 8)),
                                 Value::String(venues[rng() % 3])})
                    .ok());
  }
  MiningConfig mining_config;
  mining_config.max_pattern_size = 3;
  mining_config.local_gof_threshold = 0.05;
  mining_config.local_support_threshold = 3;
  mining_config.global_confidence_threshold = 0.2;
  mining_config.global_support_threshold = 2;
  mining_config.agg_functions = {AggFunc::kCount};
  auto mined = MakeArpMiner()->Mine(*table, mining_config);
  ASSERT_TRUE(mined.ok());
  if (mined->patterns.empty()) GTEST_SKIP() << "no patterns on this seed";

  // Ask about a random existing group.
  auto groups = GroupByAggregate(*table, std::vector<int>{0, 1, 2},
                                 {AggregateSpec::CountStar("cnt")});
  ASSERT_TRUE(groups.ok());
  const int64_t row = static_cast<int64_t>(rng() % (*groups)->num_rows());
  auto q = MakeUserQuestion(
      table, {"author", "year", "venue"},
      {(*groups)->GetValue(row, 0), (*groups)->GetValue(row, 1), (*groups)->GetValue(row, 2)},
      AggFunc::kCount, "*", rng() % 2 == 0 ? Direction::kLow : Direction::kHigh);
  ASSERT_TRUE(q.ok());

  DistanceModel distance = DistanceModel::MakeDefault(*table);
  ExplainConfig config;
  config.top_k = 7;
  auto naive = MakeNaiveExplainer()->Explain(*q, mined->patterns, distance, config);
  auto opt = MakeOptimizedExplainer()->Explain(*q, mined->patterns, distance, config);
  ASSERT_TRUE(naive.ok());
  ASSERT_TRUE(opt.ok());

  ASSERT_EQ(naive->explanations.size(), opt->explanations.size());
  for (size_t i = 0; i < naive->explanations.size(); ++i) {
    EXPECT_NEAR(naive->explanations[i].score, opt->explanations[i].score, 1e-9);
    EXPECT_EQ(naive->explanations[i].tuple_values, opt->explanations[i].tuple_values);
    EXPECT_EQ(naive->explanations[i].tuple_attrs, opt->explanations[i].tuple_attrs);
  }
  // The optimized generator must never *examine* more tuples than naive.
  EXPECT_LE(opt->profile.num_tuples_checked, naive->profile.num_tuples_checked);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptEquivalenceProperty,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707, 808));

TEST(ExplainTest, SumAggregateEndToEnd) {
  // Retail-style relation: stores with steady monthly revenue; store S1
  // dips in month 6 and spikes in month 7.
  auto table = MakeEmptyTable({Field{"store", DataType::kString, false},
                               Field{"month", DataType::kInt64, false},
                               Field{"amount", DataType::kInt64, false}});
  auto add_sales = [&](const char* store, int month, int total) {
    // Split the monthly total into a few transactions.
    int remaining = total;
    while (remaining > 0) {
      int tx = std::min(remaining, 25);
      ASSERT_TRUE(table
                      ->AppendRow({Value::String(store), Value::Int64(month),
                                   Value::Int64(tx)})
                      .ok());
      remaining -= tx;
    }
  };
  for (int month = 1; month <= 12; ++month) {
    add_sales("S1", month, month == 6 ? 75 : (month == 7 ? 130 : 100));
    add_sales("S2", month, 80);
    add_sales("S3", month, 120);
  }

  MiningConfig mining;
  mining.max_pattern_size = 2;
  mining.local_gof_threshold = 0.01;  // sums have large absolute chi-square stats
  mining.local_support_threshold = 4;
  mining.global_confidence_threshold = 0.3;
  mining.global_support_threshold = 2;
  mining.agg_functions = {AggFunc::kSum};
  auto mined = MakeArpMiner()->Mine(*table, mining);
  ASSERT_TRUE(mined.ok());
  Pattern store_month_sum{AttrSet::Single(0), AttrSet::Single(1), AggFunc::kSum, 2,
                          ModelType::kConst};
  ASSERT_NE(mined->patterns.Find(store_month_sum), nullptr)
      << mined->patterns.ToString(*table->schema());

  auto q = MakeUserQuestion(table, {"store", "month"},
                            {Value::String("S1"), Value::Int64(6)}, AggFunc::kSum,
                            "amount", Direction::kLow);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->result_value, 75.0);

  DistanceModel distance = DistanceModel::MakeDefault(*table);
  auto result = MakeOptimizedExplainer()->Explain(*q, mined->patterns, distance, {});
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->explanations.empty());
  // The month-7 revenue spike must be the counterbalance.
  bool found_spike = false;
  for (const Explanation& e : result->explanations) {
    EXPECT_GT(e.deviation, 0.0);
    if (e.tuple_values == Row{Value::String("S1"), Value::Int64(7)}) {
      found_spike = true;
      EXPECT_DOUBLE_EQ(e.agg_value, 130.0);
    }
  }
  EXPECT_TRUE(found_spike);
}

TEST(ExplainTest, ProvenanceIsTheQuestionSlice) {
  auto table = Example5Table();
  UserQuestion q = Phi0(table);
  auto provenance = q.Provenance();
  ASSERT_TRUE(provenance.ok());
  // Exactly the 1 SIGKDD 2007 paper — the paper's point: provenance alone
  // cannot explain why the count is low.
  EXPECT_EQ((*provenance)->num_rows(), 1);
  EXPECT_EQ((*provenance)->GetValue(0, 0), Value::String("AX"));
  EXPECT_EQ((*provenance)->GetValue(0, 2), Value::String("SIGKDD"));
}

TEST(ExplainTest, AblationFlagsPreserveResults) {
  auto table = Example5Table();
  auto mined = MakeArpMiner()->Mine(*table, Example5MiningConfig());
  ASSERT_TRUE(mined.ok());
  UserQuestion q = Phi0(table);
  DistanceModel distance = DistanceModel::MakeDefault(*table);

  ExplainConfig config;
  auto reference = MakeNaiveExplainer()->Explain(q, mined->patterns, distance, config);
  ASSERT_TRUE(reference.ok());
  for (bool prune_pairs : {false, true}) {
    for (bool prune_locals : {false, true}) {
      config.prune_pairs = prune_pairs;
      config.prune_locals = prune_locals;
      auto variant = MakeOptimizedExplainer()->Explain(q, mined->patterns, distance, config);
      ASSERT_TRUE(variant.ok());
      ASSERT_EQ(variant->explanations.size(), reference->explanations.size());
      for (size_t i = 0; i < variant->explanations.size(); ++i) {
        EXPECT_NEAR(variant->explanations[i].score, reference->explanations[i].score,
                    1e-9);
      }
    }
  }
}

TEST(NarrativeTest, RendersExample5Interpretation) {
  auto table = Example5Table();
  auto mined = MakeArpMiner()->Mine(*table, Example5MiningConfig());
  ASSERT_TRUE(mined.ok());
  UserQuestion q = Phi0(table);
  DistanceModel distance = DistanceModel::MakeDefault(*table);
  auto result = MakeOptimizedExplainer()->Explain(q, mined->patterns, distance, {});
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->explanations.empty());

  const Explanation* icde = nullptr;
  for (const Explanation& e : result->explanations) {
    if (e.tuple_values ==
        Row{Value::String("AX"), Value::Int64(2007), Value::String("ICDE")}) {
      icde = &e;
    }
  }
  ASSERT_NE(icde, nullptr);
  const std::string narrative = NarrateExplanation(q, *icde, *table->schema());
  // The Example 5 story, in one sentence: pattern context, the low
  // observation, and the counterbalance with its deviation.
  EXPECT_NE(narrative.find("Even though"), std::string::npos);
  EXPECT_NE(narrative.find("lower than expected"), std::string::npos);
  EXPECT_NE(narrative.find("venue=SIGKDD"), std::string::npos);
  EXPECT_NE(narrative.find("venue=ICDE"), std::string::npos);
  EXPECT_NE(narrative.find("above"), std::string::npos) << narrative;

  // High direction flips the phrasing.
  auto high_q = MakeUserQuestion(table, {"author", "venue", "year"},
                                 {Value::String("AX"), Value::String("ICDE"),
                                  Value::Int64(2007)},
                                 AggFunc::kCount, "*", Direction::kHigh);
  ASSERT_TRUE(high_q.ok());
  auto high_result =
      MakeOptimizedExplainer()->Explain(*high_q, mined->patterns, distance, {});
  ASSERT_TRUE(high_result.ok());
  ASSERT_FALSE(high_result->explanations.empty());
  const std::string high_narrative =
      NarrateExplanation(*high_q, high_result->explanations[0], *table->schema());
  EXPECT_NE(high_narrative.find("higher than expected"), std::string::npos);
  EXPECT_NE(high_narrative.find("below"), std::string::npos);
}

TEST(MissingValueQuestionTest, ZeroCountQuestionIsExplainable) {
  // Like Example5Table but AX has NO SIGKDD papers at all in 2007 — the
  // paper's Section 7 open problem.
  auto table = MakeEmptyTable({Field{"author", DataType::kString, false},
                               Field{"year", DataType::kInt64, false},
                               Field{"venue", DataType::kString, false}});
  auto add_n = [&](const char* a, int y, const char* v, int n) {
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(
          table->AppendRow({Value::String(a), Value::Int64(y), Value::String(v)}).ok());
    }
  };
  for (int year = 2004; year <= 2009; ++year) {
    add_n("AX", year, "SIGKDD", year == 2007 ? 0 : 3);
    add_n("AX", year, "ICDE", year == 2007 ? 6 : 3);
    add_n("AY", year, "SIGKDD", 2);
    add_n("AY", year, "ICDE", 2);
    add_n("AZ", year, "SIGKDD", 4);
    add_n("AZ", year, "ICDE", 3);
  }

  // MakeUserQuestion refuses (t not in Q(R)); the missing-value variant
  // accepts and models the count as 0.
  EXPECT_TRUE(MakeUserQuestion(table, {"author", "venue", "year"},
                               {Value::String("AX"), Value::String("SIGKDD"),
                                Value::Int64(2007)},
                               AggFunc::kCount, "*", Direction::kLow)
                  .status()
                  .IsNotFound());
  auto q = MakeMissingValueQuestion(table, {"author", "venue", "year"},
                                    {Value::String("AX"), Value::String("SIGKDD"),
                                     Value::Int64(2007)});
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->result_value, 0.0);
  EXPECT_EQ(q->dir, Direction::kLow);
  auto provenance = q->Provenance();
  ASSERT_TRUE(provenance.ok());
  EXPECT_EQ((*provenance)->num_rows(), 0);  // nothing to show: the paper's point

  auto mined = MakeArpMiner()->Mine(*table, Example5MiningConfig());
  ASSERT_TRUE(mined.ok());
  DistanceModel distance = DistanceModel::MakeDefault(*table);
  auto result = MakeOptimizedExplainer()->Explain(*q, mined->patterns, distance, {});
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->explanations.empty());
  bool found_icde = false;
  for (const Explanation& e : result->explanations) {
    EXPECT_GT(e.deviation, 0.0);
    if (e.tuple_values ==
        Row{Value::String("AX"), Value::Int64(2007), Value::String("ICDE")}) {
      found_icde = true;
    }
  }
  EXPECT_TRUE(found_icde);
}

TEST(MissingValueQuestionTest, Validation) {
  auto table = Example5Table();
  // Group exists -> use the regular constructor.
  EXPECT_TRUE(MakeMissingValueQuestion(table, {"author", "venue", "year"},
                                       {Value::String("AX"), Value::String("SIGKDD"),
                                        Value::Int64(2007)})
                  .status()
                  .IsInvalidArgument());
  // A value outside the attribute's domain is a typo, not a missing group.
  EXPECT_TRUE(MakeMissingValueQuestion(table, {"author", "venue", "year"},
                                       {Value::String("NOBODY"), Value::String("SIGKDD"),
                                        Value::Int64(2007)})
                  .status()
                  .IsNotFound());
  // A genuinely missing combination of existing values is accepted.
  auto q = MakeMissingValueQuestion(table, {"author", "venue", "year"},
                                    {Value::String("AY"), Value::String("SIGKDD"),
                                     Value::Int64(2030)});
  EXPECT_TRUE(q.status().IsNotFound());  // 2030 not in the domain either
}

TEST(BaselineTest, FindsOppositeDeviationsFromAverage) {
  auto table = Example5Table();
  UserQuestion q = Phi0(table);
  DistanceModel distance = DistanceModel::MakeDefault(*table);
  ExplainConfig config;
  config.top_k = 5;
  auto result = BaselineExplain(q, distance, config);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->explanations.empty());
  EXPECT_LE(result->explanations.size(), 5u);
  for (const Explanation& e : result->explanations) {
    EXPECT_GT(e.deviation, 0.0);  // `low` question -> above-average tuples
    EXPECT_FALSE(e.tuple_values == q.group_values);
    EXPECT_EQ(e.tuple_attrs, q.group_attrs);  // baseline never leaves Q(R)
  }
  for (size_t i = 1; i < result->explanations.size(); ++i) {
    EXPECT_GE(result->explanations[i - 1].score, result->explanations[i].score);
  }
}

TEST(BaselineTest, HighDirection) {
  auto table = Example5Table();
  auto q = MakeUserQuestion(table, {"author", "venue", "year"},
                            {Value::String("AX"), Value::String("ICDE"), Value::Int64(2007)},
                            AggFunc::kCount, "*", Direction::kHigh);
  ASSERT_TRUE(q.ok());
  DistanceModel distance = DistanceModel::MakeDefault(*table);
  auto result = BaselineExplain(*q, distance, {});
  ASSERT_TRUE(result.ok());
  for (const Explanation& e : result->explanations) {
    EXPECT_LT(e.deviation, 0.0);
    EXPECT_GT(e.score, 0.0);
  }
}

}  // namespace
}  // namespace cape
