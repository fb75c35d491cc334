#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "core/engine.h"
#include "datagen/crime.h"
#include "datagen/dblp.h"
#include "pattern/pattern_io.h"
#include "relational/operators.h"
#include "test_util.h"

namespace cape {
namespace {

/// End-to-end determinism: the whole pipeline — generation, mining with any
/// algorithm, explanation — is a pure function of its seeds and inputs.
/// This is what makes the benchmark tables reproducible and the pattern
/// files diffable.

Engine MakeEngine(uint64_t seed) {
  DblpOptions options;
  options.num_rows = 4000;
  options.seed = seed;
  auto table = GenerateDblp(options);
  EXPECT_TRUE(table.ok());
  Engine engine = std::move(Engine::FromTable(std::move(table).ValueOrDie())).ValueOrDie();
  MiningConfig& mining = engine.mining_config();
  mining.max_pattern_size = 3;
  mining.local_gof_threshold = 0.2;
  mining.local_support_threshold = 3;
  mining.global_confidence_threshold = 0.3;
  mining.global_support_threshold = 10;
  mining.agg_functions = {AggFunc::kCount};
  mining.excluded_attrs = {"pubid"};
  return engine;
}

TEST(DeterminismTest, MiningIsBitReproducible) {
  for (const char* miner : {"CUBE", "SHARE-GRP", "ARP-MINE"}) {
    Engine a = MakeEngine(5);
    Engine b = MakeEngine(5);
    ASSERT_TRUE(a.MinePatterns(miner).ok());
    ASSERT_TRUE(b.MinePatterns(miner).ok());
    EXPECT_EQ(SerializePatternSet(a.patterns(), a.schema()),
              SerializePatternSet(b.patterns(), b.schema()))
        << miner;
  }
}

TEST(DeterminismTest, ExplanationsAreReproducible) {
  Engine engine = MakeEngine(5);
  ASSERT_TRUE(engine.MinePatterns().ok());
  auto q = engine.MakeQuestion({"author", "venue", "year"},
                               {Value::String(kDblpPlantedAuthor), Value::String("SIGKDD"),
                                Value::Int64(2007)},
                               AggFunc::kCount, "*", Direction::kLow);
  ASSERT_TRUE(q.ok());
  auto first = engine.Explain(*q);
  auto second = engine.Explain(*q);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(first->explanations.size(), second->explanations.size());
  for (size_t i = 0; i < first->explanations.size(); ++i) {
    EXPECT_DOUBLE_EQ(first->explanations[i].score, second->explanations[i].score);
    EXPECT_EQ(first->explanations[i].tuple_values, second->explanations[i].tuple_values);
    EXPECT_EQ(first->explanations[i].relevant_pattern,
              second->explanations[i].relevant_pattern);
  }
}

TEST(DeterminismTest, DifferentSeedsProduceDifferentData) {
  DblpOptions a;
  a.num_rows = 1000;
  a.seed = 1;
  DblpOptions b = a;
  b.seed = 2;
  auto ta = GenerateDblp(a);
  auto tb = GenerateDblp(b);
  ASSERT_TRUE(ta.ok());
  ASSERT_TRUE(tb.ok());
  bool any_difference = false;
  for (int64_t row = 0; row < (*ta)->num_rows() && !any_difference; ++row) {
    if ((*ta)->GetRow(row) != (*tb)->GetRow(row)) any_difference = true;
  }
  EXPECT_TRUE(any_difference);
}

TEST(DeterminismTest, CrimeGeneratorSeedSensitivity) {
  CrimeOptions a;
  a.num_rows = 800;
  a.seed = 1;
  CrimeOptions b = a;
  b.seed = 99;
  auto ta = GenerateCrime(a);
  auto tb = GenerateCrime(b);
  ASSERT_TRUE(ta.ok());
  ASSERT_TRUE(tb.ok());
  bool any_difference = false;
  for (int64_t row = 0; row < (*ta)->num_rows() && !any_difference; ++row) {
    if ((*ta)->GetRow(row) != (*tb)->GetRow(row)) any_difference = true;
  }
  EXPECT_TRUE(any_difference);
}

/// Parallel equivalence: the thread count is a pure performance knob.
/// Mining partitions attribute sets (and, for ARP-MINE, per-level phases)
/// across the shared pool; explanation partitions (P, P') scoring units with
/// a shared monotone pruning floor. Both must produce bit-identical output
/// at any thread count (DESIGN.md §9).

std::string ExplanationKey(const Explanation& e) {
  std::string key = std::to_string(e.tuple_attrs.bits());
  for (const Value& v : e.tuple_values) {
    key.push_back('|');
    key += v.ToString();
  }
  return key;
}

TEST(ParallelEquivalenceTest, MiningIsIdenticalAcrossThreadCounts) {
  for (const char* miner : {"SHARE-GRP", "ARP-MINE"}) {
    Engine reference = MakeEngine(5);
    reference.mining_config().num_threads = 1;
    ASSERT_TRUE(reference.MinePatterns(miner).ok());
    const std::string expected =
        SerializePatternSet(reference.patterns(), reference.schema());
    for (int threads : {2, 4, 8}) {
      Engine engine = MakeEngine(5);
      engine.mining_config().num_threads = threads;
      ASSERT_TRUE(engine.MinePatterns(miner).ok());
      EXPECT_EQ(SerializePatternSet(engine.patterns(), engine.schema()), expected)
          << miner << " with " << threads << " threads";
    }
  }
}

TEST(ParallelEquivalenceTest, ArpMineFdOptimizationsIdenticalAcrossThreadCounts) {
  // The FD-skip decisions depend on which FDs are visible when a split is
  // considered; the level-phased design freezes them per level, so the
  // skipped set — and hence the mined patterns — must not vary with threads.
  Engine reference = MakeEngine(5);
  reference.mining_config().use_fd_optimizations = true;
  reference.mining_config().num_threads = 1;
  ASSERT_TRUE(reference.MinePatterns("ARP-MINE").ok());
  const std::string expected =
      SerializePatternSet(reference.patterns(), reference.schema());
  const int64_t skipped = reference.mining_profile().num_candidates_skipped_fd;
  for (int threads : {2, 4, 8}) {
    Engine engine = MakeEngine(5);
    engine.mining_config().use_fd_optimizations = true;
    engine.mining_config().num_threads = threads;
    ASSERT_TRUE(engine.MinePatterns("ARP-MINE").ok());
    EXPECT_EQ(SerializePatternSet(engine.patterns(), engine.schema()), expected)
        << threads << " threads";
    EXPECT_EQ(engine.mining_profile().num_candidates_skipped_fd, skipped)
        << threads << " threads";
  }
}

TEST(ParallelEquivalenceTest, ExplainTopKIdenticalAcrossThreadCounts) {
  Engine engine = MakeEngine(5);
  ASSERT_TRUE(engine.MinePatterns().ok());
  auto q = engine.MakeQuestion({"author", "venue", "year"},
                               {Value::String(kDblpPlantedAuthor), Value::String("SIGKDD"),
                                Value::Int64(2007)},
                               AggFunc::kCount, "*", Direction::kLow);
  ASSERT_TRUE(q.ok());
  for (bool optimized : {false, true}) {
    engine.explain_config().num_threads = 1;
    auto reference = engine.Explain(*q, optimized);
    ASSERT_TRUE(reference.ok());
    ASSERT_FALSE(reference->explanations.empty());
    for (int threads : {2, 4, 8}) {
      engine.explain_config().num_threads = threads;
      auto result = engine.Explain(*q, optimized);
      ASSERT_TRUE(result.ok());
      ASSERT_EQ(result->explanations.size(), reference->explanations.size())
          << threads << " threads, optimized=" << optimized;
      for (size_t i = 0; i < result->explanations.size(); ++i) {
        const Explanation& got = result->explanations[i];
        const Explanation& want = reference->explanations[i];
        // Bit-exact, not approximate: the parallel run must score the same
        // candidates with the same floating-point operations.
        EXPECT_EQ(got.score, want.score);
        EXPECT_EQ(got.tuple_values, want.tuple_values);
        EXPECT_EQ(got.relevant_pattern, want.relevant_pattern);
        EXPECT_EQ(got.refinement_pattern, want.refinement_pattern);
        EXPECT_EQ(got.deviation, want.deviation);
        EXPECT_EQ(got.distance, want.distance);
      }
    }
  }
}

TEST(ParallelEquivalenceTest, CancelledSessionStaysByteIdenticalAcrossThreadCounts) {
  // A cancelled request must be invisible afterwards: whatever partial
  // memoization the aborted run left in a session, the next (uncancelled)
  // answer from that session is byte-identical to the single-threaded
  // one-shot reference — at every thread count.
  Engine engine = MakeEngine(5);
  ASSERT_TRUE(engine.MinePatterns().ok());
  auto q = engine.MakeQuestion({"author", "venue", "year"},
                               {Value::String(kDblpPlantedAuthor), Value::String("SIGKDD"),
                                Value::Int64(2007)},
                               AggFunc::kCount, "*", Direction::kLow);
  ASSERT_TRUE(q.ok());
  engine.explain_config().num_threads = 1;
  auto reference = engine.Explain(*q);
  ASSERT_TRUE(reference.ok());
  ASSERT_FALSE(reference->explanations.empty());

  for (int threads : {1, 2, 4}) {
    auto session = engine.MakeExplainSession();
    ASSERT_TRUE(session.ok());
    session->config().num_threads = threads;
    CancellationSource source;
    source.RequestCancel();
    session->config().cancel_token = source.token();
    auto interrupted = session->Explain(*q);
    ASSERT_TRUE(interrupted.ok()) << interrupted.status().ToString();
    EXPECT_TRUE(interrupted->partial) << threads << " threads";
    EXPECT_EQ(interrupted->stop_reason, StopReason::kCancelled) << threads << " threads";

    session->config().cancel_token = CancellationToken();
    auto resumed = session->Explain(*q);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_FALSE(resumed->partial) << threads << " threads";
    ASSERT_EQ(resumed->explanations.size(), reference->explanations.size())
        << threads << " threads";
    for (size_t i = 0; i < resumed->explanations.size(); ++i) {
      const Explanation& got = resumed->explanations[i];
      const Explanation& want = reference->explanations[i];
      EXPECT_EQ(got.score, want.score) << threads << " threads";
      EXPECT_EQ(got.tuple_values, want.tuple_values) << threads << " threads";
      EXPECT_EQ(got.relevant_pattern, want.relevant_pattern) << threads << " threads";
      EXPECT_EQ(got.refinement_pattern, want.refinement_pattern) << threads << " threads";
      EXPECT_EQ(got.deviation, want.deviation) << threads << " threads";
      EXPECT_EQ(got.distance, want.distance) << threads << " threads";
    }
  }
}

TEST(ParallelEquivalenceTest, TruncatedParallelExplainIsSubsetOfUntimed) {
  Engine engine = MakeEngine(5);
  ASSERT_TRUE(engine.MinePatterns().ok());
  auto q = engine.MakeQuestion({"author", "venue", "year"},
                               {Value::String(kDblpPlantedAuthor), Value::String("SIGKDD"),
                                Value::Int64(2007)},
                               AggFunc::kCount, "*", Direction::kLow);
  ASSERT_TRUE(q.ok());

  // Untimed reference with an effectively unbounded k: the pool never
  // fills, nothing is pruned, so it holds the best score of *every*
  // deduplicated candidate tuple.
  engine.explain_config().top_k = 100000;
  engine.explain_config().num_threads = 1;
  auto untimed = engine.Explain(*q);
  ASSERT_TRUE(untimed.ok());
  ASSERT_FALSE(untimed->partial);
  std::map<std::string, double> best_scores;
  for (const Explanation& e : untimed->explanations) {
    best_scores.emplace(ExplanationKey(e), e.score);
  }

  // Deadline-truncated parallel runs: whatever survives must be a fully
  // scored candidate the untimed run also saw, with an untimed best score
  // at least as high (the truncated run saw a subset of each tuple's
  // candidates).
  engine.explain_config().top_k = 10;
  engine.explain_config().num_threads = 4;
  for (int64_t deadline_ms : {1, 3, 10}) {
    engine.explain_config().deadline_ms = deadline_ms;
    auto result = engine.Explain(*q);
    ASSERT_TRUE(result.ok());
    for (const Explanation& e : result->explanations) {
      auto it = best_scores.find(ExplanationKey(e));
      ASSERT_NE(it, best_scores.end()) << "tuple absent from untimed run";
      EXPECT_GE(it->second, e.score);
    }
  }
}

/// count(*) over eight authors with three publications in every venue and
/// year, except in V1 2007, where A0 has one and every other author six. So
/// the seven spikes (Ai, V1, 2007) tie exactly, and A0's other V1 years tie
/// in two groups. Rows come author by author from A7 down, so within a
/// pair the tied spikes arrive in descending key order: the one that wins
/// the tie-break reaches a pool last, after it has filled.
Engine MakeTiedEngine() {
  auto table = MakeEmptyTable({Field{"author", DataType::kString, false},
                               Field{"venue", DataType::kString, false},
                               Field{"year", DataType::kInt64, false}});
  for (int a = 7; a >= 0; --a) {
    for (int v = 0; v < 3; ++v) {
      for (int year = 2004; year <= 2009; ++year) {
        int count = 3;
        if (v == 0 && year == 2007) count = a == 0 ? 1 : 6;
        for (int c = 0; c < count; ++c) {
          EXPECT_TRUE(table
                          ->AppendRow({Value::String("A" + std::to_string(a)),
                                       Value::String("V" + std::to_string(v + 1)),
                                       Value::Int64(year)})
                          .ok());
        }
      }
    }
  }
  Engine engine = std::move(Engine::FromTable(table)).ValueOrDie();
  MiningConfig& mining = engine.mining_config();
  mining.max_pattern_size = 3;
  mining.local_gof_threshold = 0.0;
  mining.local_support_threshold = 1;
  mining.global_confidence_threshold = 0.0;
  mining.global_support_threshold = 1;
  mining.agg_functions = {AggFunc::kCount};
  mining.model_types = {ModelType::kConst};
  return engine;
}

TEST(ParallelEquivalenceTest, BoundedTopKIsPrefixOfFullRankingUnderTies) {
  // Each worker's pool keeps only its k best tuples plus ties at the k-th
  // score. The top-k must still be the first k answers of a ranking whose
  // k exceeds the candidate count (a pool that never drops anything), on
  // both generators, one-shot and through a session, at any thread count.
  Engine engine = MakeTiedEngine();
  ASSERT_TRUE(engine.MinePatterns().ok());
  auto q = engine.MakeQuestion(
      {"author", "venue", "year"},
      {Value::String("A0"), Value::String("V1"), Value::Int64(2007)}, AggFunc::kCount,
      "*", Direction::kLow);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  constexpr int kUnbounded = 1000000;
  const int cuts[] = {1, 2, 3, 5, 10};

  for (const bool optimized : {false, true}) {
    // The tie-break between two pairs reaching one tuple follows the pair
    // order, which differs between the generators: one ranking each.
    engine.explain_config().top_k = kUnbounded;
    engine.explain_config().num_threads = 1;
    auto full = engine.Explain(*q, optimized);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    ASSERT_LT(full->profile.num_candidates, kUnbounded);
    const std::vector<Explanation>& ranking = full->explanations;
    ASSERT_GT(ranking.size(), 10u);
    int tied_cuts = 0;
    for (const int k : cuts) {
      tied_cuts += ranking[k - 1].score == ranking[k].score ? 1 : 0;
    }
    ASSERT_GT(tied_cuts, 0) << "no exact tie straddles a cut; the check is vacuous";

    for (const int k : cuts) {
      ExplainResult prefix;
      prefix.explanations.assign(ranking.begin(), ranking.begin() + k);
      const std::string want = AnswerBytes(prefix, engine.schema());
      engine.explain_config().top_k = k;
      for (const int threads : {1, 2, 4, 8}) {
        engine.explain_config().num_threads = threads;
        const std::string context = "k=" + std::to_string(k) + " threads=" +
                                    std::to_string(threads) +
                                    " optimized=" + std::to_string(optimized);
        auto one_shot = engine.Explain(*q, optimized);
        ASSERT_TRUE(one_shot.ok()) << one_shot.status().ToString();
        EXPECT_EQ(AnswerBytes(*one_shot, engine.schema()), want)
            << "one-shot " << context;
        auto session = engine.MakeExplainSession();
        ASSERT_TRUE(session.ok()) << session.status().ToString();
        auto served = session->Explain(*q, optimized);
        ASSERT_TRUE(served.ok()) << served.status().ToString();
        EXPECT_EQ(AnswerBytes(*served, engine.schema()), want) << "session " << context;
      }
    }
  }
}

TEST(ParallelEquivalenceTest, TruncatedParallelMiningIsSubsetOfUntimed) {
  Engine untimed = MakeEngine(5);
  ASSERT_TRUE(untimed.MinePatterns("ARP-MINE").ok());

  for (int64_t deadline_ms : {1, 5}) {
    Engine engine = MakeEngine(5);
    engine.mining_config().num_threads = 4;
    engine.mining_config().deadline_ms = deadline_ms;
    ASSERT_TRUE(engine.MinePatterns("ARP-MINE").ok());
    for (const GlobalPattern& gp : engine.patterns().patterns()) {
      EXPECT_NE(untimed.patterns().Find(gp.pattern), nullptr)
          << gp.pattern.ToString(engine.schema());
    }
  }
}

}  // namespace
}  // namespace cape
