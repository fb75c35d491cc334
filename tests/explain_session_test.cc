// ExplainSession (DESIGN.md §11): batch serving over one pattern set with
// memoized question-independent work. The contract under test is byte
// equality — every session answer must match the one-shot Engine::Explain()
// on the same question. The session masks memoized whole γ tables to
// t'[F] = t[F], the one-shot call pushes that selection below γ, and both
// must score the same candidates in the same order.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/mutex.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "datagen/dblp.h"

namespace cape {
namespace {

Engine MakeEngine(uint64_t seed = 5) {
  DblpOptions options;
  options.num_rows = 3000;
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

/// A spread of questions: the planted outlier plus groups taken straight
/// from distinct rows of the relation (guaranteed to exist in Q(R)).
std::vector<UserQuestion> MakeQuestions(const Engine& engine) {
  std::vector<UserQuestion> questions;
  auto planted = engine.MakeQuestion(
      {"author", "venue", "year"},
      {Value::String(kDblpPlantedAuthor), Value::String("SIGKDD"), Value::Int64(2007)},
      AggFunc::kCount, "*", Direction::kLow);
  EXPECT_TRUE(planted.ok()) << planted.status().ToString();
  questions.push_back(*planted);

  const Table& table = *engine.table();
  const int author = table.schema()->GetFieldIndex("author");
  const int venue = table.schema()->GetFieldIndex("venue");
  const int year = table.schema()->GetFieldIndex("year");
  for (const int64_t row : {int64_t{0}, int64_t{500}, int64_t{1500}}) {
    const Row values = table.GetRow(row);
    auto q = engine.MakeQuestion({"author", "venue", "year"},
                                 {values[author], values[venue], values[year]},
                                 AggFunc::kCount, "*",
                                 row % 2 == 0 ? Direction::kHigh : Direction::kLow);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    questions.push_back(*q);
  }
  return questions;
}

void ExpectSameResult(const ExplainResult& got, const ExplainResult& want,
                      const std::string& context) {
  ASSERT_EQ(got.explanations.size(), want.explanations.size()) << context;
  for (size_t i = 0; i < got.explanations.size(); ++i) {
    const Explanation& g = got.explanations[i];
    const Explanation& w = want.explanations[i];
    // Bit-exact, not approximate: the session must score the same
    // candidates with the same floating-point operations.
    EXPECT_EQ(g.score, w.score) << context << " explanation " << i;
    EXPECT_EQ(g.tuple_values, w.tuple_values) << context << " explanation " << i;
    EXPECT_EQ(g.relevant_pattern, w.relevant_pattern) << context;
    EXPECT_EQ(g.refinement_pattern, w.refinement_pattern) << context;
    EXPECT_EQ(g.deviation, w.deviation) << context;
    EXPECT_EQ(g.distance, w.distance) << context;
  }
}

TEST(ExplainSessionTest, MatchesOneShotExplainOnEveryQuestion) {
  Engine engine = MakeEngine();
  ASSERT_TRUE(engine.MinePatterns().ok());
  const std::vector<UserQuestion> questions = MakeQuestions(engine);

  for (const bool optimized : {false, true}) {
    auto session = engine.MakeExplainSession();
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    for (size_t i = 0; i < questions.size(); ++i) {
      auto one_shot = engine.Explain(questions[i], optimized);
      ASSERT_TRUE(one_shot.ok()) << one_shot.status().ToString();
      auto served = session->Explain(questions[i], optimized);
      ASSERT_TRUE(served.ok()) << served.status().ToString();
      ExpectSameResult(*served, *one_shot,
                       "question " + std::to_string(i) + " optimized=" +
                           std::to_string(optimized));
    }
  }
}

TEST(ExplainSessionTest, BatchMatchesOneShotAnswers) {
  Engine engine = MakeEngine();
  ASSERT_TRUE(engine.MinePatterns().ok());
  const std::vector<UserQuestion> questions = MakeQuestions(engine);

  auto session = engine.MakeExplainSession();
  ASSERT_TRUE(session.ok());
  auto batch = session->ExplainBatch(questions);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), questions.size());
  EXPECT_EQ(session->questions_answered(), static_cast<int64_t>(questions.size()));
  for (size_t i = 0; i < questions.size(); ++i) {
    auto one_shot = engine.Explain(questions[i]);
    ASSERT_TRUE(one_shot.ok());
    ExpectSameResult((*batch)[i], *one_shot, "batch question " + std::to_string(i));
  }
}

TEST(ExplainSessionTest, MemoizesAggTablesAcrossQuestions) {
  Engine engine = MakeEngine();
  ASSERT_TRUE(engine.MinePatterns().ok());
  const std::vector<UserQuestion> questions = MakeQuestions(engine);

  auto session = engine.MakeExplainSession();
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(session->questions_answered(), 0);
  EXPECT_EQ(session->num_cached_agg_tables(), 0u);

  ASSERT_TRUE(session->Explain(questions[0]).ok());
  const size_t after_first = session->num_cached_agg_tables();
  EXPECT_GT(after_first, 0u);
  EXPECT_EQ(session->questions_answered(), 1);

  // Re-answering the same question reuses every memoized γ table: the
  // cache must not grow at all.
  ASSERT_TRUE(session->Explain(questions[0]).ok());
  EXPECT_EQ(session->num_cached_agg_tables(), after_first);
  EXPECT_EQ(session->questions_answered(), 2);

  // Different questions share the pattern-derived γ tables, so the cache
  // grows sub-linearly: far fewer new entries than a fresh session built
  // per question would compute.
  for (size_t i = 1; i < questions.size(); ++i) {
    ASSERT_TRUE(session->Explain(questions[i]).ok());
  }
  EXPECT_LT(session->num_cached_agg_tables(), after_first * questions.size());
}

TEST(ExplainSessionTest, RejectsQuestionsOverADifferentRelation) {
  Engine first = MakeEngine(5);
  ASSERT_TRUE(first.MinePatterns().ok());
  Engine second = MakeEngine(6);  // different table instance and content

  auto session = first.MakeExplainSession();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->Explain(MakeQuestions(first)[0]).ok());

  auto foreign = second.MakeQuestion(
      {"author", "venue", "year"},
      {Value::String(kDblpPlantedAuthor), Value::String("SIGKDD"), Value::Int64(2007)},
      AggFunc::kCount, "*", Direction::kLow);
  ASSERT_TRUE(foreign.ok());
  auto served = session->Explain(*foreign);
  EXPECT_FALSE(served.ok());
  EXPECT_TRUE(served.status().IsInvalidArgument());
  EXPECT_EQ(session->questions_answered(), 1);  // the rejection did not count
}

TEST(ExplainSessionTest, RejectsQuestionsAfterTheRelationGrows) {
  Engine engine = MakeEngine();
  ASSERT_TRUE(engine.MinePatterns().ok());
  const std::vector<UserQuestion> questions = MakeQuestions(engine);

  auto session = engine.MakeExplainSession();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->Explain(questions[0]).ok());  // builds the γ memo

  // AppendAndRemine grows the same Table in place: the memoized γ tables
  // miss the new rows, so the session must refuse rather than mix them
  // with NORM values computed over the grown relation.
  ASSERT_TRUE(engine.AppendAndRemine({engine.table()->GetRow(0)}).ok());
  auto served = session->Explain(questions[0]);
  EXPECT_FALSE(served.ok());
  EXPECT_TRUE(served.status().IsInvalidArgument()) << served.status().ToString();
  EXPECT_EQ(session->questions_answered(), 1);

  // A session opened after the append answers as a one-shot call does.
  auto fresh = engine.MakeExplainSession();
  ASSERT_TRUE(fresh.ok());
  auto reanswered = fresh->Explain(questions[0]);
  auto one_shot = engine.Explain(questions[0]);
  ASSERT_TRUE(reanswered.ok()) << reanswered.status().ToString();
  ASSERT_TRUE(one_shot.ok()) << one_shot.status().ToString();
  ExpectSameResult(*reanswered, *one_shot, "after append");
}

TEST(ExplainSessionTest, CancelledBatchLeavesSessionReusable) {
  Engine engine = MakeEngine();
  ASSERT_TRUE(engine.MinePatterns().ok());
  const std::vector<UserQuestion> questions = MakeQuestions(engine);

  std::vector<ExplainResult> reference;
  for (const UserQuestion& q : questions) {
    auto r = engine.Explain(q);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    reference.push_back(std::move(*r));
  }

  auto cancelled = engine.MakeExplainSession();
  auto healthy = engine.MakeExplainSession();
  ASSERT_TRUE(cancelled.ok());
  ASSERT_TRUE(healthy.ok());
  CancellationSource source;
  cancelled->config().cancel_token = source.token();
  source.RequestCancel();  // every answer in the batch observes the stop

  // Serve both batches concurrently on a shared pool (the serving shape:
  // one session per thread over one engine). The cancelled batch must not
  // disturb the healthy session's answers in any way.
  struct Latch {
    Mutex mu;
    CondVar cv;
    int remaining CAPE_GUARDED_BY(mu) = 2;
  } latch;
  Result<std::vector<ExplainResult>> cancelled_batch =
      Status::InvalidArgument("pending");
  Result<std::vector<ExplainResult>> healthy_batch = Status::InvalidArgument("pending");
  ThreadPool pool(2);
  auto run = [&latch](ExplainSession* session, const std::vector<UserQuestion>& qs,
                      Result<std::vector<ExplainResult>>* out) {
    *out = session->ExplainBatch(qs);
    MutexLock lock(latch.mu);
    if (--latch.remaining == 0) latch.cv.NotifyAll();
  };
  pool.Submit([&] { run(&*cancelled, questions, &cancelled_batch); });
  pool.Submit([&] { run(&*healthy, questions, &healthy_batch); });
  {
    MutexLock lock(latch.mu);
    while (latch.remaining > 0) latch.cv.Wait(latch.mu);
  }

  // The cancelled batch still terminates cleanly: OK status, every answer
  // marked partial with the cancellation reason.
  ASSERT_TRUE(cancelled_batch.ok()) << cancelled_batch.status().ToString();
  ASSERT_EQ(cancelled_batch->size(), questions.size());
  for (const ExplainResult& r : *cancelled_batch) {
    EXPECT_TRUE(r.partial);
    EXPECT_EQ(r.stop_reason, StopReason::kCancelled);
  }

  ASSERT_TRUE(healthy_batch.ok()) << healthy_batch.status().ToString();
  ASSERT_EQ(healthy_batch->size(), questions.size());
  for (size_t i = 0; i < questions.size(); ++i) {
    ExpectSameResult((*healthy_batch)[i], reference[i],
                     "healthy concurrent question " + std::to_string(i));
  }

  // The memoized γ tables the cancelled batch left behind must be reusable:
  // clearing the token and re-answering gives answers byte-identical to the
  // one-shot reference — the aborted run never half-populated the cache.
  cancelled->config().cancel_token = CancellationToken();
  for (size_t i = 0; i < questions.size(); ++i) {
    auto reanswered = cancelled->Explain(questions[i]);
    ASSERT_TRUE(reanswered.ok()) << reanswered.status().ToString();
    EXPECT_FALSE(reanswered->partial);
    ExpectSameResult(*reanswered, reference[i],
                     "re-answered question " + std::to_string(i));
  }
}

TEST(ExplainSessionTest, RequiresMinedPatterns) {
  Engine engine = MakeEngine();
  auto session = engine.MakeExplainSession();
  EXPECT_FALSE(session.ok());
  EXPECT_TRUE(session.status().IsInvalidArgument());
}

}  // namespace
}  // namespace cape
