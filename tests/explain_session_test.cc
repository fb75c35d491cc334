// ExplainSession (DESIGN.md §11): batch serving over one pattern set with
// memoized question-independent work. The contract under test is byte
// equality — every session answer must match the one-shot Engine::Explain()
// on the same question. The session masks memoized whole γ tables to
// t'[F] = t[F], the one-shot call pushes that selection below γ, and both
// must score the same candidates in the same order.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/mutex.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "datagen/dblp.h"
#include "explain/question_finder.h"
#include "relational/csv.h"
#include "storage/heap_file.h"
#include "storage/paged_table.h"
#include "test_util.h"

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
  const size_t after_all = session->num_cached_agg_tables();
  EXPECT_LT(after_all, after_first * questions.size());

  // The memo is the engine's: a second session starts with every table the
  // first one built, and its first question builds none.
  auto second = engine.MakeExplainSession();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->num_cached_agg_tables(), after_all);
  auto served = second->Explain(questions[0]);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(second->num_cached_agg_tables(), after_all);
  EXPECT_EQ(session->num_cached_agg_tables(), after_all);
  auto one_shot = engine.Explain(questions[0]);
  ASSERT_TRUE(one_shot.ok()) << one_shot.status().ToString();
  ExpectSameResult(*served, *one_shot, "second session");
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
  ASSERT_TRUE(session->Explain(questions[0]).ok());  // builds γ tables
  auto idle = engine.MakeExplainSession();  // never asked before the append
  ASSERT_TRUE(idle.ok());

  // AppendAndRemine grows the same Table in place: the memoized γ tables
  // miss the new rows, so both sessions must refuse rather than answer
  // from them. The idle one holds the same memo, so it refuses too.
  ASSERT_TRUE(engine.AppendAndRemine({engine.table()->GetRow(0)}).ok());
  auto served = session->Explain(questions[0]);
  EXPECT_FALSE(served.ok());
  EXPECT_TRUE(served.status().IsInvalidArgument()) << served.status().ToString();
  EXPECT_EQ(session->questions_answered(), 1);
  auto idle_served = idle->Explain(questions[0]);
  EXPECT_FALSE(idle_served.ok());
  EXPECT_TRUE(idle_served.status().IsInvalidArgument()) << idle_served.status().ToString();
  EXPECT_EQ(idle->questions_answered(), 0);

  // A session opened after the append answers as a one-shot call does.
  auto fresh = engine.MakeExplainSession();
  ASSERT_TRUE(fresh.ok());
  auto reanswered = fresh->Explain(questions[0]);
  auto one_shot = engine.Explain(questions[0]);
  ASSERT_TRUE(reanswered.ok()) << reanswered.status().ToString();
  ASSERT_TRUE(one_shot.ok()) << one_shot.status().ToString();
  ExpectSameResult(*reanswered, *one_shot, "after append");
}

TEST(ExplainSessionTest, SessionAfterCancelledAppendAnswersOverTheGrownTable) {
  Engine engine = MakeEngine();
  ASSERT_TRUE(engine.MinePatterns().ok());
  const std::vector<UserQuestion> questions = MakeQuestions(engine);
  auto before = engine.MakeExplainSession();
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(before->Explain(questions[0]).ok());  // warms the old memo

  // A cancelled append keeps its rows and returns the stop; the pattern set
  // stays stale, but the memo must already cover the grown table.
  const int64_t rows = engine.table()->num_rows();
  CancellationSource source;
  source.RequestCancel();
  engine.mining_config().cancel_token = source.token();
  const Status appended =
      engine.AppendAndRemine({engine.table()->GetRow(0), engine.table()->GetRow(1)});
  ASSERT_TRUE(appended.IsStop()) << appended.ToString();
  ASSERT_EQ(engine.table()->num_rows(), rows + 2);
  engine.mining_config().cancel_token = CancellationToken();

  EXPECT_TRUE(before->Explain(questions[0]).status().IsInvalidArgument());
  auto after = engine.MakeExplainSession();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->num_cached_agg_tables(), 0u);  // a new memo, not the old one
  for (size_t i = 0; i < questions.size(); ++i) {
    auto served = after->Explain(questions[i]);
    auto one_shot = engine.Explain(questions[i]);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    ASSERT_TRUE(one_shot.ok()) << one_shot.status().ToString();
    ExpectSameResult(*served, *one_shot, "after a cancelled append, question " +
                                             std::to_string(i));
  }
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

TEST(ExplainSessionTest, NanAndSignedZeroGroupValuesMatchOneShot) {
  // x holds NaN, 0.0 and -0.0 cells. σ and γ's keys compare them by one
  // rule, PostgreSQL's (value.h): NaN equals only NaN and -0.0 equals 0.0.
  // So a session's NORM lookup in the memo finds at most one γ group, and it
  // must sum the same rows, in the same order, as the one-shot scan.
  const char* const gs[] = {"a", "b", "c"};
  const char* const xs[] = {"1.0", "2.0", "3.0", "0.0", "-0.0", "nan"};
  std::string csv = "g,x,y\n";
  for (int g = 0; g < 3; ++g) {
    for (int x = 0; x < 6; ++x) {
      for (int y = 1; y <= 4; ++y) {
        const int copies = 1 + (g * 7 + x * 5 + y * 3) % 4;
        for (int k = 0; k < copies; ++k) {
          csv += std::string(gs[g]) + "," + xs[x] + "," + std::to_string(y) + "\n";
        }
      }
    }
  }
  auto table = ReadCsvString(csv);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  ASSERT_EQ((*table)->column(1).type(), DataType::kDouble);
  auto engine = Engine::FromTable(*table);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  MiningConfig& mining = engine->mining_config();
  mining.max_pattern_size = 3;
  mining.local_gof_threshold = 0.0;
  mining.local_support_threshold = 1;
  mining.global_confidence_threshold = 0.0;
  mining.global_support_threshold = 1;
  mining.agg_functions = {AggFunc::kCount};
  mining.model_types = {ModelType::kConst};
  ASSERT_TRUE(engine->MinePatterns().ok());
  const int x_attr = 1;
  int64_t over_x = 0;
  for (const GlobalPattern& gp : engine->patterns().patterns()) {
    over_x += gp.pattern.GroupAttrs().Contains(x_attr) ? 1 : 0;
  }
  ASSERT_GT(over_x, 0) << "no pattern groups on x; the NORM lookups are not exercised";

  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<UserQuestion> questions;
  for (const char* g : {"a", "b"}) {
    for (const double x : {1.0, 0.0, -0.0, nan}) {
      for (const int64_t y : {1, 3}) {
        for (const Direction dir : {Direction::kLow, Direction::kHigh}) {
          auto q = engine->MakeQuestion({"g", "x", "y"},
                                        {Value::String(g), Value::Double(x), Value::Int64(y)},
                                        AggFunc::kCount, "*", dir);
          ASSERT_TRUE(q.ok()) << q.status().ToString();
          questions.push_back(*q);
        }
      }
    }
  }

  int64_t answered = 0;
  for (const bool optimized : {false, true}) {
    auto session = engine->MakeExplainSession();
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    for (size_t i = 0; i < questions.size(); ++i) {
      auto one_shot = engine->Explain(questions[i], optimized);
      auto served = session->Explain(questions[i], optimized);
      ASSERT_TRUE(one_shot.ok()) << one_shot.status().ToString();
      ASSERT_TRUE(served.ok()) << served.status().ToString();
      // Exact hex floats: == finds NaN unequal to itself and -0.0 equal
      // to 0.0, in scores and in tuple cells alike.
      EXPECT_EQ(AnswerBytes(*served, engine->schema()),
                AnswerBytes(*one_shot, engine->schema()))
          << questions[i].ToString();
      answered += one_shot->explanations.empty() ? 0 : 1;
    }
  }
  EXPECT_GT(answered, 0) << "no question had an explanation; the check is vacuous";
}

TEST(ExplainSessionTest, Int64KeysBeyondDoublePrecisionMatchOneShot) {
  // k holds 2^53 + 0..5; a question gives k = 2^53 as a double. An int64
  // equals only the double of exactly its value, so σ_{k=2^53} takes one
  // key, in R and in the memo's γ table alike, and NORM agrees.
  const int64_t edge = int64_t{1} << 53;
  auto table = MakeEmptyTable({Field{"g", DataType::kString, false},
                               Field{"k", DataType::kInt64, false}});
  for (int g = 0; g < 3; ++g) {
    for (int k = 0; k < 6; ++k) {
      for (int c = 0; c <= (g * 7 + k * 5) % 4; ++c) {
        const Row row{Value::String("g" + std::to_string(g)), Value::Int64(edge + k)};
        ASSERT_TRUE(table->AppendRow(row).ok());
      }
    }
  }
  auto engine = Engine::FromTable(table);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  MiningConfig& mining = engine->mining_config();
  mining.max_pattern_size = 2;
  mining.local_gof_threshold = 0.0;
  mining.local_support_threshold = 1;
  mining.global_confidence_threshold = 0.0;
  mining.global_support_threshold = 1;
  mining.agg_functions = {AggFunc::kCount};
  mining.model_types = {ModelType::kConst};
  ASSERT_TRUE(engine->MinePatterns().ok());
  auto session = engine->MakeExplainSession();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  int64_t answered = 0;
  for (const Direction dir : {Direction::kLow, Direction::kHigh}) {
    auto q = engine->MakeQuestion({"g", "k"},
                                  {Value::String("g0"), Value::Double(0x1p53)},
                                  AggFunc::kCount, "*", dir);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    EXPECT_EQ(q->result_value, 1.0);  // the 2^53 + 1 rows are another group
    auto one_shot = engine->Explain(*q);
    auto served = session->Explain(*q);
    ASSERT_TRUE(one_shot.ok() && served.ok());
    EXPECT_EQ(AnswerBytes(*served, engine->schema()),
              AnswerBytes(*one_shot, engine->schema()));
    answered += one_shot->explanations.empty() ? 0 : 1;
  }
  EXPECT_GT(answered, 0) << "no question had an explanation; the check is vacuous";
}

/// 3,000 rows of (a, b, yr, m), where m is a double measure with ~2% NaN
/// cells: a group sum that takes one is NaN, and so is a NORM or a local
/// model fitted over such sums.
TablePtr NanMeasureTable() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::mt19937_64 rng(2019);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  auto table = MakeEmptyTable({Field{"a", DataType::kString, false},
                               Field{"b", DataType::kString, false},
                               Field{"yr", DataType::kInt64, false},
                               Field{"m", DataType::kDouble, true}});
  int64_t nan_cells = 0;
  for (int64_t r = 0; r < 3000; ++r) {
    const int64_t a = static_cast<int64_t>(rng() % 8);
    const int64_t b = static_cast<int64_t>(rng() % 6);
    const int64_t yr = 2000 + static_cast<int64_t>(rng() % 8);
    const bool is_nan = unit(rng) < 0.02;
    nan_cells += is_nan ? 1 : 0;
    const double m = is_nan ? nan : 10.0 + a + 2.0 * b + (yr - 2000) + 4.0 * unit(rng);
    EXPECT_TRUE(table
                    ->AppendRow({Value::String("a" + std::to_string(a)),
                                 Value::String("b" + std::to_string(b)), Value::Int64(yr),
                                 Value::Double(m)})
                    .ok());
  }
  EXPECT_GT(nan_cells, 0);
  return table;
}

/// sum(m) over NanMeasureTable, with θ = 0.1.
void SetNanMeasureMining(MiningConfig* mining) {
  mining->max_pattern_size = 3;
  mining->local_gof_threshold = 0.1;
  mining->local_support_threshold = 3;
  mining->global_confidence_threshold = 0.1;
  mining->global_support_threshold = 2;
  mining->agg_functions = {AggFunc::kSum};
}

TEST(ExplainSessionTest, NanMeasureScoresOnlyNumbers) {
  // Condition (5), the baseline's deviation test and the question finder's
  // outlierness test are strict, and a NaN NORM adds no pairs, so every
  // score and outlierness returned is a number, on every path.
  const TablePtr table = NanMeasureTable();
  auto engine = Engine::FromTable(table);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  SetNanMeasureMining(&engine->mining_config());
  ASSERT_TRUE(engine->MinePatterns().ok());

  const std::string path = TestTempPath("nan_measure.cape");
  ASSERT_TRUE(WriteTableToHeapFile(*table, path, /*rows_per_page=*/2048).ok());
  auto opened = OpenPagedTable(path, /*budget_bytes=*/1 << 17);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto paged = Engine::FromTable(*opened);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  paged->SetPatterns(engine->patterns());
  auto session = engine->MakeExplainSession();
  auto paged_session = paged->MakeExplainSession();
  ASSERT_TRUE(session.ok() && paged_session.ok());

  int64_t nan_questions = 0;
  int64_t scored = 0;
  for (int64_t row = 0; row < 12; ++row) {
    const Row values = table->GetRow(row);
    for (const Direction dir : {Direction::kLow, Direction::kHigh}) {
      auto q = engine->MakeQuestion({"a", "b", "yr"}, {values[0], values[1], values[2]},
                                    AggFunc::kSum, "m", dir);
      auto pq = paged->MakeQuestion({"a", "b", "yr"}, {values[0], values[1], values[2]},
                                    AggFunc::kSum, "m", dir);
      ASSERT_TRUE(q.ok() && pq.ok()) << q.status().ToString();
      nan_questions += std::isnan(q->result_value) ? 1 : 0;
      auto one_shot = engine->Explain(*q);
      auto served = session->Explain(*q);
      auto from_pages = paged->Explain(*pq);
      auto served_from_pages = paged_session->Explain(*pq);
      auto baseline = engine->ExplainBaseline(*q);
      ASSERT_TRUE(one_shot.ok() && served.ok() && from_pages.ok() &&
                  served_from_pages.ok() && baseline.ok());
      const std::string want = AnswerBytes(*one_shot, engine->schema());
      EXPECT_EQ(AnswerBytes(*served, engine->schema()), want) << q->ToString();
      EXPECT_EQ(AnswerBytes(*from_pages, engine->schema()), want) << q->ToString();
      EXPECT_EQ(AnswerBytes(*served_from_pages, engine->schema()), want) << q->ToString();
      for (const ExplainResult* result : {&*one_shot, &*baseline}) {
        for (const Explanation& e : result->explanations) {
          EXPECT_FALSE(std::isnan(e.score)) << q->ToString();
          EXPECT_FALSE(std::isnan(e.norm)) << q->ToString();
          scored += 1;
        }
      }
    }
  }
  EXPECT_GT(scored, 0) << "no question had an explanation; the check is vacuous";

  QuestionFinderOptions options;
  options.top_k = 100;
  options.min_outlierness = 0.0;
  auto found = FindCandidateQuestions(table, engine->patterns(), options);
  ASSERT_TRUE(found.ok()) << found.status().ToString();
  EXPECT_FALSE(found->empty());
  for (const CandidateQuestion& c : *found) {
    EXPECT_FALSE(std::isnan(c.outlierness)) << c.question.ToString();
    EXPECT_FALSE(std::isnan(c.deviation)) << c.question.ToString();
  }
  std::remove(path.c_str());
}

TEST(ExplainSessionTest, NanMeasureMinesOnlyNumericGoodnessOfFit) {
  // A local model fitted over NaN sums has a NaN goodness of fit, which must
  // fail the θ test as any value below θ does: every local that every miner
  // keeps, before and after an APPEND, has a GoF that is a number >= θ.
  const TablePtr table = NanMeasureTable();
  auto expect_numeric_gof = [](const Engine& engine, const std::string& context) {
    int64_t locals = 0;
    for (const GlobalPattern& gp : engine.patterns().patterns()) {
      for (const LocalPattern& local : gp.locals) {
        const double gof = local.model->goodness_of_fit();
        EXPECT_FALSE(std::isnan(gof))
            << context << " " << gp.pattern.ToString(engine.schema());
        EXPECT_GE(gof, engine.mining_config().local_gof_threshold) << context;
        locals += 1;
      }
    }
    EXPECT_GT(locals, 0) << context << ": no local holds; the check is vacuous";
  };
  for (const char* miner : {"NAIVE", "CUBE", "SHARE-GRP", "ARP-MINE"}) {
    auto engine = Engine::FromTable(table);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    SetNanMeasureMining(&engine->mining_config());
    ASSERT_TRUE(engine->MinePatterns(miner).ok()) << miner;
    expect_numeric_gof(*engine, miner);
  }

  auto grown = Engine::FromTable(NanMeasureTable());
  ASSERT_TRUE(grown.ok()) << grown.status().ToString();
  SetNanMeasureMining(&grown->mining_config());
  ASSERT_TRUE(grown->MinePatterns().ok());
  std::vector<Row> rows;
  for (int64_t row = 0; row < 300; ++row) rows.push_back(grown->table()->GetRow(row));
  ASSERT_TRUE(grown->AppendAndRemine(rows).ok());
  expect_numeric_gof(*grown, "after an append");
}

TEST(ExplainSessionTest, RequiresMinedPatterns) {
  Engine engine = MakeEngine();
  auto session = engine.MakeExplainSession();
  EXPECT_FALSE(session.ok());
  EXPECT_TRUE(session.status().IsInvalidArgument());
}

}  // namespace
}  // namespace cape
