// The serving stack (DESIGN.md §13): protocol parsing/rendering, the
// in-process ServerHarness end to end, and every robustness behavior the
// scheduler promises — admission rejection under overload, per-tenant
// budget rejections with a retry hint, shedding of expired queued work, the
// degradation tier, drain-based shutdown, and the exactly-one-terminal-
// response invariant. A final test drives the real TCP front end.

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/mutex.h"
#include "core/engine.h"
#include "datagen/dblp.h"
#include "pattern/pattern_io.h"
#include "server/admission.h"
#include "server/protocol.h"
#include "server/server.h"
#include "storage/heap_file.h"
#include "storage/paged_table.h"
#include "test_util.h"

namespace cape::server {
namespace {

// ---------------------------------------------------------------------------
// Protocol

TEST(ProtocolTest, ParseRequestLineDefaultsAndHeaders) {
  auto bare = ParseRequestLine("ping");
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare->id, 0);
  EXPECT_EQ(bare->tenant, "default");
  EXPECT_EQ(bare->deadline_ms, 0);
  EXPECT_EQ(bare->top_k, 0);
  EXPECT_EQ(bare->statement, "ping");

  auto full = ParseRequestLine(
      "  [id=42 tenant=alice deadline_ms=250 top_k=3]  SELECT author FROM pub  ");
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->id, 42);
  EXPECT_EQ(full->tenant, "alice");
  EXPECT_EQ(full->deadline_ms, 250);
  EXPECT_EQ(full->top_k, 3);
  EXPECT_EQ(full->statement, "SELECT author FROM pub");

  auto widest = ParseRequestLine("[top_k=2147483647] ping");  // INT_MAX
  ASSERT_TRUE(widest.ok()) << widest.status().ToString();
  EXPECT_EQ(widest->top_k, 2147483647);
}

TEST(ProtocolTest, ParseRequestLineRejectsMalformedInput) {
  EXPECT_FALSE(ParseRequestLine("").ok());
  EXPECT_FALSE(ParseRequestLine("   ").ok());
  EXPECT_FALSE(ParseRequestLine("[id=1 ping").ok());         // missing ']'
  EXPECT_FALSE(ParseRequestLine("[id=1]").ok());             // empty statement
  EXPECT_FALSE(ParseRequestLine("[bogus=1] ping").ok());     // unknown key
  EXPECT_FALSE(ParseRequestLine("[id] ping").ok());          // not key=value
  EXPECT_FALSE(ParseRequestLine("[id=xyz] ping").ok());      // bad int
  EXPECT_FALSE(ParseRequestLine("[deadline_ms=-1] ping").ok());
  EXPECT_FALSE(ParseRequestLine("[top_k=-2] ping").ok());
  // top_k reaches the explainer as an int: no wrapping past INT_MAX.
  EXPECT_FALSE(ParseRequestLine("[top_k=2147483648] ping").ok());
  EXPECT_FALSE(ParseRequestLine("[top_k=4294967296] ping").ok());
  EXPECT_FALSE(ParseRequestLine("[tenant=] ping").ok());
}

TEST(ProtocolTest, RenderResponseShapes) {
  Response ok;
  ok.id = 7;
  ok.outcome = Outcome::kOk;
  ok.elapsed_ms = 3;
  ok.payload_json = "[1,2]";
  EXPECT_EQ(RenderResponse(ok),
            "{\"id\":7,\"outcome\":\"ok\",\"elapsed_ms\":3,\"result\":[1,2]}");

  Response retry;
  retry.id = 8;
  retry.outcome = Outcome::kRetryAfter;
  retry.retry_after_ms = 120;
  EXPECT_EQ(RenderResponse(retry),
            "{\"id\":8,\"outcome\":\"retry_after\",\"retry_after_ms\":120,"
            "\"elapsed_ms\":0}");

  Response error;
  error.outcome = Outcome::kError;
  error.error = "bad \"quote\"";
  EXPECT_EQ(RenderResponse(error),
            "{\"id\":0,\"outcome\":\"error\",\"error\":\"bad \\\"quote\\\"\","
            "\"elapsed_ms\":0}");
}

TEST(ProtocolTest, OutcomeClassification) {
  EXPECT_TRUE(IsAnswer(Outcome::kOk));
  EXPECT_TRUE(IsAnswer(Outcome::kDegraded));
  EXPECT_TRUE(IsAnswer(Outcome::kTruncated));
  EXPECT_FALSE(IsAnswer(Outcome::kShed));
  EXPECT_FALSE(IsAnswer(Outcome::kOverloaded));
  EXPECT_FALSE(IsAnswer(Outcome::kRetryAfter));
  EXPECT_FALSE(IsAnswer(Outcome::kError));
  EXPECT_STREQ(OutcomeToString(Outcome::kShed), "shed");
}

// ---------------------------------------------------------------------------
// Admission

TEST(AdmissionTest, DefaultConfigKeepsNoStatePerTenant) {
  // Tenant names come off the wire; with no per-tenant gate configured,
  // admitting and releasing any number of them leaves nothing behind.
  AdmissionController admission(AdmissionConfig{});
  for (int i = 0; i < 10000; ++i) {
    const std::string tenant = "tenant-" + std::to_string(i);
    ASSERT_EQ(admission.Admit(tenant, i).kind, AdmissionDecision::Kind::kAdmit);
    admission.Release(tenant, i, 1.0, 100);
  }
  EXPECT_EQ(admission.in_system(), 0);
  EXPECT_EQ(admission.tracked_tenants(), 0u);
}

// ---------------------------------------------------------------------------
// Serving fixture: one mined engine shared by every harness/server test
// (mining once keeps the smoke suite fast; the scheduler only touches the
// engine's const surface, so sharing is exactly the serving contract).

class ServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DblpOptions options;
    options.num_rows = 2000;
    options.seed = 5;
    auto table = GenerateDblp(options);
    ASSERT_TRUE(table.ok());
    engine_ = new Engine(std::move(Engine::FromTable(std::move(table).ValueOrDie()))
                             .ValueOrDie());
    MiningConfig& mining = engine_->mining_config();
    mining.max_pattern_size = 3;
    mining.local_gof_threshold = 0.2;
    mining.local_support_threshold = 3;
    mining.global_confidence_threshold = 0.3;
    mining.global_support_threshold = 10;
    mining.agg_functions = {AggFunc::kCount};
    mining.excluded_attrs = {"pubid"};
    ASSERT_TRUE(engine_->MinePatterns().ok());
  }
  static void TearDownTestSuite() {
    delete engine_;
    engine_ = nullptr;
  }

  static std::string PlantedExplainLine(const std::string& header) {
    std::string line = header;
    if (!line.empty()) line += " ";
    line += "EXPLAIN WHY count(*) IS LOW FOR author = '";
    line += kDblpPlantedAuthor;
    line += "', venue = 'SIGKDD', year = 2007 FROM pub";
    return line;
  }

  static size_t CountScores(const std::string& payload) {
    size_t count = 0;
    for (size_t pos = payload.find("\"score\""); pos != std::string::npos;
         pos = payload.find("\"score\"", pos + 1)) {
      ++count;
    }
    return count;
  }

  static Engine* engine_;
};

Engine* ServerTest::engine_ = nullptr;

/// Blocks the serving worker inside the execution hook until opened, and
/// lets the test wait until a request is provably mid-execution.
struct Gate {
  Mutex mu;
  CondVar cv;
  bool entered CAPE_GUARDED_BY(mu) = false;
  bool open CAPE_GUARDED_BY(mu) = false;

  void Enter() CAPE_EXCLUDES(mu) {
    MutexLock lock(mu);
    entered = true;
    cv.NotifyAll();
    while (!open) cv.Wait(mu);
  }
  void AwaitEntered() CAPE_EXCLUDES(mu) {
    MutexLock lock(mu);
    while (!entered) cv.Wait(mu);
  }
  void Open() CAPE_EXCLUDES(mu) {
    MutexLock lock(mu);
    open = true;
    cv.NotifyAll();
  }
};

/// Thread-safe terminal-response collector for CallAsync storms.
struct Collector {
  Mutex mu;
  CondVar cv;
  std::vector<Response> responses CAPE_GUARDED_BY(mu);

  RequestScheduler::ResponseCallback Callback() {
    return [this](const Response& response) {
      MutexLock lock(mu);
      responses.push_back(response);
      cv.NotifyAll();
    };
  }
  std::vector<Response> WaitFor(size_t n) CAPE_EXCLUDES(mu) {
    MutexLock lock(mu);
    while (responses.size() < n) cv.Wait(mu);
    return responses;
  }
};

Response FindById(const std::vector<Response>& responses, int64_t id) {
  for (const Response& r : responses) {
    if (r.id == id) return r;
  }
  ADD_FAILURE() << "no response with id " << id;
  return Response{};
}

TEST_F(ServerTest, PingStatsSelectAndErrorsOverTheHarness) {
  ServerOptions options;
  options.num_workers = 2;
  ServerHarness harness(engine_, options);

  Response pong = harness.Call("[id=5] ping");
  EXPECT_EQ(pong.id, 5);
  EXPECT_EQ(pong.outcome, Outcome::kOk);
  EXPECT_EQ(pong.payload_json, "\"pong\"");

  Response stats = harness.Call("STATS");
  EXPECT_EQ(stats.outcome, Outcome::kOk);
  EXPECT_NE(stats.payload_json.find("\"patterns_mined\""), std::string::npos);
  EXPECT_NE(stats.payload_json.find("\"scheduler\""), std::string::npos);

  Response select = harness.Call("SELECT author, venue FROM pub");
  EXPECT_EQ(select.outcome, Outcome::kOk);
  EXPECT_NE(select.payload_json.find("\"columns\""), std::string::npos);

  // Structured errors, not crashes: bad header, bad grammar, bad table.
  EXPECT_EQ(harness.Call("[bogus=1] ping").outcome, Outcome::kError);
  EXPECT_EQ(harness.Call("FROBNICATE the database").outcome, Outcome::kError);
  EXPECT_EQ(harness.Call("SELECT x FROM no_such_table").outcome, Outcome::kError);
}

TEST_F(ServerTest, ExplainAnswersAreByteIdenticalAndRespectTopK) {
  ServerOptions options;
  options.num_workers = 2;
  ServerHarness harness(engine_, options);

  const std::string line = PlantedExplainLine("[id=1 deadline_ms=30000]");
  Response first = harness.Call(line);
  ASSERT_EQ(first.outcome, Outcome::kOk) << first.error;
  ASSERT_FALSE(first.payload_json.empty());
  EXPECT_GE(CountScores(first.payload_json), 1u);

  // Serving is deterministic: the same question yields the same bytes, even
  // though the second answer came from a memoized session.
  Response second = harness.Call(line);
  ASSERT_EQ(second.outcome, Outcome::kOk);
  EXPECT_EQ(second.payload_json, first.payload_json);

  Response capped = harness.Call(PlantedExplainLine("[id=2 top_k=1]"));
  ASSERT_EQ(capped.outcome, Outcome::kOk) << capped.error;
  EXPECT_EQ(CountScores(capped.payload_json), 1u);
}

TEST_F(ServerTest, TopKBeyondIntIsAStructuredError) {
  ServerOptions options;
  options.num_workers = 1;
  ServerHarness harness(engine_, options);
  // Header and TOP values past INT_MAX are parse errors; before, they were
  // narrowed to an int and the request failed inside the explainer.
  const std::string lines[] = {
      PlantedExplainLine("[id=1 top_k=4294967295]"),
      PlantedExplainLine("[id=2 top_k=4294967296]"),
      PlantedExplainLine("[id=3]") + " TOP 4294967295",
      PlantedExplainLine("[id=4]") + " TOP 4294967296",
  };
  for (const std::string& line : lines) {
    Response response = harness.Call(line);
    EXPECT_EQ(response.outcome, Outcome::kError) << line;
    EXPECT_EQ(response.error.find("unexpected exception"), std::string::npos)
        << line << ": " << response.error;
  }
  Response widest = harness.Call(PlantedExplainLine("[id=5]") + " TOP 2147483647");
  ASSERT_EQ(widest.outcome, Outcome::kOk) << widest.error;
  EXPECT_GE(CountScores(widest.payload_json), 1u);
}

TEST_F(ServerTest, QueueFullRejectsWithOverloaded) {
  ServerOptions options;
  options.num_workers = 1;
  options.scheduler.admission.max_in_system = 1;
  ServerHarness harness(engine_, options);
  Gate gate;
  harness.scheduler().SetExecutionHookForTest([&gate] { gate.Enter(); });

  Collector collector;
  harness.CallAsync("[id=1] ping", collector.Callback());
  gate.AwaitEntered();

  // The slot is occupied; the second request is rejected synchronously.
  Response rejected = harness.Call("[id=2] ping");
  EXPECT_EQ(rejected.outcome, Outcome::kOverloaded);

  gate.Open();
  const std::vector<Response> responses = collector.WaitFor(1);
  EXPECT_EQ(responses[0].outcome, Outcome::kOk);

  const RequestScheduler::Stats stats = harness.scheduler().stats();
  EXPECT_EQ(stats.submitted, 2);
  EXPECT_EQ(stats.ok, 1);
  EXPECT_EQ(stats.overloaded, 1);
}

TEST_F(ServerTest, TenantByteBudgetRejectsWithRetryAfter) {
  ServerOptions options;
  options.num_workers = 1;
  options.scheduler.admission.tenant_bytes_per_sec = 1;
  options.scheduler.admission.burst_seconds = 1.0;
  ServerHarness harness(engine_, options);

  // The first request is admitted (a cold tenant holds a full burst) and
  // debits its response bytes post-paid, overdrawing the one-byte bucket.
  EXPECT_EQ(harness.Call("[id=1 tenant=alice] ping").outcome, Outcome::kOk);

  Response rejected = harness.Call("[id=2 tenant=alice] ping");
  EXPECT_EQ(rejected.outcome, Outcome::kRetryAfter);
  EXPECT_GE(rejected.retry_after_ms, 1);

  // Budgets are per tenant: another tenant is unaffected.
  EXPECT_EQ(harness.Call("[id=3 tenant=bob] ping").outcome, Outcome::kOk);

  const RequestScheduler::Stats stats = harness.scheduler().stats();
  EXPECT_EQ(stats.retry_after, 1);
}

TEST_F(ServerTest, ExpiredQueuedRequestsAreShed) {
  ServerOptions options;
  options.num_workers = 1;
  ServerHarness harness(engine_, options);
  Gate gate;
  harness.scheduler().SetExecutionHookForTest([&gate] { gate.Enter(); });

  Collector collector;
  harness.CallAsync("[id=1] ping", collector.Callback());
  gate.AwaitEntered();
  // Queued behind the blocked worker with a 1 ms deadline; by the time the
  // worker frees up, the deadline has passed and the work is shed.
  harness.CallAsync("[id=2 deadline_ms=1] ping", collector.Callback());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.Open();

  const std::vector<Response> responses = collector.WaitFor(2);
  EXPECT_EQ(FindById(responses, 1).outcome, Outcome::kOk);
  EXPECT_EQ(FindById(responses, 2).outcome, Outcome::kShed);
  EXPECT_EQ(harness.scheduler().stats().shed, 1);
}

TEST_F(ServerTest, DegradationTierCapsTopKUnderBacklog) {
  ServerOptions options;
  options.num_workers = 1;
  options.scheduler.degrade_queue_depth = 1;
  options.scheduler.degraded_top_k = 1;
  ServerHarness harness(engine_, options);
  Gate gate;
  harness.scheduler().SetExecutionHookForTest([&gate] { gate.Enter(); });

  Collector collector;
  harness.CallAsync("[id=1] ping", collector.Callback());
  gate.AwaitEntered();
  // Two EXPLAINs pile up behind the blocked worker. The first is served with
  // a backlog still standing (depth 1 >= threshold) and is degraded; by the
  // second the queue is empty again and full top-k service resumes.
  harness.CallAsync(PlantedExplainLine("[id=2 top_k=5 deadline_ms=30000]"),
                    collector.Callback());
  harness.CallAsync(PlantedExplainLine("[id=3 top_k=5 deadline_ms=30000]"),
                    collector.Callback());
  gate.Open();

  const std::vector<Response> responses = collector.WaitFor(3);
  const Response degraded = FindById(responses, 2);
  ASSERT_EQ(degraded.outcome, Outcome::kDegraded) << degraded.error;
  EXPECT_EQ(CountScores(degraded.payload_json), 1u);
  const Response full = FindById(responses, 3);
  ASSERT_EQ(full.outcome, Outcome::kOk) << full.error;
  EXPECT_GT(CountScores(full.payload_json), 1u);
  EXPECT_EQ(harness.scheduler().stats().degraded, 1);
}

TEST_F(ServerTest, ShutdownDrainsInFlightWorkThenRejects) {
  ServerOptions options;
  options.num_workers = 2;
  ServerHarness harness(engine_, options);

  Collector collector;
  const int kRequests = 8;
  for (int i = 0; i < kRequests; ++i) {
    harness.CallAsync("[id=" + std::to_string(i + 1) + "] ping",
                      collector.Callback());
  }
  harness.Shutdown();

  // Drain semantics: every admitted request reached its terminal response
  // before Shutdown returned — no callback is ever dropped.
  const std::vector<Response> responses = collector.WaitFor(kRequests);
  EXPECT_EQ(responses.size(), static_cast<size_t>(kRequests));
  for (const Response& r : responses) EXPECT_EQ(r.outcome, Outcome::kOk);

  EXPECT_EQ(harness.Call("[id=99] ping").outcome, Outcome::kOverloaded);

  const RequestScheduler::Stats stats = harness.scheduler().stats();
  EXPECT_EQ(stats.submitted, stats.ok + stats.degraded + stats.truncated + stats.shed +
                                 stats.overloaded + stats.retry_after + stats.errors);
}

// ---------------------------------------------------------------------------
// STATS reads each counter from the module that keeps it (DESIGN.md §8).

/// `"name":value,` as the STATS payload renders a counter that has a
/// successor in its object.
std::string CounterJson(const std::string& name, int64_t value) {
  return "\"" + name + "\":" + std::to_string(value) + ",";
}

TEST_F(ServerTest, StatsCountsPatternsThatWereNotMinedHere) {
  // perfbench's serve workload hands its server a set with SetPatterns; an
  // online server restores one with LoadPatterns.
  Engine injected = std::move(Engine::FromTable(engine_->table())).ValueOrDie();
  injected.SetPatterns(engine_->patterns());
  const std::string path = TestTempPath("served.arpb");
  ASSERT_TRUE(engine_->SavePatternsBinary(path).ok());
  Engine loaded = std::move(Engine::FromTable(engine_->table())).ValueOrDie();
  ASSERT_TRUE(loaded.LoadPatterns(path).ok());
  std::remove(path.c_str());

  for (const Engine* engine : {&injected, &loaded}) {
    const auto served = static_cast<int64_t>(engine->patterns().size());
    ASSERT_GT(served, 0);
    ServerOptions options;
    options.num_workers = 1;
    ServerHarness harness(engine, options);
    Response stats = harness.Call("STATS");
    ASSERT_EQ(stats.outcome, Outcome::kOk) << stats.error;
    EXPECT_NE(stats.payload_json.find(CounterJson("patterns_mined", served)),
              std::string::npos)
        << stats.payload_json;
  }
}

TEST_F(ServerTest, StatsReadsPagerCountersFromThePager) {
  DblpOptions data;
  data.num_rows = 6000;  // three 2048-row pages
  data.seed = 5;
  auto table = GenerateDblp(data);
  ASSERT_TRUE(table.ok());
  const std::string path = TestTempPath("served.cape");
  ASSERT_TRUE(WriteTableToHeapFile(**table, path, /*rows_per_page=*/2048).ok());
  auto paged = OpenPagedTable(path, /*budget_bytes=*/1);  // one frame
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  Engine engine = std::move(Engine::FromTable(*paged)).ValueOrDie();
  engine.mining_config() = engine_->mining_config();
  ASSERT_TRUE(engine.MinePatterns().ok());

  ServerOptions options;
  options.num_workers = 2;
  ServerHarness harness(&engine, options);
  for (int id = 1; id <= 3; ++id) {
    Response explained = harness.Call(
        PlantedExplainLine("[id=" + std::to_string(id) + " deadline_ms=30000]"));
    ASSERT_EQ(explained.outcome, Outcome::kOk) << explained.error;
  }
  Response stats = harness.Call("STATS");
  ASSERT_EQ(stats.outcome, Outcome::kOk) << stats.error;

  // Every request has finished, so the owners still hold what STATS read.
  // The whole "engine" object is pinned: a dropped or stray key fails.
  const PageSourceStats pages = engine.table()->page_source()->stats();
  EXPECT_GT(pages.misses, 0);
  EXPECT_GT(pages.evictions, 0);
  std::string engine_json =
      CounterJson("patterns_mined", static_cast<int64_t>(engine.patterns().size())) +
      CounterJson("page_hits", pages.hits) + CounterJson("page_misses", pages.misses) +
      CounterJson("page_evictions", pages.evictions) +
      CounterJson("page_bytes_pinned", pages.bytes_pinned);
  engine_json.back() = '}';  // CounterJson ends each entry with a comma
  const std::string expected = "{\"engine\":{" + engine_json + ",\"scheduler\":";
  EXPECT_EQ(stats.payload_json.substr(0, expected.size()), expected) << stats.payload_json;
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// APPEND verb

/// Fresh mutable engine per test: APPEND mutates the table in place, so
/// these tests cannot share the suite-wide read-only engine.
Engine MakeAppendEngine() {
  DblpOptions options;
  options.num_rows = 1500;
  options.seed = 5;
  auto table = GenerateDblp(options);
  EXPECT_TRUE(table.ok());
  Engine engine =
      std::move(Engine::FromTable(std::move(table).ValueOrDie())).ValueOrDie();
  MiningConfig& mining = engine.mining_config();
  mining.max_pattern_size = 3;
  mining.local_gof_threshold = 0.2;
  mining.local_support_threshold = 3;
  mining.global_confidence_threshold = 0.3;
  mining.global_support_threshold = 10;
  mining.agg_functions = {AggFunc::kCount};
  mining.excluded_attrs = {"pubid"};
  EXPECT_TRUE(engine.MinePatterns().ok());
  return engine;
}

TEST_F(ServerTest, AppendGrowsTableAndRevalidatesPatterns) {
  Engine engine = MakeAppendEngine();
  const int64_t before = engine.table()->num_rows();
  ServerOptions options;
  options.num_workers = 2;
  options.mutable_engine = &engine;
  ServerHarness harness(&engine, options);

  Response ok = harness.Call(
      "[id=1] APPEND NewAuthor,P90001,2007,SIGKDD;NewAuthor,P90002,2008,ICDE");
  EXPECT_EQ(ok.outcome, Outcome::kOk) << ok.error;
  EXPECT_EQ(engine.table()->num_rows(), before + 2);
  EXPECT_EQ(ok.payload_json, "{\"rows_appended\":2,\"total_rows\":" +
                                 std::to_string(before + 2) + ",\"patterns\":" +
                                 std::to_string(engine.patterns().size()) + "}");

  // Reads after the append observe the grown relation and its pattern set.
  Response stats = harness.Call("STATS");
  EXPECT_EQ(stats.outcome, Outcome::kOk);
  EXPECT_NE(stats.payload_json.find("\"patterns_mined\":" +
                                    std::to_string(engine.patterns().size())),
            std::string::npos)
      << stats.payload_json;
  Response select = harness.Call("SELECT author, venue FROM pub");
  EXPECT_EQ(select.outcome, Outcome::kOk);
  EXPECT_EQ(harness.Call(PlantedExplainLine("[id=2]")).outcome, Outcome::kOk);
}

TEST_F(ServerTest, ExplainAfterTruncatedAppendAnswersOverTheGrownTable) {
  Engine engine = MakeAppendEngine();
  const int64_t before = engine.table()->num_rows();
  ServerOptions options;
  options.num_workers = 1;
  options.mutable_engine = &engine;
  ServerHarness harness(&engine, options);
  // Fills the engine's γ memo over the table as it is now.
  ASSERT_EQ(harness.Call(PlantedExplainLine("[id=1]")).outcome, Outcome::kOk);

  // A cancelled re-mine: the row lands, the patterns stay stale, and the
  // outcome is truncated rather than ok.
  const std::string stale = SerializePatternSet(engine.patterns(), engine.schema());
  CancellationSource source;
  engine.mining_config().cancel_token = source.token();
  source.RequestCancel();
  Response truncated = harness.Call("[id=2] APPEND NewAuthor,P90001,2007,SIGKDD");
  EXPECT_EQ(truncated.outcome, Outcome::kTruncated) << truncated.error;
  EXPECT_NE(truncated.payload_json.find("\"patterns_stale\":true"), std::string::npos)
      << truncated.payload_json;
  EXPECT_EQ(engine.table()->num_rows(), before + 1);
  EXPECT_EQ(SerializePatternSet(engine.patterns(), engine.schema()), stale);

  // A session over the pre-append memo would refuse the grown table; the
  // request's own session reads the engine's new memo.
  Response explained = harness.Call(PlantedExplainLine("[id=3]"));
  EXPECT_EQ(explained.outcome, Outcome::kOk) << explained.error;
}

TEST_F(ServerTest, AppendRejectedWhenServerIsReadOnly) {
  ServerOptions options;
  options.num_workers = 1;
  ServerHarness harness(engine_, options);  // mutable_engine left null

  Response rejected = harness.Call("APPEND X,P1,2000,ICDE");
  EXPECT_EQ(rejected.outcome, Outcome::kError);
  EXPECT_NE(rejected.error.find("read-only"), std::string::npos) << rejected.error;
}

TEST_F(ServerTest, MalformedAppendIsRejectedWithoutSideEffects) {
  Engine engine = MakeAppendEngine();
  const int64_t before = engine.table()->num_rows();
  ServerOptions options;
  options.num_workers = 1;
  options.mutable_engine = &engine;
  ServerHarness harness(&engine, options);

  EXPECT_EQ(harness.Call("APPEND").outcome, Outcome::kError);  // empty payload
  // Wrong arity in the second row: the whole batch is rejected, nothing
  // lands (Engine::AppendAndRemine validates every row before appending).
  Response bad = harness.Call("APPEND A,P90001,2007,SIGKDD;B,P90002,2008");
  EXPECT_EQ(bad.outcome, Outcome::kError);
  EXPECT_EQ(engine.table()->num_rows(), before);
}

TEST_F(ServerTest, ConcurrentAppendsAndReadsAllReachTerminalOutcomes) {
  Engine engine = MakeAppendEngine();
  const int64_t before = engine.table()->num_rows();
  ServerOptions options;
  options.num_workers = 4;
  options.mutable_engine = &engine;
  ServerHarness harness(&engine, options);

  // Mixed storm: every fourth request is an append (lowercase, exercising
  // the case-insensitive verb match), the rest are reads. The write gate
  // serializes appends against reads, so every request must still reach a
  // terminal kOk and every appended row must land exactly once.
  Collector collector;
  const int kRequests = 24;
  int appends = 0;
  for (int i = 0; i < kRequests; ++i) {
    const std::string id = std::to_string(i + 1);
    if (i % 4 == 0) {
      ++appends;
      harness.CallAsync("[id=" + id + " deadline_ms=30000] append A" + id +
                            ",P9" + id + ",2007,SIGKDD",
                        collector.Callback());
    } else {
      harness.CallAsync("[id=" + id + " deadline_ms=30000] SELECT author FROM pub",
                        collector.Callback());
    }
  }
  const std::vector<Response> responses = collector.WaitFor(kRequests);
  ASSERT_EQ(responses.size(), static_cast<size_t>(kRequests));
  for (const Response& r : responses) {
    EXPECT_EQ(r.outcome, Outcome::kOk) << "id " << r.id << ": " << r.error;
  }
  EXPECT_EQ(engine.table()->num_rows(), before + appends);
}

// ---------------------------------------------------------------------------
// TCP front end

int ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  timeval timeout{};
  timeout.tv_sec = 10;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
      << strerror(errno);
  return fd;
}

Status SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return Status::IOError("send failed");
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Result<std::string> ReadLine(int fd, std::string* buffer) {
  for (;;) {
    const size_t newline = buffer->find('\n');
    if (newline != std::string::npos) {
      std::string line = buffer->substr(0, newline);
      buffer->erase(0, newline + 1);
      return line;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return Status::IOError("connection closed before newline");
    buffer->append(chunk, static_cast<size_t>(n));
  }
}

TEST_F(ServerTest, TcpServerAnswersOverARealSocket) {
  // Declared before the server, so they outlive every request it runs.
  Gate gate;
  std::atomic<bool> held{false};
  ServerOptions options;
  options.num_workers = 2;
  options.port = 0;  // ephemeral
  CapeServer server(engine_, options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);
  // The first request to execute waits until the test opens the gate, so the
  // other worker answers the second pipelined request first.
  server.scheduler().SetExecutionHookForTest([&] {
    if (!held.exchange(true)) gate.Enter();
  });

  const int fd = ConnectLoopback(server.port());
  ASSERT_GE(fd, 0);
  std::string buffer;

  // Two pipelined requests on one connection: answers arrive in completion
  // order, each carrying its request's id.
  ASSERT_TRUE(SendAll(fd, "[id=9] ping\n[id=10] stats\n").ok());
  auto first = ReadLine(fd, &buffer);
  gate.Open();
  auto second = ReadLine(fd, &buffer);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  auto has_id = [](const std::string& line, int id) {
    return line.rfind("{\"id\":" + std::to_string(id) + ",", 0) == 0;
  };
  const bool ping_first = has_id(*first, 9);
  const std::string& pong = ping_first ? *first : *second;
  const std::string& stats = ping_first ? *second : *first;
  EXPECT_TRUE(has_id(pong, 9)) << pong;
  EXPECT_NE(pong.find("\"outcome\":\"ok\""), std::string::npos) << pong;
  EXPECT_TRUE(has_id(stats, 10)) << stats;
  EXPECT_NE(stats.find("\"patterns_mined\""), std::string::npos) << stats;

  ASSERT_TRUE(SendAll(fd, PlantedExplainLine("[id=11 deadline_ms=30000]") + "\n").ok());
  auto explain = ReadLine(fd, &buffer);
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain->find("\"id\":11"), std::string::npos) << *explain;
  EXPECT_NE(explain->find("\"outcome\":\"ok\""), std::string::npos) << *explain;
  EXPECT_NE(explain->find("\"score\""), std::string::npos) << *explain;

  // A malformed line gets a structured error on the same connection.
  ASSERT_TRUE(SendAll(fd, "[wat=1] ping\n").ok());
  auto error = ReadLine(fd, &buffer);
  ASSERT_TRUE(error.ok());
  EXPECT_NE(error->find("\"outcome\":\"error\""), std::string::npos) << *error;

  // "quit" closes the connection from the server side.
  ASSERT_TRUE(SendAll(fd, "quit\n").ok());
  char byte;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
  ::close(fd);
  server.Stop();
}

}  // namespace
}  // namespace cape::server
