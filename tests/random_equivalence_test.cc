// Randomized equivalence suite (DESIGN.md §11): seeded generators of small
// random tables — mixed types, NULLs, skewed dictionaries — drive property
// checks that the hand-written fixtures cannot cover by breadth:
//
//  1. The scan kernels — FilterEquals, CountFilterMatches, GroupByAggregate,
//     FilterGroupAggregate, ProjectDistinct and SortTable — match the
//     row-at-a-time reference evaluator (reference_eval.h) on every table,
//     resident and, for everything but SortTable, on its out-of-core twin
//     (the PagedRandomEquivalenceTest suite; sanitizer CI selects it with
//     `ctest -R Paged`).
//  2. A pattern set round-tripped through the binary store (and the text
//     form) is byte-identical to the freshly mined one.
//  3. Mining the out-of-core twin gives the in-memory pattern set at every
//     thread count.
//  4. Incremental maintenance lands on the pattern set of a cold mine.
//  5. One-shot explanation with t'[F] = t[F] pushed below γ and an
//     ExplainSession over whole γ tables, each over the resident table and
//     over its paged copy, return byte-identical top-k answers at any
//     thread count.
//
// Every test is parameterized over a fixed seed list, so each seed is its
// own ctest entry and a failure names the reproducing seed directly. The
// suite carries the `slow` ctest label.

#include <gtest/gtest.h>

#include <cstdio>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "pattern/mining.h"
#include "pattern/pattern_io.h"
#include "pattern/pattern_set.h"
#include "relational/csv.h"
#include "relational/kernels.h"
#include "relational/operators.h"
#include "relational/table.h"
#include "reference_eval.h"
#include "storage/heap_file.h"
#include "storage/paged_table.h"
#include "test_util.h"

namespace cape {
namespace {

/// Small random relation: two string columns with skewed dictionaries
/// (including awkward strings — spaces, tabs, '%'), a nullable int64, and a
/// nullable double. All content is a pure function of the seed.
TablePtr MakeRandomTable(uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto table = MakeEmptyTable({Field{"cat", DataType::kString, true},
                               Field{"city", DataType::kString, true},
                               Field{"num", DataType::kInt64, true},
                               Field{"val", DataType::kDouble, true}});

  const std::vector<std::string> cat_pool = {"alpha", "beta x", "g%mma", "d\te", "eps"};
  const std::vector<std::string> city_pool = {"oslo", "rio", "SIG KDD", "ICDE", "np", "q"};
  const int64_t num_rows = 80 + static_cast<int64_t>(rng() % 160);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int64_t r = 0; r < num_rows; ++r) {
    // Cubing the uniform draw skews the dictionary: index 0 dominates,
    // the tail codes are rare — the shape that exposes dense-path bugs.
    const double u = unit(rng);
    const size_t cat_idx = static_cast<size_t>(u * u * u * cat_pool.size());
    const size_t city_idx = static_cast<size_t>(rng() % city_pool.size());
    Row row;
    row.push_back(unit(rng) < 0.1 ? Value::Null() : Value::String(cat_pool[cat_idx]));
    row.push_back(unit(rng) < 0.1 ? Value::Null() : Value::String(city_pool[city_idx]));
    row.push_back(unit(rng) < 0.15 ? Value::Null()
                                   : Value::Int64(static_cast<int64_t>(rng() % 50)));
    row.push_back(unit(rng) < 0.15 ? Value::Null() : Value::Double(unit(rng) * 100.0));
    EXPECT_TRUE(table->AppendRow(row).ok());
  }
  return table;
}

/// Aggregates covering every update shape: mask popcounts (count(*) and
/// count(col) over a nullable column), the exact int64 sum, the double
/// sum/avg, and the boxed min/max comparisons (numeric and string).
std::vector<AggregateSpec> AllAggregates() {
  return {AggregateSpec::CountStar("n"),   AggregateSpec{AggFunc::kCount, 3, "val_n"},
          AggregateSpec::Sum(2, "num_sum"), AggregateSpec::Sum(3, "val_sum"),
          AggregateSpec::Avg(3, "val_avg"), AggregateSpec::Avg(2, "num_avg"),
          AggregateSpec::Min(3, "val_min"), AggregateSpec::Max(0, "cat_max")};
}

/// Conditions covering code equality, the dictionary-miss proof, NULL on a
/// string and on a numeric column, multi-column conjunctions, int64
/// equality, the scalar int64-vs-double shape, and a type mismatch.
std::vector<reference::Conditions> AllFilters() {
  return {
      {},
      {{0, Value::String("alpha")}},
      {{0, Value::String("absent")}},
      {{0, Value::Null()}},
      {{2, Value::Null()}},
      {{0, Value::String("g%mma")}, {1, Value::String("ICDE")}},
      {{2, Value::Int64(7)}},
      {{2, Value::Double(7.0)}},
      {{1, Value::String("rio")}, {2, Value::Int64(3)}},
      {{3, Value::String("7")}},
  };
}

/// Group sets covering dense string and int64 keys, mixed keys, and the
/// byte-keyed fold (the double column).
std::vector<std::vector<int>> AllGroupSets() {
  return {{0}, {0, 1}, {1, 2}, {2}, {3}, {2, 3}};
}

/// σ, COUNT, γ and DISTINCT of `table` against the reference evaluator run
/// over `rows`, a resident table with the same content (`table` itself, or
/// the table an out-of-core twin was written from).
void ExpectScansMatchReference(const Table& table, const Table& rows, const std::string& what) {
  const std::vector<AggregateSpec> aggs = AllAggregates();
  for (const reference::Conditions& conditions : AllFilters()) {
    auto filtered = FilterEquals(table, conditions);
    ASSERT_TRUE(filtered.ok()) << filtered.status().ToString();
    EXPECT_TRUE(reference::SameRows(**filtered, reference::Select(rows, conditions))) << what;
    auto count = CountFilterMatches(table, conditions);
    ASSERT_TRUE(count.ok()) << count.status().ToString();
    EXPECT_EQ(*count, reference::Count(rows, conditions)) << what;
  }
  std::vector<std::vector<int>> group_sets = AllGroupSets();
  group_sets.push_back({});
  for (const std::vector<int>& group_cols : group_sets) {
    auto grouped = GroupByAggregate(table, group_cols, aggs);
    ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
    EXPECT_TRUE(reference::SameRows(**grouped, reference::GroupBy(rows, {}, group_cols, aggs)))
        << what << ", " << group_cols.size() << " group columns";
    auto distinct = ProjectDistinct(table, group_cols);
    ASSERT_TRUE(distinct.ok()) << distinct.status().ToString();
    EXPECT_TRUE(reference::SameRows(**distinct, reference::Distinct(rows, group_cols))) << what;
  }
}

/// The fused σ → γ of `table` under every filter and group set (global
/// aggregation included) against the reference evaluator over `rows`.
void ExpectFusedMatchesReference(const Table& table, const Table& rows,
                                 const std::string& what) {
  const std::vector<AggregateSpec> aggs = AllAggregates();
  std::vector<std::vector<int>> group_sets = AllGroupSets();
  group_sets.push_back({});
  for (const reference::Conditions& conditions : AllFilters()) {
    for (const std::vector<int>& group_cols : group_sets) {
      auto fused = FilterGroupAggregate(table, conditions, group_cols, aggs);
      ASSERT_TRUE(fused.ok()) << fused.status().ToString();
      EXPECT_TRUE(
          reference::SameRows(**fused, reference::GroupBy(rows, conditions, group_cols, aggs)))
          << what << ", " << conditions.size() << " conditions, " << group_cols.size()
          << " group columns";
    }
  }
}

class RandomEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomEquivalenceTest, KernelsMatchReferenceOnRandomTables) {
  TablePtr table = MakeRandomTable(GetParam());
  const std::string seed = "seed " + std::to_string(GetParam());
  ExpectScansMatchReference(*table, *table, seed);
  const std::vector<std::vector<SortKey>> sort_keys = {
      {{0, true}},
      {{0, false}, {2, true}},
      {{1, true}, {3, false}, {0, true}},
      {{2, false}, {1, false}},
  };
  for (const auto& keys : sort_keys) {
    auto sorted = SortTable(*table, keys);
    ASSERT_TRUE(sorted.ok()) << sorted.status().ToString();
    EXPECT_TRUE(reference::SameRows(**sorted, reference::Sort(*table, keys))) << seed;
  }
}

TEST_P(RandomEquivalenceTest, FusedKernelMatchesReferenceOnRandomTables) {
  TablePtr table = MakeRandomTable(GetParam());
  ExpectFusedMatchesReference(*table, *table, "seed " + std::to_string(GetParam()));
}

TEST_P(RandomEquivalenceTest, RoundTrippedPatternSetIsByteIdenticalToFreshMining) {
  TablePtr table = MakeRandomTable(GetParam());
  MiningConfig config;
  config.max_pattern_size = 3;
  config.local_gof_threshold = 0.05;
  config.local_support_threshold = 2;
  config.global_confidence_threshold = 0.1;
  config.global_support_threshold = 2;
  config.agg_functions = {AggFunc::kCount, AggFunc::kSum};
  auto mined = MakeArpMiner()->Mine(*table, config);
  ASSERT_TRUE(mined.ok()) << mined.status().ToString();

  const Schema& schema = *table->schema();
  const uint64_t digest = MiningConfigDigest(config);
  const std::string text = SerializePatternSet(mined->patterns, schema);
  const std::string binary = SerializePatternSetBinary(mined->patterns, schema, digest);

  // Binary round trip reproduces the text serialization byte-for-byte, and
  // re-serializing the loaded set is a binary fixpoint.
  auto from_binary = DeserializePatternSetBinary(binary, schema);
  ASSERT_TRUE(from_binary.ok()) << from_binary.status().ToString();
  EXPECT_EQ(SerializePatternSet(*from_binary, schema), text) << "seed " << GetParam();
  EXPECT_EQ(SerializePatternSetBinary(*from_binary, schema, digest), binary);

  // Text round trip feeds back into an identical binary store.
  auto from_text = DeserializePatternSet(text, schema);
  ASSERT_TRUE(from_text.ok()) << from_text.status().ToString();
  EXPECT_EQ(SerializePatternSetBinary(*from_text, schema, digest), binary);

  // And a second fresh mining run serializes identically (mining itself is
  // deterministic, so any difference would be a codec defect).
  auto remined = MakeArpMiner()->Mine(*table, config);
  ASSERT_TRUE(remined.ok());
  EXPECT_EQ(SerializePatternSetBinary(remined->patterns, schema, digest), binary);
}

INSTANTIATE_TEST_SUITE_P(FixedSeeds, RandomEquivalenceTest,
                         ::testing::Values(7u, 21u, 42u, 99u, 1337u, 2026u),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Paged-vs-in-memory byte identity (DESIGN.md §15).
// ---------------------------------------------------------------------------

/// Multi-page variant of MakeRandomTable: same column shapes, enough rows to
/// span several 2048-row heap-file pages (so the paged fixtures cross page
/// boundaries, hit the short last page, and recycle frames under a small
/// budget). Content is a pure function of the seed.
TablePtr MakeLargeRandomTable(uint64_t seed) {
  std::mt19937_64 rng(seed * 2654435761u + 1);
  auto table = MakeEmptyTable({Field{"cat", DataType::kString, true},
                               Field{"city", DataType::kString, true},
                               Field{"num", DataType::kInt64, true},
                               Field{"val", DataType::kDouble, true}});
  const std::vector<std::string> cat_pool = {"alpha", "beta x", "g%mma", "d\te", "eps"};
  const std::vector<std::string> city_pool = {"oslo", "rio", "SIG KDD", "ICDE", "np", "q"};
  const int64_t num_rows = 4500 + static_cast<int64_t>(rng() % 1024);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  table->Reserve(num_rows);
  for (int64_t r = 0; r < num_rows; ++r) {
    const double u = unit(rng);
    const size_t cat_idx = static_cast<size_t>(u * u * u * cat_pool.size());
    Row row;
    row.push_back(unit(rng) < 0.1 ? Value::Null() : Value::String(cat_pool[cat_idx]));
    row.push_back(unit(rng) < 0.1 ? Value::Null()
                                  : Value::String(city_pool[rng() % city_pool.size()]));
    row.push_back(unit(rng) < 0.15 ? Value::Null()
                                   : Value::Int64(static_cast<int64_t>(rng() % 50)));
    row.push_back(unit(rng) < 0.15 ? Value::Null() : Value::Double(unit(rng) * 100.0));
    EXPECT_TRUE(table->AppendRow(row).ok());
  }
  return table;
}

/// A random table plus its heap-file twin opened as a non-resident paged
/// table under a deliberately tight budget (~2 pages), with the temp file
/// removed at scope exit.
struct PagedFixture {
  TablePtr resident;
  TablePtr paged;
  std::string path;

  ~PagedFixture() {
    paged.reset();
    if (!path.empty()) std::remove(path.c_str());
  }
};

PagedFixture MakePagedFixture(uint64_t seed) {
  PagedFixture fx;
  fx.resident = MakeLargeRandomTable(seed);
  fx.path = TestTempPath("paged_equiv_" + std::to_string(seed) + ".cape");
  EXPECT_TRUE(WriteTableToHeapFile(*fx.resident, fx.path, /*rows_per_page=*/2048).ok());
  auto opened = OpenPagedTable(fx.path, /*budget_bytes=*/1 << 17);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  fx.paged = *opened;
  return fx;
}

class PagedRandomEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PagedRandomEquivalenceTest, PagedOperatorsMatchReference) {
  // Several 2048-row blocks: the resident table scans as one multi-block
  // view, its out-of-core twin page by page under a ~2-page budget.
  PagedFixture fx = MakePagedFixture(GetParam());
  const std::string seed = "seed " + std::to_string(GetParam());
  ExpectScansMatchReference(*fx.resident, *fx.resident, seed + " resident");
  ExpectFusedMatchesReference(*fx.resident, *fx.resident, seed + " resident");
  ExpectScansMatchReference(*fx.paged, *fx.resident, seed + " paged");
  ExpectFusedMatchesReference(*fx.paged, *fx.resident, seed + " paged");
  // Sorting is for (small) resident results only.
  EXPECT_TRUE(SortTable(*fx.paged, {{0, true}}).status().IsNotImplemented());
}

TEST_P(PagedRandomEquivalenceTest, PagedMiningMatchesInMemoryAcrossThreadCounts) {
  PagedFixture fx = MakePagedFixture(GetParam());
  MiningConfig config;
  config.max_pattern_size = 2;
  config.local_gof_threshold = 0.05;
  config.local_support_threshold = 2;
  config.global_confidence_threshold = 0.1;
  config.global_support_threshold = 2;
  config.agg_functions = {AggFunc::kCount, AggFunc::kSum};

  auto mine = [&](TablePtr t, int threads) -> std::string {
    auto engine = Engine::FromTable(std::move(t));
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    engine->mining_config() = config;
    engine->set_num_threads(threads);
    const Status st = engine->MinePatterns("NAIVE");
    EXPECT_TRUE(st.ok()) << st.ToString();
    if (!st.ok()) return std::string();  // a failed mine has no pattern set
    return SerializePatternSet(engine->patterns(), engine->schema());
  };

  // Out-of-core mining is deterministic and thread-count-invariant: every
  // (storage, threads) combination serializes the same pattern set.
  // (In-memory thread invariance is the determinism suite's job; here the
  // subject is the paged scan, so only it sweeps thread counts.)
  const std::string want = mine(fx.resident, 1);
  EXPECT_FALSE(want.empty());
  for (int threads : {1, 2, 4, 8}) {
    EXPECT_EQ(mine(fx.paged, threads), want)
        << "paged mining diverged (seed " << GetParam() << ", threads " << threads << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(FixedSeeds, PagedRandomEquivalenceTest,
                         ::testing::Values(7u, 21u, 42u, 99u, 1337u, 2026u),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Incremental maintenance vs from-scratch mining (DESIGN.md §16).
//
// The oracle: a base prefix of a random table mined once, then grown through
// Engine::AppendAndRemine under several append schedules, must serialize the
// exact same pattern set — and produce the exact same top-k explanations —
// as a cold mine of the full table, across scratch-miner thread counts, and
// against a paged twin of the grown table. maint_full_remines is pinned to
// zero so a silent fallback to re-mining (which would also pass the byte
// comparison) cannot masquerade as incremental maintenance.
// ---------------------------------------------------------------------------

MiningConfig OracleMiningConfig(int max_pattern_size) {
  MiningConfig config;
  config.max_pattern_size = max_pattern_size;
  config.local_gof_threshold = 0.05;
  config.local_support_threshold = 2;
  config.global_confidence_threshold = 0.1;
  config.global_support_threshold = 2;
  config.agg_functions = {AggFunc::kCount, AggFunc::kSum};
  return config;
}

/// Fold points for the append schedules: element 0 is the base size mined
/// cold; each later element is the table size after one AppendAndRemine.
std::vector<std::vector<int64_t>> AppendSchedules(int64_t n) {
  const int64_t one_pct = std::max<int64_t>(1, n / 100);
  std::vector<int64_t> repeated;
  for (int64_t r = (n * 3) / 5; r < n; r += 7) repeated.push_back(r);
  repeated.push_back(n);
  return {
      {n - 1, n},        // a single appended row
      {n - one_pct, n},  // a 1% batch
      {n / 2, n},        // a 50% batch
      repeated,          // many small batches, Absorb after each
  };
}

/// Builds a table holding rows [0, size) of `pool` (same append order, so
/// dictionaries and group discovery order are identical to the pool's).
TablePtr PrefixTable(const TablePtr& pool, int64_t size) {
  auto table = std::make_shared<Table>(pool->schema());
  for (int64_t r = 0; r < size; ++r) {
    EXPECT_TRUE(table->AppendRow(pool->GetRow(r)).ok());
  }
  return table;
}

/// Mines rows [0, schedule.front()) cold, then replays the schedule through
/// AppendAndRemine. Returns the engine so callers can also explain on it.
Result<Engine> GrowIncrementally(const TablePtr& pool,
                                 const std::vector<int64_t>& schedule,
                                 const MiningConfig& config) {
  CAPE_ASSIGN_OR_RETURN(Engine engine, Engine::FromTable(PrefixTable(pool, schedule[0])));
  engine.mining_config() = config;
  CAPE_RETURN_IF_ERROR(engine.MinePatterns("ARP-MINE"));
  for (size_t i = 1; i < schedule.size(); ++i) {
    std::vector<Row> delta;
    for (int64_t r = schedule[i - 1]; r < schedule[i]; ++r) {
      delta.push_back(pool->GetRow(r));
    }
    CAPE_RETURN_IF_ERROR(engine.AppendAndRemine(delta));
  }
  return engine;
}

Result<Engine> MineScratch(const TablePtr& pool, int64_t size, const MiningConfig& config,
                           int threads) {
  CAPE_ASSIGN_OR_RETURN(Engine engine, Engine::FromTable(PrefixTable(pool, size)));
  engine.mining_config() = config;
  engine.set_num_threads(threads);
  CAPE_RETURN_IF_ERROR(engine.MinePatterns("ARP-MINE"));
  return engine;
}

class IncrementalVsScratchTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IncrementalVsScratchTest, AppendSchedulesMatchScratch) {
  TablePtr pool = MakeRandomTable(GetParam());
  const int64_t n = pool->num_rows();
  const MiningConfig config = OracleMiningConfig(3);

  auto scratch = MineScratch(pool, n, config, /*threads=*/1);
  ASSERT_TRUE(scratch.ok()) << scratch.status().ToString();
  const std::string want = SerializePatternSet(scratch->patterns(), scratch->schema());

  for (const std::vector<int64_t>& schedule : AppendSchedules(n)) {
    auto grown = GrowIncrementally(pool, schedule, config);
    ASSERT_TRUE(grown.ok()) << grown.status().ToString();
    EXPECT_EQ(grown->run_stats().maint_full_remines, 0)
        << "fell back to re-mining (seed " << GetParam() << ", base " << schedule[0] << ")";
    EXPECT_EQ(SerializePatternSet(grown->patterns(), grown->schema()), want)
        << "seed " << GetParam() << " base " << schedule[0] << " steps "
        << schedule.size() - 1;
  }
}

TEST_P(IncrementalVsScratchTest, MaintainedSetMatchesScratchAcrossThreadCounts) {
  TablePtr pool = MakeRandomTable(GetParam());
  const int64_t n = pool->num_rows();
  const MiningConfig config = OracleMiningConfig(3);

  // The many-small-batches schedule is the one with the most maintained
  // state; the scratch side sweeps thread counts (byte identity must be
  // thread-count-invariant; on a single-hardware-thread host this still
  // exercises the work-splitting paths).
  auto grown = GrowIncrementally(pool, AppendSchedules(n)[3], config);
  ASSERT_TRUE(grown.ok()) << grown.status().ToString();
  const std::string maintained =
      SerializePatternSet(grown->patterns(), grown->schema());

  for (int threads : {1, 2, 4, 8}) {
    auto scratch = MineScratch(pool, n, config, threads);
    ASSERT_TRUE(scratch.ok()) << scratch.status().ToString();
    EXPECT_EQ(maintained, SerializePatternSet(scratch->patterns(), scratch->schema()))
        << "seed " << GetParam() << " threads " << threads;
  }
}

TEST_P(IncrementalVsScratchTest, MaintainedSetMatchesScratchMineOfPagedTwin) {
  TablePtr pool = MakeRandomTable(GetParam());
  const int64_t n = pool->num_rows();
  // max_pattern_size 2 mirrors the paged-mining precedent above (the paged
  // scan re-reads pages per query; depth 3 buys no extra coverage here).
  const MiningConfig config = OracleMiningConfig(2);

  auto grown = GrowIncrementally(pool, AppendSchedules(n)[1], config);
  ASSERT_TRUE(grown.ok()) << grown.status().ToString();

  // Spill the grown table to a heap file and scratch-mine the non-resident
  // twin: incremental maintenance on resident arrays must land on the same
  // bytes as a cold out-of-core mine of the same content.
  const std::string path =
      TestTempPath("incr_paged_" + std::to_string(GetParam()) + ".cape");
  ASSERT_TRUE(WriteTableToHeapFile(*grown->table(), path, /*rows_per_page=*/2048).ok());
  auto paged = OpenPagedTable(path, /*budget_bytes=*/1 << 17);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  auto twin = Engine::FromTable(*paged);
  ASSERT_TRUE(twin.ok());
  twin->mining_config() = config;
  // ARP-MINE, not NAIVE: the maintained set mirrors the ARP evaluation
  // order bit-for-bit, and the two miners agree only up to the last ulp of
  // the deviation statistics (their fold orders differ). Storage is the
  // subject here, so the twin runs the same algorithm out-of-core.
  ASSERT_TRUE(twin->MinePatterns("ARP-MINE").ok());

  EXPECT_EQ(SerializePatternSet(grown->patterns(), grown->schema()),
            SerializePatternSet(twin->patterns(), twin->schema()))
      << "seed " << GetParam();
  std::remove(path.c_str());
}

TEST_P(IncrementalVsScratchTest, TopKExplanationsMatchScratchAfterAppends) {
  TablePtr pool = MakeRandomTable(GetParam());
  const int64_t n = pool->num_rows();
  const MiningConfig config = OracleMiningConfig(3);

  auto grown = GrowIncrementally(pool, AppendSchedules(n)[2], config);
  ASSERT_TRUE(grown.ok()) << grown.status().ToString();
  auto scratch = MineScratch(pool, n, config, /*threads=*/1);
  ASSERT_TRUE(scratch.ok()) << scratch.status().ToString();

  // One question per direction, anchored at the first group with both
  // grouping attributes present. The full rendered top-k must match — the
  // explanation pipeline consumes the maintained pattern set downstream, so
  // any divergence the serialization comparison missed would surface here.
  Value cat, city;
  bool found = false;
  for (int64_t r = 0; r < n && !found; ++r) {
    if (!pool->GetValue(r, 0).is_null() && !pool->GetValue(r, 1).is_null()) {
      cat = pool->GetValue(r, 0);
      city = pool->GetValue(r, 1);
      found = true;
    }
  }
  ASSERT_TRUE(found);

  for (Direction dir : {Direction::kLow, Direction::kHigh}) {
    auto question =
        grown->MakeQuestion({"cat", "city"}, {cat, city}, AggFunc::kCount, "*", dir);
    ASSERT_TRUE(question.ok()) << question.status().ToString();
    auto from_grown = grown->Explain(*question);
    auto from_scratch = scratch->Explain(*question);
    ASSERT_TRUE(from_grown.ok()) << from_grown.status().ToString();
    ASSERT_TRUE(from_scratch.ok()) << from_scratch.status().ToString();
    EXPECT_EQ(grown->RenderExplanations(from_grown->explanations),
              scratch->RenderExplanations(from_scratch->explanations))
        << "seed " << GetParam() << " dir " << static_cast<int>(dir);
  }
}

INSTANTIATE_TEST_SUITE_P(FixedSeeds, IncrementalVsScratchTest,
                         ::testing::Values(7u, 21u, 42u, 99u, 1337u, 2026u),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Candidate-table sources agree (DESIGN.md §9).
//
// One-shot Engine::Explain pushes t'[F] = t[F] below γ for every (P, P')
// pair; an ExplainSession masks whole shared γ tables instead. Both, over
// the resident table and over its page-backed copy (whose kernels scan page
// by page), must return the same top-k bytes at 1, 2, 4 and 8 threads,
// including on questions about NULL groups and questions that give the
// int64 attribute a double value (the cross-type equality the pushed-down
// filter applies).
// ---------------------------------------------------------------------------

/// Every field of an answer, doubles as exact hex floats, so two answers
/// render equal only when they are byte-identical.
std::string AnswerBytes(const ExplainResult& result, const Schema& schema) {
  std::string out;
  char buf[48];
  auto append_double = [&](double d) {
    std::snprintf(buf, sizeof(buf), " %a", d);
    out += buf;
  };
  for (const Explanation& e : result.explanations) {
    out += e.relevant_pattern.ToString(schema) + " / " +
           e.refinement_pattern.ToString(schema) + " /";
    for (const Value& v : e.tuple_values) {
      if (v.is_null()) {
        out += " NULL";
      } else if (v.type() == DataType::kString) {
        out += " '" + v.string_value() + "'";
      } else if (v.type() == DataType::kInt64) {
        out += " i" + std::to_string(v.int64_value());
      } else {
        append_double(v.double_value());
      }
    }
    for (double d : {e.agg_value, e.predicted, e.deviation, e.distance, e.norm, e.score}) {
      append_double(d);
    }
    out += "\n";
  }
  return out;
}

/// A question's group-by columns (MakeRandomTable indices) and aggregate.
struct QuestionShape {
  std::vector<int> group_by;
  AggFunc agg;
  std::string agg_attr;
};

/// (names, values) of the first three distinct groups over `group_by` that
/// hold a NULL and of the first three that hold none, in row order. An
/// int64 value is given as a double.
std::vector<std::pair<std::vector<std::string>, std::vector<Value>>> QuestionGroups(
    const Table& table, const std::vector<int>& group_by) {
  constexpr int kPerKind = 3;
  std::vector<std::pair<std::vector<std::string>, std::vector<Value>>> out;
  std::vector<std::string> names;
  for (int c : group_by) names.push_back(table.schema()->field(c).name);
  std::set<std::string> seen;
  int with_null = 0;
  int without_null = 0;
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    std::vector<Value> values;
    bool any_null = false;
    for (int c : group_by) {
      Value v = table.GetValue(r, c);
      any_null = any_null || v.is_null();
      if (!v.is_null() && v.type() == DataType::kInt64) {
        v = Value::Double(static_cast<double>(v.int64_value()));
      }
      values.push_back(std::move(v));
    }
    int& taken = any_null ? with_null : without_null;
    if (taken == kPerKind || !seen.insert(EncodeRowKey(values)).second) continue;
    ++taken;
    out.emplace_back(names, std::move(values));
  }
  return out;
}

TEST_P(RandomEquivalenceTest, OneShotSessionAndPagedExplainAgree) {
  TablePtr table = MakeRandomTable(GetParam());
  auto resident = Engine::FromTable(table);
  ASSERT_TRUE(resident.ok()) << resident.status().ToString();
  resident->mining_config() = OracleMiningConfig(3);
  ASSERT_TRUE(resident->MinePatterns("ARP-MINE").ok());

  const std::string path = TestTempPath("explain_" + std::to_string(GetParam()) + ".cape");
  ASSERT_TRUE(WriteTableToHeapFile(*table, path, /*rows_per_page=*/2048).ok());
  auto opened = OpenPagedTable(path, /*budget_bytes=*/1 << 17);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto paged = Engine::FromTable(*opened);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  paged->SetPatterns(resident->patterns());

  const std::vector<QuestionShape> shapes = {
      {{0, 1}, AggFunc::kCount, "*"},
      {{0, 2}, AggFunc::kCount, "*"},
      {{1, 2}, AggFunc::kSum, "val"},
      {{0, 1, 2}, AggFunc::kSum, "val"},
  };
  std::vector<UserQuestion> questions;
  std::vector<UserQuestion> paged_questions;
  for (const QuestionShape& shape : shapes) {
    for (const auto& [names, values] : QuestionGroups(*table, shape.group_by)) {
      for (Direction dir : {Direction::kLow, Direction::kHigh}) {
        auto q = resident->MakeQuestion(names, values, shape.agg, shape.agg_attr, dir);
        auto pq = paged->MakeQuestion(names, values, shape.agg, shape.agg_attr, dir);
        ASSERT_EQ(q.status().ToString(), pq.status().ToString());
        if (!q.ok()) {
          // sum(val) of a group whose val cells are all NULL has no answer.
          ASSERT_TRUE(q.status().IsNotFound()) << q.status().ToString();
          continue;
        }
        questions.push_back(std::move(*q));
        paged_questions.push_back(std::move(*pq));
      }
    }
  }

  const Schema& schema = resident->schema();
  std::vector<std::string> want;
  int64_t answered = 0;
  int64_t pushed_tuples = 0;
  int64_t shared_tuples = 0;
  for (int threads : {1, 2, 4, 8}) {
    resident->set_num_threads(threads);
    paged->set_num_threads(threads);
    auto session = resident->MakeExplainSession();
    auto paged_session = paged->MakeExplainSession();
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    ASSERT_TRUE(paged_session.ok()) << paged_session.status().ToString();
    for (size_t i = 0; i < questions.size(); ++i) {
      const std::string context = "seed " + std::to_string(GetParam()) + " threads " +
                                  std::to_string(threads) + " " + questions[i].ToString();
      auto one_shot = resident->Explain(questions[i]);
      auto served = session->Explain(questions[i]);
      auto from_pages = paged->Explain(paged_questions[i]);
      auto served_from_pages = paged_session->Explain(paged_questions[i]);
      ASSERT_TRUE(one_shot.ok()) << one_shot.status().ToString();
      ASSERT_TRUE(served.ok()) << served.status().ToString();
      ASSERT_TRUE(from_pages.ok()) << from_pages.status().ToString();
      ASSERT_TRUE(served_from_pages.ok()) << served_from_pages.status().ToString();
      const std::string bytes = AnswerBytes(*one_shot, schema);
      if (threads == 1) {
        want.push_back(bytes);
        answered += one_shot->explanations.empty() ? 0 : 1;
        // Same pairs in the same order at one thread, so the pushed-down
        // path checks only the F-matching subset of the shared γ rows.
        EXPECT_LE(one_shot->profile.num_tuples_checked, served->profile.num_tuples_checked)
            << context;
        pushed_tuples += one_shot->profile.num_tuples_checked;
        shared_tuples += served->profile.num_tuples_checked;
      }
      EXPECT_EQ(bytes, want[i]) << context << " (one-shot vs one thread)";
      EXPECT_EQ(AnswerBytes(*served, schema), want[i]) << context << " (session)";
      EXPECT_EQ(AnswerBytes(*from_pages, schema), want[i]) << context << " (paged)";
      EXPECT_EQ(AnswerBytes(*served_from_pages, schema), want[i])
          << context << " (paged session)";
    }
  }
  EXPECT_GT(answered, 0) << "no question had an explanation; the check is vacuous";
  EXPECT_LT(pushed_tuples, shared_tuples) << "the one-shot path did not push t'[F] below γ";
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cape
