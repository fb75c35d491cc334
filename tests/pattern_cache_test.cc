// PatternCache (DESIGN.md §11): LRU under a byte budget, keyed by
// (table fingerprint, mining-config digest), with disk persistence. The
// cache-safety rules — truncated results never cached, data mutation misses
// via fingerprint — are covered here at the Engine level; the concurrent
// warm-lookup determinism lives in determinism_test.cc.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include "core/engine.h"
#include "core/pattern_cache.h"
#include "datagen/dblp.h"
#include "pattern/pattern_io.h"
#include "test_util.h"

namespace cape {
namespace {

Engine MakeEngine(TablePtr table) {
  Engine engine = std::move(Engine::FromTable(std::move(table))).ValueOrDie();
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

TablePtr MakeDblp(uint64_t seed = 5) {
  DblpOptions options;
  options.num_rows = 2000;
  options.seed = seed;
  return std::move(GenerateDblp(options)).ValueOrDie();
}

std::shared_ptr<const PatternSet> MinePatternsFor(TablePtr table) {
  Engine engine = MakeEngine(std::move(table));
  EXPECT_TRUE(engine.MinePatterns().ok());
  return engine.shared_patterns();
}

TEST(PatternCacheTest, LookupMissThenHit) {
  PatternCache cache;
  EXPECT_EQ(cache.Lookup(1, 2), nullptr);
  auto table = MakeDblp();
  auto patterns = MinePatternsFor(table);
  cache.Insert(1, 2, patterns, table->schema());
  EXPECT_EQ(cache.Lookup(1, 2).get(), patterns.get());
  EXPECT_EQ(cache.Lookup(1, 3), nullptr);  // same table, other config
  EXPECT_EQ(cache.Lookup(9, 2), nullptr);  // other table, same config
  const PatternCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 3);
  EXPECT_EQ(stats.entries, 1);
  EXPECT_GT(stats.bytes_used, 0u);
}

TEST(PatternCacheTest, LruEvictionUnderByteBudget) {
  auto table = MakeDblp();
  auto patterns = MinePatternsFor(table);
  const uint64_t entry_bytes = EstimatePatternSetBytes(*patterns);
  ASSERT_GT(entry_bytes, 0u);

  // Budget for two entries; inserting a third evicts the least recent.
  PatternCache cache(2 * entry_bytes);
  cache.Insert(1, 0, patterns, table->schema());
  cache.Insert(2, 0, patterns, table->schema());
  ASSERT_NE(cache.Lookup(1, 0), nullptr);  // touch 1: entry 2 becomes LRU
  const int64_t evicted = cache.Insert(3, 0, patterns, table->schema());
  EXPECT_EQ(evicted, 1);
  EXPECT_EQ(cache.Lookup(2, 0), nullptr);  // the LRU entry is gone
  EXPECT_NE(cache.Lookup(1, 0), nullptr);
  EXPECT_NE(cache.Lookup(3, 0), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1);

  // A single entry over budget is still retained (never drop the newest).
  PatternCache tiny(1);
  tiny.Insert(1, 0, patterns, table->schema());
  EXPECT_NE(tiny.Lookup(1, 0), nullptr);
}

TEST(PatternCacheTest, SaveAndLoadDirectoryRoundTrip) {
  auto table = MakeDblp();
  auto patterns = MinePatternsFor(table);
  const uint64_t fingerprint = table->Fingerprint();

  PatternCache cache;
  cache.Insert(fingerprint, 77, patterns, table->schema());
  const std::string dir = TestTempPath("cache_dir");
  ASSERT_TRUE(cache.SaveToDirectory(dir).ok());

  PatternCache restored;
  auto loaded = restored.LoadFromDirectory(dir, *table->schema(), fingerprint);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, 1);
  auto entry = restored.Lookup(fingerprint, 77);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(SerializePatternSet(*entry, *table->schema()),
            SerializePatternSet(*patterns, *table->schema()));

  // A store for a different fingerprint is left on disk but not loaded.
  PatternCache other;
  auto none = other.LoadFromDirectory(dir, *table->schema(), fingerprint + 1);
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(*none, 0);

  // A corrupt store is skipped, never fatal.
  for (const auto& dirent : std::filesystem::directory_iterator(dir)) {
    std::ofstream f(dirent.path(), std::ios::binary | std::ios::app);
    f << "corruption";
  }
  PatternCache after_corruption;
  auto skipped = after_corruption.LoadFromDirectory(dir, *table->schema(), fingerprint);
  ASSERT_TRUE(skipped.ok());
  EXPECT_EQ(*skipped, 0);

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(PatternCacheTest, EngineMissThenHitServesIdenticalPatterns) {
  auto table = MakeDblp();
  PatternCache cache;

  Engine cold = MakeEngine(table);
  cold.set_pattern_cache(&cache);
  ASSERT_TRUE(cold.MinePatterns().ok());
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().hits, 0);
  EXPECT_GT(cold.mining_profile().total_ns, 0);
  const std::string expected = SerializePatternSet(cold.patterns(), cold.schema());

  Engine warm = MakeEngine(table);
  warm.set_pattern_cache(&cache);
  ASSERT_TRUE(warm.MinePatterns().ok());
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().misses, 1);  // still only the cold engine's
  EXPECT_EQ(warm.mining_profile().total_ns, 0);  // zero mining work
  EXPECT_EQ(SerializePatternSet(warm.patterns(), warm.schema()), expected);
  // The hit shares the cold run's set — no copy, same object.
  EXPECT_EQ(warm.shared_patterns().get(), cold.shared_patterns().get());
}

TEST(PatternCacheTest, ConfigChangeMissesViaDigest) {
  auto table = MakeDblp();
  PatternCache cache;

  Engine first = MakeEngine(table);
  first.set_pattern_cache(&cache);
  ASSERT_TRUE(first.MinePatterns().ok());

  // A result-affecting knob changes the digest -> miss.
  Engine second = MakeEngine(table);
  second.set_pattern_cache(&cache);
  second.mining_config().global_support_threshold += 1;
  ASSERT_TRUE(second.MinePatterns().ok());
  EXPECT_EQ(cache.stats().hits, 0);
  EXPECT_EQ(cache.stats().misses, 2);

  // Performance knobs (threads, deadline) keep the digest -> hit.
  Engine third = MakeEngine(table);
  third.set_pattern_cache(&cache);
  third.mining_config().num_threads = 4;
  third.mining_config().deadline_ms = 60000;
  ASSERT_TRUE(third.MinePatterns().ok());
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(third.mining_profile().total_ns, 0);
}

TEST(PatternCacheTest, MutatedTableMissesViaFingerprint) {
  auto table = MakeDblp();
  PatternCache cache;

  Engine first = MakeEngine(table);
  first.set_pattern_cache(&cache);
  ASSERT_TRUE(first.MinePatterns().ok());
  EXPECT_EQ(cache.stats().misses, 1);

  // Mutate the relation in place (the engines share the TablePtr): the
  // fingerprint changes, so the cached patterns must not be served.
  ASSERT_TRUE(table
                  ->AppendRow({Value::String("new author"), Value::String("p999999"),
                               Value::Int64(2019), Value::String("SIGMOD")})
                  .ok());
  Engine second = MakeEngine(table);
  second.set_pattern_cache(&cache);
  ASSERT_TRUE(second.MinePatterns().ok());
  EXPECT_EQ(cache.stats().hits, 0);
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_GT(second.mining_profile().total_ns, 0);
  EXPECT_EQ(cache.stats().entries, 2);
}

TEST(PatternCacheTest, TruncatedMiningIsNeverCached) {
  auto table = MakeDblp();
  PatternCache cache;

  // A pre-cancelled token stops mining immediately: the run returns
  // truncated (a subset — here empty) and must not populate the cache.
  Engine engine = MakeEngine(table);
  engine.set_pattern_cache(&cache);
  CancellationSource source;
  engine.mining_config().cancel_token = source.token();
  source.RequestCancel();
  ASSERT_TRUE(engine.MinePatterns().ok());
  EXPECT_TRUE(engine.run_stats().mine_truncated);
  EXPECT_EQ(cache.stats().entries, 0) << "truncated result was cached";

  // The next engine with the same key must mine for real and get the full
  // set, not a cached truncation.
  Engine full = MakeEngine(table);
  full.set_pattern_cache(&cache);
  ASSERT_TRUE(full.MinePatterns().ok());
  EXPECT_FALSE(full.run_stats().mine_truncated);
  EXPECT_EQ(cache.stats().hits, 0);
  EXPECT_GT(full.patterns().size(), 0u);
  EXPECT_EQ(cache.stats().entries, 1);
}

TEST(PatternCacheTest, LoadPatternsWarmsTheCache) {
  auto table = MakeDblp();
  const std::string path = TestTempPath("cache_warm.arpb");

  PatternCache cache;
  Engine offline = MakeEngine(table);
  offline.set_pattern_cache(&cache);
  ASSERT_TRUE(offline.MinePatterns().ok());
  ASSERT_TRUE(offline.SavePatternsBinary(path).ok());

  // Fresh cache, fresh engine: loading the binary store re-warms the cache
  // (the store records the mining-config digest), so MinePatterns hits.
  PatternCache restored;
  Engine online = MakeEngine(table);
  online.set_pattern_cache(&restored);
  ASSERT_TRUE(online.LoadPatterns(path).ok());
  EXPECT_EQ(restored.stats().entries, 1);
  ASSERT_TRUE(online.MinePatterns().ok());
  EXPECT_EQ(restored.stats().hits, 1);
  EXPECT_EQ(online.mining_profile().total_ns, 0);
  std::remove(path.c_str());
}

TEST(PatternCacheTest, FingerprintIsContentSensitive) {
  auto a = MakeDblp(5);
  auto b = MakeDblp(5);
  auto c = MakeDblp(6);
  EXPECT_EQ(a->Fingerprint(), b->Fingerprint());  // same content, same print
  EXPECT_NE(a->Fingerprint(), c->Fingerprint());  // different seed
  ASSERT_TRUE(b->AppendRow({Value::String("x"), Value::String("p1"), Value::Int64(2000),
                            Value::String("y")})
                  .ok());
  EXPECT_NE(a->Fingerprint(), b->Fingerprint());  // appended row
}

}  // namespace
}  // namespace cape
