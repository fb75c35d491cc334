// Binary pattern store (DESIGN.md §11): versioned, checksummed, value-exact.
// Alongside the functional round-trip checks, this suite carries the
// fuzz-ish robustness property: corrupting or truncating the serialized
// bytes at *every offset* must produce a clean Status error — never a
// crash, CHECK, or out-of-bounds read (the suite runs under ASan in the
// sanitizer CI flavor).

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/engine.h"
#include "pattern/mining.h"
#include "pattern/pattern_io.h"
#include "relational/table.h"
#include "test_util.h"

namespace cape {
namespace {

struct MinedFixture {
  TablePtr table;
  PatternSet patterns;
  MiningConfig config;
};

/// Mines a small but representative set: Const and Lin models, multi-attr
/// fragments, strings with spaces/tabs/percent signs. Small on purpose —
/// the every-offset fuzz tests are quadratic in the store size.
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
  return MinedFixture{table, std::move(result->patterns), config};
}

TEST(PatternStoreTest, BinaryRoundTripIsExactAndAFixpoint) {
  MinedFixture fixture = Mine();
  ASSERT_GT(fixture.patterns.size(), 0u);
  const Schema& schema = *fixture.table->schema();
  const uint64_t digest = MiningConfigDigest(fixture.config);

  const std::string binary = SerializePatternSetBinary(fixture.patterns, schema, digest);
  ASSERT_TRUE(LooksLikeBinaryPatternStore(binary));

  PatternStoreMeta meta;
  auto loaded = DeserializePatternSetBinary(binary, schema, &meta);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(meta.format_version, kPatternStoreFormatVersion);
  EXPECT_EQ(meta.schema_digest, schema.Digest());
  EXPECT_EQ(meta.mining_config_digest, digest);

  // Value-exact: the loaded set re-serializes to the same bytes in both
  // formats (binary fixpoint, and text equal to the fresh set's text).
  EXPECT_EQ(SerializePatternSetBinary(*loaded, schema, digest), binary);
  EXPECT_EQ(SerializePatternSet(*loaded, schema),
            SerializePatternSet(fixture.patterns, schema));
}

TEST(PatternStoreTest, CrossFormatRoundTripsAreFixpoints) {
  MinedFixture fixture = Mine();
  const Schema& schema = *fixture.table->schema();
  const std::string text = SerializePatternSet(fixture.patterns, schema);
  const std::string binary = SerializePatternSetBinary(fixture.patterns, schema);

  // text -> parse -> binary == fresh binary; binary -> parse -> text == text.
  auto from_text = DeserializePatternSet(text, schema);
  ASSERT_TRUE(from_text.ok());
  EXPECT_EQ(SerializePatternSetBinary(*from_text, schema), binary);

  auto from_binary = DeserializePatternSetBinary(binary, schema);
  ASSERT_TRUE(from_binary.ok());
  EXPECT_EQ(SerializePatternSet(*from_binary, schema), text);
}

TEST(PatternStoreTest, EmptySetRoundTrips) {
  auto table = MakeEmptyTable({Field{"x", DataType::kInt64, false}});
  const std::string binary = SerializePatternSetBinary(PatternSet(), *table->schema());
  auto loaded = DeserializePatternSetBinary(binary, *table->schema());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), 0u);
}

TEST(PatternStoreTest, SchemaMismatchRejected) {
  MinedFixture fixture = Mine();
  const std::string binary =
      SerializePatternSetBinary(fixture.patterns, *fixture.table->schema());

  auto wrong_arity = Schema::Make({Field{"author name", DataType::kString, false}});
  EXPECT_TRUE(DeserializePatternSetBinary(binary, *wrong_arity).status().IsInvalidArgument());

  auto wrong_name = Schema::Make({Field{"renamed", DataType::kString, false},
                                  Field{"year", DataType::kInt64, false},
                                  Field{"venue", DataType::kString, false}});
  EXPECT_TRUE(DeserializePatternSetBinary(binary, *wrong_name).status().IsInvalidArgument());

  auto wrong_type = Schema::Make({Field{"author name", DataType::kString, false},
                                  Field{"year", DataType::kDouble, false},
                                  Field{"venue", DataType::kString, false}});
  EXPECT_TRUE(DeserializePatternSetBinary(binary, *wrong_type).status().IsInvalidArgument());
}

TEST(PatternStoreTest, UnknownVersionRejected) {
  MinedFixture fixture = Mine();
  const Schema& schema = *fixture.table->schema();
  std::string binary = SerializePatternSetBinary(fixture.patterns, schema);
  // Bump the version field (offset 8, after the magic). The checksum covers
  // the version bytes too, so this fails closed either way — what matters
  // is that it is a clean InvalidArgument, not a misparse.
  binary[8] = static_cast<char>(kPatternStoreFormatVersion + 1);
  auto loaded = DeserializePatternSetBinary(binary, schema);
  EXPECT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsInvalidArgument());
}

TEST(PatternStoreTest, TruncationAtEveryOffsetFailsCleanly) {
  MinedFixture fixture = Mine();
  const Schema& schema = *fixture.table->schema();
  const std::string binary = SerializePatternSetBinary(fixture.patterns, schema);
  ASSERT_GT(binary.size(), 32u);
  for (size_t len = 0; len < binary.size(); ++len) {
    auto loaded = DeserializePatternSetBinary(std::string_view(binary).substr(0, len), schema);
    ASSERT_FALSE(loaded.ok()) << "truncation to " << len << " bytes parsed successfully";
    ASSERT_TRUE(loaded.status().IsInvalidArgument())
        << "truncation to " << len << ": " << loaded.status().ToString();
  }
}

TEST(PatternStoreTest, CorruptionAtEveryOffsetFailsCleanly) {
  MinedFixture fixture = Mine();
  const Schema& schema = *fixture.table->schema();
  const std::string binary = SerializePatternSetBinary(fixture.patterns, schema);
  // Two flip patterns per offset: a single-bit flip and a full-byte flip.
  // The trailing FNV-1a checksum is updated byte-by-byte with xor-then-
  // multiply (bijective per byte), so any payload change shifts the digest
  // and every corruption must be rejected before a single field is parsed.
  for (size_t offset = 0; offset < binary.size(); ++offset) {
    for (const unsigned char flip : {0x01u, 0xFFu}) {
      std::string corrupt = binary;
      corrupt[offset] = static_cast<char>(corrupt[offset] ^ flip);
      auto loaded = DeserializePatternSetBinary(corrupt, schema);
      ASSERT_FALSE(loaded.ok())
          << "flip 0x" << std::hex << static_cast<int>(flip) << " at offset " << std::dec
          << offset << " parsed successfully";
      ASSERT_TRUE(loaded.status().IsInvalidArgument())
          << "offset " << offset << ": " << loaded.status().ToString();
    }
  }
}

TEST(PatternStoreTest, TrailingGarbageRejected) {
  MinedFixture fixture = Mine();
  const Schema& schema = *fixture.table->schema();
  std::string binary = SerializePatternSetBinary(fixture.patterns, schema);
  binary += "extra";
  EXPECT_TRUE(DeserializePatternSetBinary(binary, schema).status().IsInvalidArgument());
}

TEST(PatternStoreTest, FileSniffingLoadsBothFormats) {
  MinedFixture fixture = Mine();
  const Schema& schema = *fixture.table->schema();
  const std::string text_path = TestTempPath("store.arp");
  const std::string binary_path = TestTempPath("store.arpb");

  ASSERT_TRUE(SavePatternSet(fixture.patterns, schema, text_path).ok());
  ASSERT_TRUE(SavePatternSetBinary(fixture.patterns, schema, binary_path, 42).ok());

  PatternStoreMeta text_meta;
  auto from_text = LoadPatternSet(text_path, schema, &text_meta);
  ASSERT_TRUE(from_text.ok()) << from_text.status().ToString();
  EXPECT_EQ(text_meta.format_version, 0u);  // text form has no binary header

  PatternStoreMeta binary_meta;
  auto from_binary = LoadPatternSet(binary_path, schema, &binary_meta);
  ASSERT_TRUE(from_binary.ok()) << from_binary.status().ToString();
  EXPECT_EQ(binary_meta.format_version, kPatternStoreFormatVersion);
  EXPECT_EQ(binary_meta.mining_config_digest, 42u);

  EXPECT_EQ(SerializePatternSet(*from_text, schema),
            SerializePatternSet(*from_binary, schema));
  std::remove(text_path.c_str());
  std::remove(binary_path.c_str());
}

TEST(PatternStoreTest, EngineBinarySaveLoadWorkflow) {
  MinedFixture fixture = Mine();
  const std::string path = TestTempPath("store_engine.arpb");

  Engine offline = std::move(Engine::FromTable(fixture.table)).ValueOrDie();
  offline.mining_config() = fixture.config;
  EXPECT_TRUE(offline.SavePatternsBinary(path).IsInvalidArgument());  // nothing mined
  offline.SetPatterns(fixture.patterns);
  ASSERT_TRUE(offline.SavePatternsBinary(path).ok());

  Engine online = std::move(Engine::FromTable(fixture.table)).ValueOrDie();
  ASSERT_TRUE(online.LoadPatterns(path).ok());
  ASSERT_TRUE(online.has_patterns());
  EXPECT_EQ(SerializePatternSet(online.patterns(), online.schema()),
            SerializePatternSet(fixture.patterns, *fixture.table->schema()));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cape
