#ifndef CAPE_PATTERN_PATTERN_IO_H_
#define CAPE_PATTERN_PATTERN_IO_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "pattern/pattern_set.h"
#include "relational/schema.h"

namespace cape {

/// Serializes a mined PatternSet (including every local model) to a
/// versioned, line-oriented text format. The schema is embedded so loads
/// against a different relation fail loudly instead of mis-binding
/// attribute indices.
///
/// CAPE's workflow mines patterns offline and answers questions online
/// (Section 5: "Mine ARP offline, and find the top-k explanations for a
/// user question"); persistence is what separates the two phases in a real
/// deployment.
std::string SerializePatternSet(const PatternSet& patterns, const Schema& schema);

/// Parses a serialized pattern set, validating that `schema` matches the
/// one the patterns were mined against (field names and types).
Result<PatternSet> DeserializePatternSet(const std::string& text, const Schema& schema);

/// ---- Binary pattern store metadata -------------------------------------
struct PatternStoreMeta {
  uint32_t format_version = 0;
  uint64_t schema_digest = 0;
  uint64_t mining_config_digest = 0;
};

/// File variants. LoadPatternSet sniffs the format: both the line-oriented
/// text files above and the binary store below load transparently. `meta`
/// (optional) receives the binary header fields; for a text file it is left
/// with format_version == 0 (the text form predates versioned headers).
Status SavePatternSet(const PatternSet& patterns, const Schema& schema,
                      const std::string& path);
Result<PatternSet> LoadPatternSet(const std::string& path, const Schema& schema,
                                  PatternStoreMeta* meta = nullptr);

/// ---- Binary pattern store (the serving-layer codec) -------------------
///
/// Layout (little-endian):
///
///   magic "CAPEARPB" | u32 format version | u64 schema digest |
///   u64 mining-config digest | embedded schema | patterns ... |
///   u64 FNV-1a checksum of every preceding byte
///
/// The schema digest and embedded fields reject loads against the wrong
/// relation; the mining-config digest records which MiningConfig produced
/// the set (0 when unknown); the trailing checksum turns any byte-level
/// corruption or truncation into a clean InvalidArgument instead of a
/// misparse. The codec is value-exact:
/// binary -> text -> binary and text -> binary -> text are both byte
/// fixpoints (doubles are stored as raw IEEE bytes here and via the
/// round-trip-exact FormatDouble in the text form).
///
/// Current binary format version.
inline constexpr uint32_t kPatternStoreFormatVersion = 1;

std::string SerializePatternSetBinary(const PatternSet& patterns, const Schema& schema,
                                      uint64_t mining_config_digest = 0);

/// Parses a binary store, validating checksum, version, and schema. `meta`
/// (optional) receives the header fields on success.
Result<PatternSet> DeserializePatternSetBinary(std::string_view bytes, const Schema& schema,
                                               PatternStoreMeta* meta = nullptr);

/// True when `bytes` starts with the binary store magic (used by the
/// format-sniffing loader; says nothing about overall validity).
bool LooksLikeBinaryPatternStore(std::string_view bytes);

Status SavePatternSetBinary(const PatternSet& patterns, const Schema& schema,
                            const std::string& path, uint64_t mining_config_digest = 0);
Result<PatternSet> LoadPatternSetBinary(const std::string& path, const Schema& schema,
                                        PatternStoreMeta* meta = nullptr);

}  // namespace cape

#endif  // CAPE_PATTERN_PATTERN_IO_H_
