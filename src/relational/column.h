#ifndef CAPE_RELATIONAL_COLUMN_H_
#define CAPE_RELATIONAL_COLUMN_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "common/result.h"
#include "relational/value.h"

namespace cape {

/// One column's values over a run of rows, laid out exactly like the Column
/// arrays below: a resident Column hands out its whole arrays as one chunk
/// (Column::chunk()), and a pinned heap-file page holds one chunk per
/// column (page_source.h). The scan kernels index these pointers with
/// chunk-local row offsets. Pointers for the non-matching types are null;
/// `validity` is always populated, NULL slots hold 0 / 0.0 / -1, and
/// `null_count` lets kernels keep their no-null fast paths.
struct ColumnChunk {
  const uint8_t* validity = nullptr;
  const int64_t* i64 = nullptr;
  const double* f64 = nullptr;
  const int32_t* codes = nullptr;
  int64_t null_count = 0;  ///< NULL slots within this chunk only.
};

/// Columnar storage for one attribute: a typed value vector plus a validity
/// vector. Appending a Value of the wrong type is a TypeError; NULL appends
/// store a default-constructed slot with validity=false.
///
/// String columns are dictionary-encoded (DESIGN.md §10): each row stores a
/// 4-byte code into an interned dictionary, with codes assigned in
/// first-appearance order. The dictionary is append-only and every entry is
/// referenced by at least one non-null row, so the distinct count
/// (dict_size()) and min/max reduce to dictionary operations, and the hot
/// group/filter/sort kernels in operators.cc compare codes instead of
/// heap-resident strings.
class Column {
 public:
  /// Code stored for NULL rows of a string column. Valid rows always carry a
  /// code in [0, dict_size()).
  static constexpr int32_t kNullCode = -1;

  explicit Column(DataType type);

  DataType type() const { return type_; }
  int64_t size() const { return static_cast<int64_t>(validity_.size()); }

  void Reserve(int64_t capacity);

  /// Pre-sizes the string dictionary (entries and hash buckets). No-op for
  /// numeric columns.
  void ReserveDict(int64_t capacity);

  /// Appends a value; Status::TypeError when the value's type mismatches.
  Status AppendValue(const Value& value);
  void AppendNull();

  /// Typed fast-path appenders (no per-call type dispatch). Calling the
  /// wrong one for this column's type is a programming error (CHECKed).
  void AppendInt64(int64_t v);
  void AppendDouble(double v);
  void AppendString(std::string v);

  bool IsNull(int64_t row) const { return !validity_[static_cast<size_t>(row)]; }

  /// Boxed access; returns Value::Null() for null slots.
  Value GetValue(int64_t row) const;

  /// Typed access; undefined for nulls or mismatched type (GetString returns
  /// the empty string for null rows, matching the pre-dictionary storage).
  int64_t GetInt64(int64_t row) const { return int64_data_[static_cast<size_t>(row)]; }
  double GetDouble(int64_t row) const { return double_data_[static_cast<size_t>(row)]; }
  const std::string& GetString(int64_t row) const {
    const int32_t code = codes_[static_cast<size_t>(row)];
    return code < 0 ? EmptyString() : dict_[static_cast<size_t>(code)];
  }

  /// Dictionary code of `row` (string columns only); kNullCode for nulls.
  /// Two rows carry the same code iff they hold the same string, which is
  /// what lets equality-heavy kernels run on integers.
  int32_t GetCode(int64_t row) const { return codes_[static_cast<size_t>(row)]; }

  /// Number of NULL slots, maintained on every append. Kernels branch to a
  /// no-null fast path (skip the validity tests entirely) when it is 0.
  int64_t null_count() const { return null_count_; }

  /// Raw array views for the block kernels (kernels.cc). Valid for
  /// [0, size()); the int64/double/codes arrays are only meaningful for the
  /// matching column type. NULL slots hold 0 / 0.0 / kNullCode respectively.
  const uint8_t* validity_data() const { return validity_.data(); }
  const int64_t* int64_data() const { return int64_data_.data(); }
  const double* double_data() const { return double_data_.data(); }
  const int32_t* codes_data() const { return codes_.data(); }

  /// The arrays above as one ColumnChunk over rows [0, size()). Valid until
  /// the next append.
  ColumnChunk chunk() const;

  /// Number of interned dictionary entries (string columns only).
  int64_t dict_size() const { return static_cast<int64_t>(dict_.size()); }

  /// The string interned under `code`; code must be in [0, dict_size()).
  const std::string& DictString(int32_t code) const {
    return dict_[static_cast<size_t>(code)];
  }

  /// Code of `s`, or kNullCode when `s` was never appended. A miss proves no
  /// row of this column equals `s` — equality selections short-circuit on it.
  int32_t FindCode(const std::string& s) const;

  /// Sorted-code remap: ranks[code_a] < ranks[code_b] iff
  /// DictString(code_a) < DictString(code_b). Codes are first-appearance
  /// ordered, so sort kernels build this O(d log d) remap once per sort and
  /// then compare pure integers. Computed on demand (stateless, and the
  /// mining kernels sort freshly materialized tables that would never hit a
  /// cache anyway).
  std::vector<int32_t> SortedCodeRanks() const;

  /// Numeric view of row (int64 widened to double). NULL rows read as 0.0 —
  /// callers for which 0 is meaningful must pre-filter with IsNull. Calling
  /// this on a string column is a programming error (CHECKed); callers that
  /// feed mixed predictor columns into constant-model fits must substitute
  /// their own placeholder for non-numeric columns.
  double GetNumeric(int64_t row) const;

  /// Appends chunk-local rows rows[0..n) of `src`, a chunk of a column of
  /// this type: `src_col`'s own arrays, or a heap-file page whose codes
  /// `src_col`'s dictionary interprets. For string columns the src->dst code
  /// translation is memoized per distinct code, so materializing a large
  /// selection or sort permutation interns each distinct string once instead
  /// of hashing it per row.
  void AppendManyFrom(const ColumnChunk& src, const Column& src_col, const int64_t* rows,
                      int64_t n);

  /// Three-way order of rows a and b of this column under Value::Compare,
  /// read without boxing: NULL first, int64 exactly, doubles by
  /// CompareDoubles, strings lexicographically. SortTable's cell comparator.
  int CompareRows(int64_t a, int64_t b) const;

  /// Minimum / maximum as Values; Null when the column is all-null/empty.
  /// String columns scan the dictionary (O(d)) instead of the rows.
  Value Min() const;
  Value Max() const;

  /// Installs a heap-file dictionary into an empty string column (paged
  /// tables keep dictionaries resident while rows live on disk). Entries
  /// must be distinct and in file code order, so GetCode/FindCode/DictString
  /// agree with the codes stored in the pages. TypeError on numeric columns;
  /// InvalidArgument on non-empty columns or duplicate entries.
  Status LoadDictionary(std::vector<std::string> entries);

  /// Installs file-global statistics for a column whose rows are not
  /// resident: null_count()/Min()/Max() answer from these instead of
  /// scanning (there are no rows to scan). The stats come from the heap-file
  /// trailer, which the writer computed over the exact row stream.
  void SetPagedStats(int64_t null_count, Value min, Value max);

  /// Drops all row storage (data, validity, null count) but keeps the
  /// dictionary and its index. The heap-file writer reuses one Column as a
  /// per-page accumulator: codes stay stable across pages because the
  /// dictionary persists while rows are flushed.
  void ClearRowsKeepDict();

 private:
  static const std::string& EmptyString();

  /// Interns `v`, returning its code (existing or freshly assigned).
  int32_t InternString(std::string v);

  DataType type_;
  std::vector<int64_t> int64_data_;
  std::vector<double> double_data_;
  std::vector<uint8_t> validity_;  // 1 = valid; vector<uint8_t> beats vector<bool> here
  int64_t null_count_ = 0;         // count of 0-entries in validity_
  // Dictionary encoding (string columns only): per-row codes plus the
  // interned dictionary in first-appearance order and its lookup index.
  std::vector<int32_t> codes_;
  std::vector<std::string> dict_;
  std::unordered_map<std::string, int32_t> dict_index_;
  // File-global stats for paged (non-resident) columns; see SetPagedStats.
  bool has_paged_stats_ = false;
  Value paged_min_ = Value::Null();
  Value paged_max_ = Value::Null();
};

}  // namespace cape

#endif  // CAPE_RELATIONAL_COLUMN_H_
