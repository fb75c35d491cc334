#ifndef CAPE_STORAGE_HEAP_FILE_H_
#define CAPE_STORAGE_HEAP_FILE_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "relational/column.h"
#include "relational/page_source.h"
#include "relational/schema.h"
#include "relational/table.h"

namespace cape {

/// On-disk columnar heap file (DESIGN.md §15).
///
/// Layout:
///   [preamble: 4096 bytes]  magic, version, geometry, digest, checksum
///   [page 0] [page 1] ... [page N-1]   each exactly page_bytes long
///   [trailer]               schema, per-column stats, string dictionaries
///
/// Every page holds `rows_per_page` rows (the last may be short) in the
/// exact per-column layout the block kernels consume: a 64-byte header,
/// then per column an 8-byte null count, a validity byte per row slot, and
/// the 8-aligned typed data array (int64/double payloads or int32
/// dictionary codes). A page read is therefore handed to the kernels
/// zero-copy as ColumnChunks. Dictionary codes are file-global: the writer
/// interns strings across the whole file in first-appearance order —
/// the same order an in-memory Table's AppendRow produces — so codes in
/// pages agree with the dictionary stored in the trailer (and with the
/// source table's own codes, which is what makes the byte-identity
/// fixtures possible).
///
/// All checksums and the content digest are FNV-1a (common/hash.h). Page
/// checksums cover the page payload; the digest folds the schema digest,
/// row count, every page checksum, and the trailer bytes, and is the
/// content identity Table::Fingerprint uses for non-resident tables.

/// Default page geometry: 8192 rows = 4 kernel blocks per page. At the
/// crime-table shape (~4 string + 2 numeric columns) this is ~350 KB per
/// page — large enough that sequential read dominates seek, small enough
/// that a 10%-of-table budget still holds dozens of pages.
inline constexpr int64_t kDefaultRowsPerPage = 8192;

/// Aggregate stats for one column across the whole file, stored in the
/// trailer so a non-resident Table can answer null_count/Min/Max without
/// touching a single page (Column::SetPagedStats).
struct HeapFileColumnStats {
  int64_t null_total = 0;
  Value min = Value::Null();  ///< Null iff every row is NULL.
  Value max = Value::Null();
};

/// Streaming writer: rows in, pages out, constant memory. Buffers at most
/// one page of rows in staging Columns, flushing each time `rows_per_page`
/// accumulate; string columns keep their dictionaries across flushes
/// (Column::ClearRowsKeepDict) so codes stay file-global.
class HeapFileWriter {
 public:
  /// Creates/truncates `path`. rows_per_page must be a positive multiple of
  /// 2048 (the kernel block size) so block loops never straddle pages.
  static Result<std::unique_ptr<HeapFileWriter>> Create(
      const std::string& path, std::shared_ptr<Schema> schema,
      int64_t rows_per_page = kDefaultRowsPerPage);

  ~HeapFileWriter();
  HeapFileWriter(const HeapFileWriter&) = delete;
  HeapFileWriter& operator=(const HeapFileWriter&) = delete;

  /// Appends one row (same validation semantics as Table::AppendRow).
  Status Append(const Row& row);

  /// Flushes the final partial page, writes the trailer and preamble, and
  /// closes the file. Must be called exactly once; Append is invalid after.
  Status Finish();

  int64_t rows_written() const { return rows_written_; }

 private:
  HeapFileWriter(std::string path, std::shared_ptr<Schema> schema,
                 int64_t rows_per_page);

  Status FlushPage();

  std::string path_;
  std::shared_ptr<Schema> schema_;
  int64_t rows_per_page_;
  std::FILE* file_ = nullptr;
  bool finished_ = false;

  std::vector<Column> staging_;  ///< One page of rows; dicts persist across pages.
  int64_t rows_written_ = 0;
  int64_t pages_written_ = 0;
  std::vector<HeapFileColumnStats> stats_;
  std::vector<uint64_t> page_checksums_;
  std::vector<uint8_t> page_buf_;
};

/// Read-side handle: validates the preamble and trailer at Open, then
/// serves whole-page reads with checksum verification. Thread-safe after
/// Open (pread on an immutable fd; no shared mutable state).
class HeapFile {
 public:
  static Result<std::shared_ptr<HeapFile>> Open(const std::string& path);

  ~HeapFile();
  HeapFile(const HeapFile&) = delete;
  HeapFile& operator=(const HeapFile&) = delete;

  const std::shared_ptr<Schema>& schema() const { return schema_; }
  int64_t num_rows() const { return num_rows_; }
  int64_t rows_per_page() const { return rows_per_page_; }
  int64_t num_pages() const { return num_pages_; }
  int64_t page_bytes() const { return page_bytes_; }
  uint64_t content_digest() const { return content_digest_; }

  /// File-global dictionary for column `c` (empty for numeric columns),
  /// in code order.
  const std::vector<std::string>& dictionary(int c) const {
    return dicts_[static_cast<size_t>(c)];
  }
  const HeapFileColumnStats& column_stats(int c) const {
    return stats_[static_cast<size_t>(c)];
  }

  /// Reads page `page` into `buf` (page_bytes() long), verifying the page
  /// checksum and header. IOError on short reads or corruption; failpoint
  /// site "storage.page_read" injects errors here for the degradation
  /// tests.
  Status ReadPage(int64_t page, uint8_t* buf) const;

  /// Interprets a page buffer previously filled by ReadPage: row range out,
  /// and one ColumnChunk per column pointing into `buf`.
  Status ParsePage(const uint8_t* buf, int64_t* row_begin, int* row_count,
                   std::vector<ColumnChunk>* chunks) const;

 private:
  HeapFile() = default;

  std::string path_;
  int fd_ = -1;
  std::shared_ptr<Schema> schema_;
  int64_t num_rows_ = 0;
  int64_t rows_per_page_ = 0;
  int64_t num_pages_ = 0;
  int64_t page_bytes_ = 0;
  uint64_t content_digest_ = 0;
  std::vector<std::vector<std::string>> dicts_;
  std::vector<HeapFileColumnStats> stats_;
  std::vector<int64_t> col_offsets_;   ///< Payload offset of each column's slice.
  std::vector<int64_t> data_offsets_;  ///< Offset of each column's typed data.
};

/// Convenience: streams every row of an in-memory table into a heap file.
/// The file's dictionaries come out identical to the table's (same
/// first-appearance interning order).
Status WriteTableToHeapFile(const Table& table, const std::string& path,
                            int64_t rows_per_page = kDefaultRowsPerPage);

}  // namespace cape

#endif  // CAPE_STORAGE_HEAP_FILE_H_
