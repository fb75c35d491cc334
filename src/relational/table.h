#ifndef CAPE_RELATIONAL_TABLE_H_
#define CAPE_RELATIONAL_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "relational/column.h"
#include "relational/page_source.h"
#include "relational/schema.h"

namespace cape {

/// A materialized row: one Value per schema field.
using Row = std::vector<Value>;

/// An immutable-by-convention columnar relation.
///
/// Tables are built by appending rows (or via operators in operators.h)
/// and then treated as read-only; they are shared via shared_ptr. A table's
/// rows are resident in its columns, or — for an out-of-core table opened
/// with OpenPagedTable — only in a heap file behind page_source().
class Table {
 public:
  explicit Table(std::shared_ptr<Schema> schema);

  /// Builds a table from rows, validating arity and types.
  static Result<std::shared_ptr<Table>> FromRows(std::shared_ptr<Schema> schema,
                                                 const std::vector<Row>& rows);

  const std::shared_ptr<Schema>& schema() const { return schema_; }
  int num_columns() const { return static_cast<int>(columns_.size()); }
  int64_t num_rows() const { return num_rows_; }

  const Column& column(int i) const { return columns_[static_cast<size_t>(i)]; }

  /// Mutable column access.
  Column& mutable_column(int i) { return columns_[static_cast<size_t>(i)]; }

  /// Column lookup by name; NotFound for unknown names.
  Result<const Column*> ColumnByName(const std::string& name) const;

  /// Appends one row; the row must have one Value per column of compatible
  /// type (NULLs allowed anywhere).
  Status AppendRow(const Row& row);

  /// Checks that `row` could be appended (arity and per-cell types) without
  /// mutating anything. Batch appenders validate every row up front so a
  /// bad row rejects the whole batch instead of leaving a prefix appended.
  Status ValidateRow(const Row& row) const;

  /// Pre-sizes all columns.
  void Reserve(int64_t capacity);

  /// Bulk-appends the given rows of `src`, which must be resident and share
  /// this table's schema (by pointer or by equality). Column-at-a-time, no
  /// Value boxing — the fast path for sorting and limits.
  Status AppendRowsFrom(const Table& src, const std::vector<int64_t>& rows);

  /// AppendRowsFrom for view-local rows rows[0..n) of `view`, a view of
  /// `src`'s rows: its resident arrays or one of its pinned pages. The
  /// output is the same whichever residency `src` has — strings intern in
  /// first-appearance order, NULL slots store 0 / 0.0 / -1.
  Status AppendRowsFrom(const Table& src, const PageView& view, const int64_t* rows,
                        int64_t n);

  Value GetValue(int64_t row, int col) const { return column(col).GetValue(row); }

  /// One ColumnChunk per column over all resident rows (Column::chunk()):
  /// the single view a scan takes of a resident table. Valid until the
  /// table next grows.
  std::vector<ColumnChunk> ResidentChunks() const;

  /// Materializes row `row` as a vector of Values.
  Row GetRow(int64_t row) const;

  /// Projection of row `row` onto the given column indices.
  Row GetRowProjection(int64_t row, const std::vector<int>& cols) const;

  /// Renders up to `max_rows` rows as an aligned ASCII table for debugging
  /// and example output.
  std::string ToString(int64_t max_rows = 20) const;

  /// Verifies internal consistency (column sizes match, no duplicate field
  /// names). Intended for tests and after bulk construction.
  Status Validate() const;

  /// Attaches the heap-file row source of an out-of-core table
  /// (storage/paged_table.h). The table must be empty: its row count comes
  /// from the source, its columns stay row-free (dictionaries and paged
  /// stats only), and every scan goes page by page.
  Status AttachPageSource(std::shared_ptr<PageSource> source);

  /// The attached page source, or null. Shared so engine stats can snapshot
  /// cache counters while scans hold pins.
  const std::shared_ptr<PageSource>& page_source() const { return page_source_; }

  /// True when this table's rows are materialized in its columns; false for
  /// an out-of-core table, whose rows exist only behind page_source() and
  /// whose scans go page by page.
  bool rows_resident() const { return page_source_ == nullptr; }

 private:
  std::shared_ptr<Schema> schema_;
  std::vector<Column> columns_;
  int64_t num_rows_ = 0;
  std::shared_ptr<PageSource> page_source_;
};

using TablePtr = std::shared_ptr<Table>;

/// Convenience: builds a schema and empty table in one call.
TablePtr MakeEmptyTable(std::vector<Field> fields);

}  // namespace cape

#endif  // CAPE_RELATIONAL_TABLE_H_
