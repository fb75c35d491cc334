#include "relational/table.h"

#include <algorithm>
#include <unordered_set>

#include "common/logging.h"
#include "common/macros.h"

namespace cape {

Table::Table(std::shared_ptr<Schema> schema)
    : schema_(std::move(schema)),
      fingerprint_cell_(std::make_unique<FingerprintCell>()) {
  columns_.reserve(static_cast<size_t>(schema_->num_fields()));
  for (int i = 0; i < schema_->num_fields(); ++i) {
    columns_.emplace_back(schema_->field(i).type);
  }
}

Result<std::shared_ptr<Table>> Table::FromRows(std::shared_ptr<Schema> schema,
                                               const std::vector<Row>& rows) {
  auto table = std::make_shared<Table>(std::move(schema));
  table->Reserve(static_cast<int64_t>(rows.size()));
  // analyzer:allow-next-line(cancellation) ingestion primitive; callers batch
  for (const Row& row : rows) {
    CAPE_RETURN_IF_ERROR(table->AppendRow(row));
  }
  return table;
}

Result<const Column*> Table::ColumnByName(const std::string& name) const {
  CAPE_ASSIGN_OR_RETURN(int idx, schema_->GetFieldIndexChecked(name));
  return &columns_[static_cast<size_t>(idx)];
}

Status Table::ValidateRow(const Row& row) const {
  if (static_cast<int>(row.size()) != num_columns()) {
    return Status::InvalidArgument("row arity " + std::to_string(row.size()) +
                                   " does not match schema arity " +
                                   std::to_string(num_columns()));
  }
  for (int i = 0; i < num_columns(); ++i) {
    const Value& v = row[static_cast<size_t>(i)];
    if (v.is_null()) continue;
    const DataType col_type = columns_[static_cast<size_t>(i)].type();
    const bool ok = (v.type() == col_type) ||
                    (col_type == DataType::kDouble && v.is_numeric());
    if (!ok) {
      return Status::TypeError("cell " + std::to_string(i) + " ('" + v.ToString() +
                               "') has type " + DataTypeToString(v.type()) +
                               ", column expects " + DataTypeToString(col_type));
    }
  }
  return Status::OK();
}

Status Table::AppendRow(const Row& row) {
  if (page_source_ != nullptr) {
    // A page source's content digest covers a fixed row set; growing the
    // resident columns underneath it would desynchronize the paged and
    // in-memory views of the "same" table.
    return Status::InvalidArgument("cannot append to a paged table");
  }
  // Validate all cells before mutating any column so a failed append leaves
  // the table unchanged.
  CAPE_RETURN_IF_ERROR(ValidateRow(row));
  for (int i = 0; i < num_columns(); ++i) {
    Status st = columns_[static_cast<size_t>(i)].AppendValue(row[static_cast<size_t>(i)]);
    // The loop above already validated every cell, so a failure here is a
    // CAPE bug; returning it would leave the row half-appended across
    // columns, which is worse than aborting.
    CAPE_DCHECK(st.ok());  // lint:allow(check-in-status-fn) pre-validated; see above
  }
  ++num_rows_;
  return Status::OK();
}

void Table::Reserve(int64_t capacity) {
  for (Column& col : columns_) col.Reserve(capacity);
}

Status Table::AppendRowsFrom(const Table& src, const std::vector<int64_t>& rows) {
  if (!src.rows_resident()) {
    return Status::InvalidArgument(
        "AppendRowsFrom from a non-resident paged table (use the scan operators)");
  }
  // analyzer:allow-next-line(cancellation) bounds pre-check; ingestion callers batch
  for (int64_t row : rows) {
    if (row < 0 || row >= src.num_rows()) {
      return Status::OutOfRange("row index " + std::to_string(row) + " out of range");
    }
  }
  const std::vector<ColumnChunk> chunks = src.ResidentChunks();
  const PageView view{0, src.num_rows(), chunks.data()};
  return AppendRowsFrom(src, view, rows.data(), static_cast<int64_t>(rows.size()));
}

Status Table::AppendRowsFrom(const Table& src, const PageView& view, const int64_t* rows,
                             int64_t n) {
  if (page_source_ != nullptr) {
    return Status::InvalidArgument("cannot append to a paged table");
  }
  if (src.schema() != schema_ && !(*src.schema() == *schema_)) {
    return Status::InvalidArgument("AppendRowsFrom requires matching schemas: " +
                                   src.schema()->ToString() + " vs " + schema_->ToString());
  }
  for (int c = 0; c < num_columns(); ++c) {
    columns_[static_cast<size_t>(c)].AppendManyFrom(view.cols[c], src.column(c), rows, n);
  }
  num_rows_ += n;
  return Status::OK();
}

std::vector<ColumnChunk> Table::ResidentChunks() const {
  std::vector<ColumnChunk> chunks;
  chunks.reserve(columns_.size());
  for (const Column& col : columns_) chunks.push_back(col.chunk());
  return chunks;
}

Row Table::GetRow(int64_t row) const {
  Row out;
  out.reserve(static_cast<size_t>(num_columns()));
  for (int i = 0; i < num_columns(); ++i) out.push_back(GetValue(row, i));
  return out;
}

Row Table::GetRowProjection(int64_t row, const std::vector<int>& cols) const {
  Row out;
  out.reserve(cols.size());
  for (int c : cols) out.push_back(GetValue(row, c));
  return out;
}

std::string Table::ToString(int64_t max_rows) const {
  const int64_t shown = std::min(max_rows, num_rows());
  std::vector<size_t> widths;
  std::vector<std::vector<std::string>> cells;
  std::vector<std::string> header;
  for (int c = 0; c < num_columns(); ++c) {
    header.push_back(schema_->field(c).name);
    widths.push_back(header.back().size());
  }
  for (int64_t r = 0; r < shown; ++r) {
    std::vector<std::string> row_cells;
    for (int c = 0; c < num_columns(); ++c) {
      row_cells.push_back(GetValue(r, c).ToString());
      widths[static_cast<size_t>(c)] =
          std::max(widths[static_cast<size_t>(c)], row_cells.back().size());
    }
    cells.push_back(std::move(row_cells));
  }
  auto render_row = [&](const std::vector<std::string>& row_cells) {
    std::string line = "|";
    for (size_t c = 0; c < row_cells.size(); ++c) {
      line += " " + row_cells[c];
      line.append(widths[c] - row_cells[c].size() + 1, ' ');
      line += "|";
    }
    return line + "\n";
  };
  std::string out = render_row(header);
  std::string sep = "|";
  for (size_t c = 0; c < widths.size(); ++c) {
    sep.append(widths[c] + 2, '-');
    sep += "|";
  }
  out += sep + "\n";
  for (const auto& row_cells : cells) out += render_row(row_cells);
  if (shown < num_rows()) {
    out += "... (" + std::to_string(num_rows() - shown) + " more rows)\n";
  }
  return out;
}

Status Table::Validate() const {
  std::unordered_set<std::string> names;
  for (int i = 0; i < schema_->num_fields(); ++i) {
    if (!names.insert(schema_->field(i).name).second) {
      return Status::InvalidArgument("duplicate field name '" + schema_->field(i).name + "'");
    }
  }
  for (int i = 0; i < num_columns(); ++i) {
    // Non-resident paged tables keep columns row-free: num_rows_ counts
    // heap-file rows, the columns hold only dictionaries and paged stats.
    const int64_t want = rows_resident() ? num_rows_ : 0;
    if (columns_[static_cast<size_t>(i)].size() != want) {
      return Status::Internal("column " + std::to_string(i) + " has " +
                              std::to_string(columns_[static_cast<size_t>(i)].size()) +
                              " rows, expected " + std::to_string(want));
    }
    if (columns_[static_cast<size_t>(i)].type() != schema_->field(i).type) {
      return Status::Internal("column " + std::to_string(i) + " type mismatch with schema");
    }
  }
  return Status::OK();
}

Status Table::AttachPageSource(std::shared_ptr<PageSource> source) {
  if (source == nullptr) {
    return Status::InvalidArgument("AttachPageSource requires a source");
  }
  if (page_source_ != nullptr) {
    return Status::InvalidArgument("table already has a page source");
  }
  if (num_rows_ != 0) {
    return Status::InvalidArgument("a page source requires an empty table");
  }
  num_rows_ = source->num_rows();
  page_source_ = std::move(source);
  return Status::OK();
}

uint64_t Table::Fingerprint() const {
  Fnv64 h;
  h.UpdateU64(schema_->Digest());
  h.UpdateI64(num_rows_);
  if (!rows_resident()) {
    // Rows live in the heap file; the writer's digest covers them (plus
    // validity and dictionaries), so it is the content under this schema.
    h.UpdateU64(page_source_->content_digest());
    return h.digest();
  }
  FingerprintCell& cell = *fingerprint_cell_;
  MutexLock lock(cell.mu);
  if (!cell.valid || cell.rows_hashed > num_rows_) {
    cell.col_states.assign(columns_.size(), Fnv64());
    cell.rows_hashed = 0;
    cell.valid = true;
  }
  if (cell.rows_hashed < num_rows_) {
    for (size_t c = 0; c < columns_.size(); ++c) {
      columns_[c].HashRows(&cell.col_states[c], cell.rows_hashed, num_rows_);
    }
    cell.rows_hashed = num_rows_;
  }
  for (const Fnv64& state : cell.col_states) h.UpdateU64(state.digest());
  return h.digest();
}

void Table::InvalidateFingerprint() {
  FingerprintCell& cell = *fingerprint_cell_;
  MutexLock lock(cell.mu);
  cell.valid = false;
}

TablePtr MakeEmptyTable(std::vector<Field> fields) {
  return std::make_shared<Table>(Schema::Make(std::move(fields)));
}

}  // namespace cape
