#ifndef CAPE_STORAGE_PAGED_TABLE_H_
#define CAPE_STORAGE_PAGED_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/macros.h"
#include "common/result.h"
#include "relational/page_source.h"
#include "relational/table.h"
#include "storage/buffer_manager.h"
#include "storage/heap_file.h"

namespace cape {

/// PageSource over a heap file + buffer manager: the storage half of an
/// out-of-core Table. Pin/Unpin delegate to the buffer manager; cookies are
/// frame indices.
class PagedTable : public PageSource {
 public:
  PagedTable(std::shared_ptr<HeapFile> file, int64_t budget_bytes)
      : file_(std::move(file)), buffers_(file_, budget_bytes) {}

  int64_t num_rows() const override { return file_->num_rows(); }
  int rows_per_page() const override { return static_cast<int>(file_->rows_per_page()); }
  int64_t num_pages() const override { return file_->num_pages(); }
  uint64_t content_digest() const override { return file_->content_digest(); }

  Result<PageRef> Pin(int64_t page) override {
    PageView view;
    CAPE_ASSIGN_OR_RETURN(uint64_t cookie, buffers_.Pin(page, &view));
    return PageRef(this, cookie, view);
  }

  void Prefetch(int64_t page) override { buffers_.Prefetch(page); }

  PageSourceStats stats() const override { return buffers_.stats(); }

  const std::shared_ptr<HeapFile>& heap_file() const { return file_; }
  BufferManager& buffer_manager() { return buffers_; }

 protected:
  void Unpin(uint64_t cookie) override { buffers_.Unpin(cookie); }

 private:
  std::shared_ptr<HeapFile> file_;
  BufferManager buffers_;
};

/// Opens a heap file as an out-of-core table: rows stay on disk and every
/// scan goes page by page through the buffer manager. The table's columns
/// carry only the file dictionaries (so predicate codes and kernel key plans
/// resolve) and the file-global stats (so null_count/Min/Max answer in
/// O(1)). `budget_bytes` caps the page cache — an out-of-core scan works
/// with any budget, down to a single page.
Result<TablePtr> OpenPagedTable(const std::string& path, int64_t budget_bytes);

}  // namespace cape

#endif  // CAPE_STORAGE_PAGED_TABLE_H_
