#ifndef CAPE_RELATIONAL_PAGE_SOURCE_H_
#define CAPE_RELATIONAL_PAGE_SOURCE_H_

#include <cstdint>
#include <utility>

#include "common/result.h"
#include "relational/column.h"

namespace cape {

/// Counters a PageSource maintains about its cache behavior. Snapshots are
/// plain values; Engine::run_stats() overlays them into RunStats and the
/// server STATS verb forwards them to operators.
struct PageSourceStats {
  int64_t hits = 0;        ///< Pin() satisfied without IO.
  int64_t misses = 0;      ///< Pin() that had to read the page ("page fault").
  int64_t evictions = 0;   ///< Frames recycled to stay inside the byte budget.
  int64_t bytes_read = 0;  ///< Total page payload bytes read from the file.
  int64_t bytes_pinned = 0;       ///< Bytes held by currently pinned pages.
  int64_t peak_bytes_pinned = 0;  ///< High-water mark of bytes_pinned.
};

/// A run of a table's rows as the scan kernels see it: the global row range
/// it covers plus one ColumnChunk per table column (same layout as the
/// Column arrays, indexed with view-local row offsets). A pinned page is
/// valid only while the owning PageRef is alive; a resident table's rows
/// form one view over its column arrays.
struct PageView {
  int64_t row_begin = 0;
  int64_t row_count = 0;
  const ColumnChunk* cols = nullptr;
};

class PageSource;

/// RAII pin on one page. While a PageRef is alive the buffer manager must
/// keep the page resident, so every pointer in view() stays valid; the
/// destructor unpins. Move-only, like a lock guard.
class PageRef {
 public:
  PageRef() = default;
  PageRef(PageSource* source, uint64_t cookie, PageView view)
      : source_(source), cookie_(cookie), view_(view) {}

  PageRef(PageRef&& other) noexcept
      : source_(other.source_), cookie_(other.cookie_), view_(other.view_) {
    other.source_ = nullptr;
  }
  PageRef& operator=(PageRef&& other) noexcept {
    if (this != &other) {
      Release();
      source_ = other.source_;
      cookie_ = other.cookie_;
      view_ = other.view_;
      other.source_ = nullptr;
    }
    return *this;
  }
  PageRef(const PageRef&) = delete;
  PageRef& operator=(const PageRef&) = delete;

  ~PageRef() { Release(); }

  bool valid() const { return source_ != nullptr; }
  const PageView& view() const { return view_; }

  /// Explicit early unpin (destructor equivalent; idempotent).
  void Release();

 private:
  PageSource* source_ = nullptr;
  uint64_t cookie_ = 0;
  PageView view_;
};

/// Read-only paged access to a table's rows. Implemented by the storage
/// layer (storage/paged_table.h: heap file + buffer manager); declared here
/// so Table and the kernels can scan page-at-a-time without the relational
/// library depending on storage. Implementations must be thread-safe: the
/// parallel miners pin pages from several worker threads at once.
class PageSource {
 public:
  virtual ~PageSource() = default;

  virtual int64_t num_rows() const = 0;
  /// Rows per full page; a multiple of the kernel block size so block loops
  /// never straddle a page boundary. The last page may be short.
  virtual int rows_per_page() const = 0;
  virtual int64_t num_pages() const = 0;

  /// Content digest of the backing data, covering schema, row payloads,
  /// validity, and dictionaries. Feeds Table::Fingerprint for non-resident
  /// tables, where hashing the (absent) in-memory columns is meaningless.
  virtual uint64_t content_digest() const = 0;

  /// Pins `page` (reading it if not cached) and returns a guard whose view
  /// stays valid until the guard is released. Fails cleanly on IO or
  /// checksum errors.
  virtual Result<PageRef> Pin(int64_t page) = 0;

  /// Hint that `page` will be pinned soon (sequential scans call this for
  /// page p+1 while processing p). Best-effort; never fails.
  virtual void Prefetch(int64_t page) = 0;

  virtual PageSourceStats stats() const = 0;

 protected:
  friend class PageRef;
  /// Drops the pin identified by `cookie` (issued by Pin).
  virtual void Unpin(uint64_t cookie) = 0;
};

}  // namespace cape

#endif  // CAPE_RELATIONAL_PAGE_SOURCE_H_
