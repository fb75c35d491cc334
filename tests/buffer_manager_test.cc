// Out-of-core storage tests (DESIGN.md §15): heap-file round trips, buffer
// manager pin/unpin and eviction invariants under byte budgets, corruption
// and failpoint degradation, and paged-vs-in-memory operator and miner
// identity — including the Engine-level page counters the server STATS verb
// reports.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "core/engine.h"
#include "datagen/crime.h"
#include "pattern/mining.h"
#include "pattern/pattern_io.h"
#include "relational/csv.h"
#include "relational/kernels.h"
#include "relational/operators.h"
#include "relational/page_source.h"
#include "relational/table.h"
#include "storage/buffer_manager.h"
#include "storage/heap_file.h"
#include "storage/paged_table.h"
#include "test_util.h"

namespace cape {
namespace {

/// Removes a temp heap file at scope exit so repeated runs stay clean.
class TempFile {
 public:
  explicit TempFile(const std::string& name) : path_(TestTempPath(name)) {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Deterministic mixed-type table spanning several 2048-row pages: a skewed
/// string column, a nullable int64, a nullable double, and a second string
/// column whose dictionary grows late in the file (so file-global interning
/// actually matters past page 0).
TablePtr MakeMixedTable(int64_t num_rows) {
  auto table = MakeEmptyTable({Field{"cat", DataType::kString, true},
                               Field{"num", DataType::kInt64, true},
                               Field{"val", DataType::kDouble, true},
                               Field{"tag", DataType::kString, true}});
  const char* const cats[] = {"alpha", "beta", "g%mma", "d\te", "eps"};
  for (int64_t r = 0; r < num_rows; ++r) {
    Row row;
    row.push_back(r % 13 == 0 ? Value::Null() : Value::String(cats[(r * r) % 5]));
    row.push_back(r % 7 == 0 ? Value::Null() : Value::Int64(r % 50 - 10));
    row.push_back(r % 11 == 0 ? Value::Null() : Value::Double(0.5 * static_cast<double>(r % 40)));
    row.push_back(Value::String("tag" + std::to_string(r / 1500)));
    EXPECT_TRUE(table->AppendRow(row).ok());
  }
  EXPECT_TRUE(table->Validate().ok());
  return table;
}

constexpr int64_t kRowsPerPage = 2048;

TEST(HeapFileTest, RoundTripPreservesGeometrySchemaStatsAndDictionaries) {
  TablePtr table = MakeMixedTable(5000);
  TempFile file("cape_bm_roundtrip.cape");
  ASSERT_TRUE(WriteTableToHeapFile(*table, file.path(), kRowsPerPage).ok());

  auto opened = HeapFile::Open(file.path());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const HeapFile& hf = **opened;
  EXPECT_EQ(hf.num_rows(), table->num_rows());
  EXPECT_EQ(hf.rows_per_page(), kRowsPerPage);
  EXPECT_EQ(hf.num_pages(), 3);  // ceil(5000 / 2048)
  EXPECT_TRUE(*hf.schema() == *table->schema());
  EXPECT_NE(hf.content_digest(), 0u);

  for (int c = 0; c < table->schema()->num_fields(); ++c) {
    const Column& col = table->column(c);
    const HeapFileColumnStats& cs = hf.column_stats(c);
    EXPECT_EQ(cs.null_total, col.null_count()) << "column " << c;
    if (col.null_count() < table->num_rows()) {
      EXPECT_EQ(cs.min, col.Min()) << "column " << c;
      EXPECT_EQ(cs.max, col.Max()) << "column " << c;
    }
    if (table->schema()->field(c).type == DataType::kString) {
      // File-global codes == the table's own interning order.
      ASSERT_EQ(static_cast<int64_t>(hf.dictionary(c).size()), col.dict_size());
      for (int64_t code = 0; code < col.dict_size(); ++code) {
        EXPECT_EQ(hf.dictionary(c)[static_cast<size_t>(code)],
                  col.DictString(static_cast<int32_t>(code)));
      }
    } else {
      EXPECT_TRUE(hf.dictionary(c).empty());
    }
  }

  // Page 0's parsed chunks reproduce the source values slot for slot.
  std::vector<uint8_t> buf(static_cast<size_t>(hf.page_bytes()));
  ASSERT_TRUE(hf.ReadPage(0, buf.data()).ok());
  int64_t row_begin = -1;
  int row_count = 0;
  std::vector<ColumnChunk> chunks;
  ASSERT_TRUE(hf.ParsePage(buf.data(), &row_begin, &row_count, &chunks).ok());
  EXPECT_EQ(row_begin, 0);
  EXPECT_EQ(row_count, kRowsPerPage);
  ASSERT_EQ(chunks.size(), 4u);
  for (int64_t r = 0; r < row_count; ++r) {
    const Row want = table->GetRow(r);
    EXPECT_EQ(chunks[0].validity[r] != 0, !want[0].is_null());
    if (!want[0].is_null()) {
      EXPECT_EQ(hf.dictionary(0)[static_cast<size_t>(chunks[0].codes[r])],
                want[0].string_value());
    }
    if (!want[1].is_null()) {
      EXPECT_EQ(chunks[1].i64[r], want[1].int64_value());
    }
    if (!want[2].is_null()) {
      EXPECT_EQ(chunks[2].f64[r], want[2].double_value());
    }
  }
}

TEST(HeapFileTest, WriterRejectsBadGeometryAndMalformedRows) {
  TablePtr table = MakeMixedTable(8);
  TempFile file("cape_bm_badwriter.cape");
  // rows_per_page must be a positive multiple of the kernel block size.
  EXPECT_FALSE(HeapFileWriter::Create(file.path(), table->schema(), 1000).ok());
  EXPECT_FALSE(HeapFileWriter::Create(file.path(), table->schema(), 0).ok());

  auto writer = HeapFileWriter::Create(file.path(), table->schema(), kRowsPerPage);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  EXPECT_FALSE((*writer)->Append(Row{Value::Int64(1)}).ok());  // wrong arity
  EXPECT_FALSE(
      (*writer)
          ->Append(Row{Value::Int64(1), Value::Int64(2), Value::Double(3.0), Value::String("x")})
          .ok());  // type mismatch on column 0
  ASSERT_TRUE((*writer)->Append(table->GetRow(0)).ok());
  EXPECT_EQ((*writer)->rows_written(), 1);
  ASSERT_TRUE((*writer)->Finish().ok());

  auto reopened = HeapFile::Open(file.path());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->num_rows(), 1);
}

TEST(HeapFileTest, ReadPageRejectsOutOfRangePages) {
  TablePtr table = MakeMixedTable(100);
  TempFile file("cape_bm_range.cape");
  ASSERT_TRUE(WriteTableToHeapFile(*table, file.path(), kRowsPerPage).ok());
  auto hf = HeapFile::Open(file.path());
  ASSERT_TRUE(hf.ok());
  std::vector<uint8_t> buf(static_cast<size_t>((*hf)->page_bytes()));
  EXPECT_FALSE((*hf)->ReadPage(-1, buf.data()).ok());
  EXPECT_FALSE((*hf)->ReadPage((*hf)->num_pages(), buf.data()).ok());
}

TEST(HeapFileTest, CorruptPagePayloadFailsWithCleanChecksumError) {
  TablePtr table = MakeMixedTable(3000);
  TempFile file("cape_bm_corrupt.cape");
  ASSERT_TRUE(WriteTableToHeapFile(*table, file.path(), kRowsPerPage).ok());

  // Flip one payload byte inside page 1 (preamble is 4096 bytes, the page
  // header 64; the page checksum covers everything after the header).
  auto hf = HeapFile::Open(file.path());
  ASSERT_TRUE(hf.ok());
  const int64_t page_bytes = (*hf)->page_bytes();
  {
    std::fstream f(file.path(), std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(4096 + page_bytes + 64 + 100);
    char b = 0;
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x5a);
    f.seekp(4096 + page_bytes + 64 + 100);
    f.write(&b, 1);
  }

  // Open still succeeds (preamble and trailer are intact); the damaged page
  // surfaces as a clean IOError naming the checksum, both from ReadPage and
  // from a whole-table scan through the paged path.
  auto damaged = HeapFile::Open(file.path());
  ASSERT_TRUE(damaged.ok()) << damaged.status().ToString();
  std::vector<uint8_t> buf(static_cast<size_t>(page_bytes));
  ASSERT_TRUE((*damaged)->ReadPage(0, buf.data()).ok());
  const Status bad = (*damaged)->ReadPage(1, buf.data());
  EXPECT_TRUE(bad.IsIOError()) << bad.ToString();
  EXPECT_NE(bad.message().find("checksum"), std::string::npos) << bad.ToString();

  auto paged = OpenPagedTable(file.path(), 1 << 20);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  const Status scan = CountFilterMatches(**paged, {}).status();
  EXPECT_TRUE(scan.IsIOError()) << scan.ToString();
}

TEST(BufferManagerTest, PinUnpinMaintainsCountersAndViews) {
  TablePtr table = MakeMixedTable(5000);
  TempFile file("cape_bm_pins.cape");
  ASSERT_TRUE(WriteTableToHeapFile(*table, file.path(), kRowsPerPage).ok());
  auto paged = OpenPagedTable(file.path(), 64 << 20);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  auto source = std::dynamic_pointer_cast<PagedTable>((*paged)->page_source());
  ASSERT_NE(source, nullptr);
  const int64_t page_bytes = source->heap_file()->page_bytes();

  EXPECT_FALSE((*paged)->rows_resident());
  EXPECT_EQ(source->num_pages(), 3);
  EXPECT_EQ(source->rows_per_page(), kRowsPerPage);

  {
    auto first = source->Pin(0);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    EXPECT_TRUE(first->valid());
    EXPECT_EQ(first->view().row_begin, 0);
    EXPECT_EQ(first->view().row_count, kRowsPerPage);
    ASSERT_NE(first->view().cols, nullptr);
    EXPECT_NE(first->view().cols[0].validity, nullptr);

    // Second pin on the same page is a hit and does not double-count the
    // pinned bytes (the frame was already pinned).
    auto second = source->Pin(0);
    ASSERT_TRUE(second.ok());
    PageSourceStats st = source->stats();
    EXPECT_EQ(st.misses, 1);
    EXPECT_EQ(st.hits, 1);
    EXPECT_EQ(st.bytes_pinned, page_bytes);
    EXPECT_EQ(st.bytes_read, page_bytes);
  }
  // Both guards released: nothing pinned, peak remembers the high-water mark.
  PageSourceStats st = source->stats();
  EXPECT_EQ(st.bytes_pinned, 0);
  EXPECT_EQ(st.peak_bytes_pinned, page_bytes);

  // Repin after release: still cached under this generous budget.
  auto again = source->Pin(0);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(source->stats().misses, 1);
  EXPECT_EQ(source->stats().hits, 2);

  // A short last page reports its true row count.
  auto last = source->Pin(2);
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(last->view().row_begin, 2 * kRowsPerPage);
  EXPECT_EQ(last->view().row_count, 5000 - 2 * kRowsPerPage);
  EXPECT_FALSE(source->Pin(3).ok());
  EXPECT_FALSE(source->Pin(-1).ok());
}

TEST(BufferManagerTest, SingleFrameBudgetScansWholeFileWithEvictions) {
  TablePtr table = MakeMixedTable(9000);  // 5 pages
  TempFile file("cape_bm_tiny_budget.cape");
  ASSERT_TRUE(WriteTableToHeapFile(*table, file.path(), kRowsPerPage).ok());

  // A budget below one page degrades to a single recycled frame; the scan
  // must still complete, faulting every page exactly once (the prefetch
  // hint is skipped while the only frame is pinned — no double reads).
  auto paged = OpenPagedTable(file.path(), /*budget_bytes=*/1);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  auto source = std::dynamic_pointer_cast<PagedTable>((*paged)->page_source());
  ASSERT_NE(source, nullptr);
  EXPECT_EQ(source->buffer_manager().max_frames(), 1);

  auto count = CountFilterMatches(**paged, {});
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(*count, 9000);

  const int64_t page_bytes = source->heap_file()->page_bytes();
  PageSourceStats st = source->stats();
  EXPECT_EQ(st.misses, source->num_pages());
  EXPECT_EQ(st.bytes_read, source->num_pages() * page_bytes);
  EXPECT_GE(st.evictions, source->num_pages() - 1);
  EXPECT_EQ(st.bytes_pinned, 0);

  // The same tight cache serves grouped aggregation too.
  auto grouped =
      GroupByAggregate(**paged, std::vector<int>{0}, {AggregateSpec::CountStar("n")});
  ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
  EXPECT_GT((*grouped)->num_rows(), 0);
}

TEST(BufferManagerTest, PrefetchWarmsCacheButNeverGrowsPastBudget) {
  TablePtr table = MakeMixedTable(9000);  // 5 pages
  TempFile file("cape_bm_prefetch.cape");
  ASSERT_TRUE(WriteTableToHeapFile(*table, file.path(), kRowsPerPage).ok());
  auto hf = HeapFile::Open(file.path());
  ASSERT_TRUE(hf.ok());
  const int64_t page_bytes = (*hf)->page_bytes();

  // Two frames: pin page 0, prefetch page 1 into the spare frame, and the
  // subsequent pin is a pure cache hit.
  auto paged = OpenPagedTable(file.path(), 2 * page_bytes);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  auto source = std::dynamic_pointer_cast<PagedTable>((*paged)->page_source());
  ASSERT_NE(source, nullptr);
  EXPECT_EQ(source->buffer_manager().max_frames(), 2);

  auto pinned = source->Pin(0);
  ASSERT_TRUE(pinned.ok());
  source->Prefetch(1);
  EXPECT_EQ(source->stats().bytes_read, 2 * page_bytes);
  auto next = source->Pin(1);
  ASSERT_TRUE(next.ok());
  PageSourceStats st = source->stats();
  EXPECT_EQ(st.hits, 1);
  EXPECT_EQ(st.misses, 1);  // prefetch IO is not a page fault
  EXPECT_EQ(st.bytes_read, 2 * page_bytes);

  // With both frames pinned the hint has nowhere to go and must not grow
  // the cache past its budget (prefetch never fails, it just declines).
  source->Prefetch(2);
  EXPECT_EQ(source->stats().bytes_read, 2 * page_bytes);
}

TEST(BufferManagerTest, PageReadFailpointInjectsAndRecovers) {
  TablePtr table = MakeMixedTable(3000);
  TempFile file("cape_bm_failpoint.cape");
  ASSERT_TRUE(WriteTableToHeapFile(*table, file.path(), kRowsPerPage).ok());
  auto paged = OpenPagedTable(file.path(), /*budget_bytes=*/1);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();

  {
    failpoint::ScopedFailpoint fp("storage.page_read");
    ASSERT_TRUE(fp.activation_status().ok()) << fp.activation_status().ToString();
    const Status st = CountFilterMatches(**paged, {}).status();
    EXPECT_TRUE(st.IsIOError()) << st.ToString();
    EXPECT_NE(st.message().find("injected fault"), std::string::npos) << st.ToString();
  }
  // Disarmed: the same table scans cleanly again (no frame was left in a
  // half-loaded state by the failed read).
  auto count = CountFilterMatches(**paged, {});
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(*count, 3000);
}

TEST(BufferManagerTest, PagedScanMatchesInMemoryOperatorsByteForByte) {
  TablePtr table = MakeMixedTable(5000);
  TempFile file("cape_bm_equiv.cape");
  ASSERT_TRUE(WriteTableToHeapFile(*table, file.path(), kRowsPerPage).ok());
  auto paged = OpenPagedTable(file.path(), /*budget_bytes=*/1 << 16);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();

  const std::vector<AggregateSpec> aggs = {
      AggregateSpec::CountStar("n"), AggregateSpec::Sum(1, "num_sum"),
      AggregateSpec::Avg(2, "val_avg"), AggregateSpec::Min(2, "val_min"),
      AggregateSpec::Max(0, "cat_max")};
  const std::vector<std::vector<std::pair<int, Value>>> filters = {
      {},
      {{0, Value::String("alpha")}},
      {{0, Value::String("absent")}},
      {{0, Value::Null()}},
      {{1, Value::Int64(3)}, {3, Value::String("tag1")}},
  };
  for (const auto& conditions : filters) {
    auto mem_count = CountFilterMatches(*table, conditions);
    auto paged_count = CountFilterMatches(**paged, conditions);
    ASSERT_TRUE(mem_count.ok() && paged_count.ok());
    EXPECT_EQ(*mem_count, *paged_count);

    auto mem_filtered = FilterEquals(*table, conditions);
    auto paged_filtered = FilterEquals(**paged, conditions);
    ASSERT_TRUE(mem_filtered.ok()) << mem_filtered.status().ToString();
    ASSERT_TRUE(paged_filtered.ok()) << paged_filtered.status().ToString();
    EXPECT_EQ(WriteCsvString(**mem_filtered), WriteCsvString(**paged_filtered));

    for (const std::vector<int>& group_cols :
         std::vector<std::vector<int>>{{0}, {0, 3}, {1}, {2}, {}}) {
      auto mem = FilterGroupAggregate(*table, conditions, group_cols, aggs);
      auto pg = FilterGroupAggregate(**paged, conditions, group_cols, aggs);
      ASSERT_TRUE(mem.ok()) << mem.status().ToString();
      ASSERT_TRUE(pg.ok()) << pg.status().ToString();
      EXPECT_EQ(WriteCsvString(**mem), WriteCsvString(**pg));
    }
  }
  for (const std::vector<int>& cols : std::vector<std::vector<int>>{{0}, {0, 1}, {3}, {}}) {
    auto mem = ProjectDistinct(*table, cols);
    auto pg = ProjectDistinct(**paged, cols);
    ASSERT_TRUE(mem.ok()) << mem.status().ToString();
    ASSERT_TRUE(pg.ok()) << pg.status().ToString();
    EXPECT_EQ(WriteCsvString(**mem), WriteCsvString(**pg));
  }
}

TEST(BufferManagerTest, EngineRunStatsExposePageCountersAndMiningMatches) {
  CrimeOptions options;
  options.num_rows = 6000;
  options.num_attrs = 5;
  options.seed = 42;

  TempFile file("cape_bm_engine.cape");
  ASSERT_TRUE(GenerateCrimeToHeapFile(options, file.path(), kRowsPerPage).ok());
  auto paged = OpenPagedTable(file.path(), /*budget_bytes=*/1 << 18);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  auto in_memory = GenerateCrime(options);
  ASSERT_TRUE(in_memory.ok());
  ASSERT_EQ((*paged)->num_rows(), (*in_memory)->num_rows());

  MiningConfig config;
  config.max_pattern_size = 3;
  config.local_gof_threshold = 0.2;
  config.local_support_threshold = 3;
  config.global_confidence_threshold = 0.3;
  config.global_support_threshold = 10;
  config.agg_functions = {AggFunc::kCount};

  auto mine = [&](TablePtr t) -> std::string {
    auto engine = Engine::FromTable(std::move(t));
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    engine->mining_config() = config;
    const Status st = engine->MinePatterns("NAIVE");
    EXPECT_TRUE(st.ok()) << st.ToString();
    return SerializePatternSet(engine->patterns(), engine->schema());
  };

  // Out-of-core NAIVE mining produces the identical pattern set, and the
  // engine surfaces the buffer-manager counters through run_stats().
  auto engine = Engine::FromTable(*paged);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  engine->mining_config() = config;
  ASSERT_TRUE(engine->MinePatterns("NAIVE").ok());
  const RunStats stats = engine->run_stats();
  EXPECT_GT(stats.page_misses, 0);
  EXPECT_GT(stats.page_bytes_read, 0);
  EXPECT_EQ(stats.page_bytes_pinned, 0);  // nothing pinned between requests
  EXPECT_GT(stats.page_hits + stats.page_misses, (*paged)->page_source()->num_pages());

  const std::string from_paged = SerializePatternSet(engine->patterns(), engine->schema());
  EXPECT_EQ(from_paged, mine(*in_memory));
  EXPECT_FALSE(from_paged.empty());
}

TEST(BufferManagerTest, PagedArpMineWithFdsMatchesResident) {
  // Crime's community -> district is an FD between two int64 attributes.
  // ARP-MINE seeds single-attribute cardinalities before its first level;
  // an out-of-core table's numeric columns hold no rows, so the seed must
  // come from a scan, or the FD (and every skip it licenses) goes missing.
  CrimeOptions options;
  options.num_rows = 8192;
  options.num_attrs = 7;
  auto resident = GenerateCrime(options);
  ASSERT_TRUE(resident.ok()) << resident.status().ToString();
  TempFile file("cape_bm_arp_fds.cape");
  ASSERT_TRUE(WriteTableToHeapFile(**resident, file.path(), kRowsPerPage).ok());
  auto paged = OpenPagedTable(file.path(), /*budget_bytes=*/1 << 18);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();

  MiningConfig config;
  config.max_pattern_size = 3;
  config.local_gof_threshold = 0.2;
  config.local_support_threshold = 3;
  config.global_confidence_threshold = 0.2;
  config.global_support_threshold = 10;
  config.agg_functions = {AggFunc::kCount};
  config.use_fd_optimizations = true;

  auto want = MakeArpMiner()->Mine(**resident, config);
  auto got = MakeArpMiner()->Mine(**paged, config);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  const Schema& schema = *(*resident)->schema();
  const int community = schema.GetFieldIndex("community");
  const int district = schema.GetFieldIndex("district");
  EXPECT_TRUE(want->fds.Implies(AttrSet::Single(community), district));
  EXPECT_TRUE(got->fds.Implies(AttrSet::Single(community), district));
  EXPECT_EQ(got->fds.size(), want->fds.size());
  EXPECT_EQ(SerializePatternSet(got->patterns, schema),
            SerializePatternSet(want->patterns, schema));
  EXPECT_GT(want->patterns.size(), 0u);
}

}  // namespace
}  // namespace cape
