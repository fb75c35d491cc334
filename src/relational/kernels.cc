// Chunk-driven scan kernels (DESIGN.md §14, §15). Every scan reads its rows
// as PageViews from one function, ScanChunks: a resident table is one view
// over its column arrays (no pin, no IO), an out-of-core table its heap-file
// pages, each pinned while its rows are read. Within a view, rows run in
// kKernelBlockSize-row blocks: conjunctive equality predicates evaluate into
// 0/1 byte masks via tight branch-free loops the compiler auto-vectorizes,
// masks compact into selection vectors, dense group keys pack a block at a
// time, and the fused FilterGroupAggregate feeds aggregates straight from
// the chunks — no materialized intermediate, no per-row std::function.
//
// Byte identity across residencies: every kernel visits rows in ascending
// global order, numbers groups in first-seen order (any injective keying
// yields the same numbering), accumulates floating-point sums in that same
// order, and boxes values exactly as Column::GetValue does. Planning may
// still depend on residency (PlanDenseKeys), because only the key values,
// never the group numbering, depend on the plan.
//
// Loops tagged `// vec-hot` are asserted auto-vectorized by
// tools/check_vectorization.sh (gcc -O3 -fopt-info-vec); keep the tag on the
// `for` line. Loops deliberately left scalar: mask→selection compaction
// (loop-carried index), floating-point accumulation (addition order is part
// of the byte-identity contract), and per-group scatter updates
// (data-dependent indices).

#include "relational/kernels.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <unordered_map>

#include "common/hash.h"
#include "common/macros.h"
#include "relational/operators_internal.h"

namespace cape {

namespace {

using relational_internal::AggState;
using relational_internal::ChunkGetValue;
using relational_internal::UpdateAggState;
using relational_internal::ValidateAggSpec;
using relational_internal::ValidateColumnIndex;

Status ValidateConditions(const Table& table,
                          const std::vector<std::pair<int, Value>>& conditions) {
  for (const auto& [col, value] : conditions) {
    CAPE_RETURN_IF_ERROR(ValidateColumnIndex(table, col));
    (void)value;
  }
  return Status::OK();
}

/// The stop status for a scan proven empty without reading a row.
Status StopOrOk(StopToken* stop) {
  if (stop != nullptr && stop->ShouldStopNow()) return stop->ToStatus();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Mask and selection primitives.

int64_t CountMask(const uint8_t* mask, int n) {
  int64_t c = 0;
  for (int i = 0; i < n; ++i) c += mask[i];  // vec-hot
  return c;
}

int64_t CountMaskAndValid(const uint8_t* mask, const uint8_t* valid, int n) {
  int64_t c = 0;
  for (int i = 0; i < n; ++i) c += mask[i] & valid[i];  // vec-hot
  return c;
}

// The 8-byte compares write a same-width temporary: gcc cannot mix
// int64/double loads with byte-mask stores in one vector loop ("no vectype"),
// and baseline SSE2 has no 64-bit integer compare at all (pcmpeqq is SSE4.1).
// Equality therefore runs as a vectorizable XOR — tmp[i] == 0 iff
// data[i] == want — and the zero test folds into the scalar narrowing pass
// back in EvalCond. The helpers must stay noinline: inlined into the
// switch, gcc forward-propagates the temporary into the narrowing AND and
// recreates exactly the mixed-width loop the temporary exists to avoid.
[[gnu::noinline]] void MaskInt64Eq(const int64_t* data, int64_t want, int n,
                                   uint64_t* tmp) {
  const uint64_t w = static_cast<uint64_t>(want);
  for (int i = 0; i < n; ++i) tmp[i] = static_cast<uint64_t>(data[i]) ^ w;  // vec-hot
}

// Value::Compare's exact equality rule !(x<v) && !(x>v) treats NaN as equal
// to everything and -0.0 as equal to 0.0; a plain == would diverge. Both
// compares vectorize as SSE2 cmppd selects, leaving tmp[i] == 0.0 exactly
// when the row matches; the zero test runs in the scalar narrowing pass.
[[gnu::noinline]] void MaskDoubleEq(const double* data, double want, int n,
                                    double* tmp) {
  for (int i = 0; i < n; ++i) tmp[i] = ((data[i] < want) | (data[i] > want)) ? 1.0 : 0.0;  // vec-hot
}

/// Branch-free mask→selection compaction: every slot is written, the cursor
/// advances only on set mask bytes. Sequential by construction (loop-carried
/// k), so it stays scalar — the win is the absence of a mispredicted branch
/// per row, not SIMD.
int64_t CompactBlock(const uint8_t* mask, int n, int64_t begin, int64_t* out) {
  int64_t k = 0;
  for (int i = 0; i < n; ++i) {
    out[k] = begin + i;
    k += mask[i];
  }
  return k;
}

// ---------------------------------------------------------------------------
// The scan loop.

/// Hands `fn` the rows of `table` as PageViews in ascending row order: a
/// resident table as one view over its column arrays, with no pin and no
/// IO; an out-of-core table page by page, each page pinned while `fn` runs,
/// with its successor prefetched. Stop checks run per page, in addition to
/// the per-block checks inside `fn`.
template <typename Fn>
Status ScanChunks(const Table& table, StopToken* stop, Fn&& fn) {
  if (table.rows_resident()) {
    const std::vector<ColumnChunk> chunks = table.ResidentChunks();
    return fn(PageView{0, table.num_rows(), chunks.data()});
  }
  PageSource& src = *table.page_source();
  const int64_t pages = src.num_pages();
  for (int64_t p = 0; p < pages; ++p) {
    CAPE_RETURN_IF_STOPPED_BLOCK(stop);
    CAPE_ASSIGN_OR_RETURN(PageRef ref, src.Pin(p));
    // Prefetch the successor while p is pinned: with >= 2 frames the next
    // Pin hits; with a single frame the hint is skipped (the only frame is
    // pinned), so a minimal budget never double-reads.
    if (p + 1 < pages) src.Prefetch(p + 1);
    CAPE_RETURN_IF_ERROR(fn(ref.view()));
  }
  return Status::OK();
}

/// ScanChunks in kKernelBlockSize-row blocks: calls fn(view, begin, n) for
/// view-local rows [begin, begin + n), with a stop check per block.
template <typename Fn>
Status ScanBlocks(const Table& table, StopToken* stop, Fn&& fn) {
  return ScanChunks(table, stop, [&](const PageView& view) -> Status {
    for (int64_t b = 0; b < view.row_count; b += kKernelBlockSize) {
      CAPE_RETURN_IF_STOPPED_BLOCK(stop);
      fn(view, b, static_cast<int>(std::min<int64_t>(kKernelBlockSize, view.row_count - b)));
    }
    return Status::OK();
  });
}

// ---------------------------------------------------------------------------
// BlockPredicate.

/// Conjunctive equality predicate compiled once and evaluated a block at a
/// time into a 0/1 byte mask, with RowEqualityMatcher's semantics (NULL
/// matches NULL, cross-type numeric equality via Value::Compare's
/// !(x<v) && !(x>v) rule, string values resolved to dictionary codes,
/// absent/mismatched values short-circuiting via never_matches()). The
/// compiled conditions hold for every view of the table — dictionary codes
/// and never_matches() proofs are table-wide facts (a heap file's
/// dictionaries are file-global) — so one predicate serves a whole scan.
/// Column indices must be validated by the caller.
class BlockPredicate {
 public:
  BlockPredicate(const Table& table, const std::vector<std::pair<int, Value>>& conditions) {
    conds_.reserve(conditions.size());
    for (const auto& [col_idx, value] : conditions) {
      const Column& col = table.column(col_idx);
      Cond cond;
      cond.col = col_idx;
      if (value.is_null()) {
        cond.kind = col.type() == DataType::kString ? Kind::kNullCode : Kind::kNullValidity;
      } else if (col.type() == DataType::kString) {
        if (value.type() != DataType::kString) {
          never_matches_ = true;  // numerics order before strings, never equal
          return;
        }
        cond.code = col.FindCode(value.string_value());
        if (cond.code == Column::kNullCode) {
          never_matches_ = true;  // value absent from dictionary: no row matches
          return;
        }
        cond.kind = Kind::kCode;
      } else if (value.type() == DataType::kString) {
        never_matches_ = true;  // string value vs numeric column: never equal
        return;
      } else if (col.type() == DataType::kInt64 && value.type() == DataType::kInt64) {
        cond.kind = Kind::kInt64;
        cond.i64 = value.int64_value();
      } else if (col.type() == DataType::kDouble) {
        cond.kind = Kind::kDoubleEq;
        cond.f64 = value.AsDouble();
      } else {
        cond.kind = Kind::kInt64AsDouble;
        cond.f64 = value.AsDouble();
      }
      conds_.push_back(cond);
    }
  }

  /// True when no row can possibly satisfy the conditions.
  bool never_matches() const { return never_matches_; }

  /// True when there are no conditions (every row matches).
  bool always_matches() const { return conds_.empty() && !never_matches_; }

  /// Sets mask[i] to 1 where view-local row `begin + i` of `view` satisfies
  /// every condition and 0 elsewhere, for i in [0, n), n <= kKernelBlockSize.
  void Eval(const PageView& view, int64_t begin, int n, uint8_t* mask) const {
    std::memset(mask, 1, static_cast<size_t>(n));
    for (const Cond& cond : conds_) EvalCond(cond, view.cols[cond.col], begin, n, mask);
  }

 private:
  enum class Kind : uint8_t {
    kCode,           // string column: dictionary code equality
    kNullCode,       // IS NULL on a string column (code < 0)
    kNullValidity,   // IS NULL on a numeric column (validity == 0)
    kInt64,          // exact int64 equality
    kDoubleEq,       // double column: Value::Compare numeric equality
    kInt64AsDouble,  // int64 column vs double value (rare; scalar loop)
  };
  struct Cond {
    int col = 0;
    Kind kind = Kind::kCode;
    int32_t code = 0;
    int64_t i64 = 0;
    double f64 = 0.0;
  };

  static void EvalCond(const Cond& cond, const ColumnChunk& chunk, int64_t begin, int n,
                       uint8_t* mask) {
    // Scratch for the 8-byte compares; see MaskInt64Eq/MaskDoubleEq for why
    // they run through a same-width temporary in a noinline helper. Each
    // case uses exactly one member — never both — so no punning occurs.
    union {
      uint64_t u64[kKernelBlockSize];
      double f64[kKernelBlockSize];
    } tmp;
    switch (cond.kind) {
      case Kind::kCode: {
        const int32_t* codes = chunk.codes + begin;
        const int32_t want = cond.code;
        // kNullCode (-1) never equals a real code, so no separate null check.
        for (int i = 0; i < n; ++i) mask[i] &= static_cast<uint8_t>(codes[i] == want);  // vec-hot
        break;
      }
      case Kind::kNullCode: {
        const int32_t* codes = chunk.codes + begin;
        for (int i = 0; i < n; ++i) mask[i] &= static_cast<uint8_t>(codes[i] < 0);  // vec-hot
        break;
      }
      case Kind::kNullValidity: {
        const uint8_t* valid = chunk.validity + begin;
        for (int i = 0; i < n; ++i) mask[i] &= static_cast<uint8_t>(valid[i] ^ 1);  // vec-hot
        break;
      }
      case Kind::kInt64: {
        MaskInt64Eq(chunk.i64 + begin, cond.i64, n, tmp.u64);
        // NULL slots store 0, so a want==0 condition needs the validity AND;
        // the chunk's null count skips it for fully-valid chunks.
        if (chunk.null_count == 0) {
          for (int i = 0; i < n; ++i) mask[i] &= static_cast<uint8_t>(tmp.u64[i] == 0);
        } else {
          const uint8_t* valid = chunk.validity + begin;
          for (int i = 0; i < n; ++i) mask[i] &= static_cast<uint8_t>(tmp.u64[i] == 0) & valid[i];
        }
        break;
      }
      case Kind::kDoubleEq: {
        MaskDoubleEq(chunk.f64 + begin, cond.f64, n, tmp.f64);
        if (chunk.null_count == 0) {
          for (int i = 0; i < n; ++i) mask[i] &= static_cast<uint8_t>(tmp.f64[i] == 0.0);
        } else {
          const uint8_t* valid = chunk.validity + begin;
          for (int i = 0; i < n; ++i) mask[i] &= static_cast<uint8_t>(tmp.f64[i] == 0.0) & valid[i];
        }
        break;
      }
      case Kind::kInt64AsDouble: {
        // int64 column against a double condition value: the int64→double
        // conversion has no baseline-SSE2 vector form, so this rare shape
        // stays scalar.
        const int64_t* data = chunk.i64 + begin;
        const uint8_t* valid = chunk.validity + begin;
        const double want = cond.f64;
        for (int i = 0; i < n; ++i) {
          const double x = static_cast<double>(data[i]);
          mask[i] &= static_cast<uint8_t>(valid[i] & !(x < want) & !(x > want));
        }
        break;
      }
    }
  }

  std::vector<Cond> conds_;
  bool never_matches_ = false;
};

/// Appends the rows of block [begin, begin + n) of `view` that satisfy
/// `pred` to *sel, as view-local row indices plus `offset`.
void SelectBlock(const BlockPredicate& pred, const PageView& view, int64_t begin, int n,
                 int64_t offset, std::vector<int64_t>* sel) {
  uint8_t mask[kKernelBlockSize];
  pred.Eval(view, begin, n, mask);
  const size_t base = sel->size();
  sel->resize(base + static_cast<size_t>(n));
  const int64_t k = CompactBlock(mask, n, offset + begin, sel->data() + base);
  sel->resize(base + static_cast<size_t>(k));
}

// ---------------------------------------------------------------------------
// Aggregate plans.

/// Pre-resolved update shape of one aggregate, so the per-row scatter loop
/// dispatches on a dense enum instead of re-deriving (func, column type)
/// per row. Update arithmetic replicates UpdateAggState exactly — in
/// particular the int64 sum's dual isum/dsum accumulation.
enum class AggKind : uint8_t {
  kCountStar,  // count(*): rows
  kCountCol,   // count(col): non-null rows
  kSumInt64,   // sum/avg over an int64 column
  kSumDouble,  // sum/avg over a double column
  kBoxed,      // min/max: boxed Value comparisons via UpdateAggState
};

struct AggPlan {
  AggKind kind = AggKind::kBoxed;
  int col = -1;  // input column (kCountStar: unused)
};

std::vector<AggPlan> CompileAggPlans(const Table& table,
                                     const std::vector<AggregateSpec>& aggs) {
  std::vector<AggPlan> plans;
  plans.reserve(aggs.size());
  for (const AggregateSpec& spec : aggs) {
    AggPlan p;
    if (spec.input_col == AggregateSpec::kCountStar) {
      p.kind = AggKind::kCountStar;
    } else {
      p.col = spec.input_col;
      switch (spec.func) {
        case AggFunc::kCount:
          p.kind = AggKind::kCountCol;
          break;
        case AggFunc::kSum:
        case AggFunc::kAvg:
          p.kind = table.column(p.col).type() == DataType::kInt64 ? AggKind::kSumInt64
                                                                 : AggKind::kSumDouble;
          break;
        case AggFunc::kMin:
        case AggFunc::kMax:
          p.kind = AggKind::kBoxed;
          break;
      }
    }
    plans.push_back(p);
  }
  return plans;
}

/// Folds view-local row `i` of `chunks` into one group's aggregate states.
void UpdateWithPlans(const Table& table, const std::vector<AggregateSpec>& aggs,
                     const std::vector<AggPlan>& plans, const ColumnChunk* chunks, int64_t i,
                     AggState* states) {
  for (size_t a = 0; a < plans.size(); ++a) {
    AggState& st = states[a];
    const AggPlan& p = plans[a];
    switch (p.kind) {
      case AggKind::kCountStar:
        ++st.count;
        break;
      case AggKind::kCountCol:
        if (chunks[p.col].validity[i] != 0) ++st.count;
        break;
      case AggKind::kSumInt64: {
        const ColumnChunk& ch = chunks[p.col];
        if (ch.validity[i] != 0) {
          ++st.count;
          const int64_t v = ch.i64[i];
          st.isum += v;
          st.dsum += static_cast<double>(v);
        }
        break;
      }
      case AggKind::kSumDouble: {
        const ColumnChunk& ch = chunks[p.col];
        if (ch.validity[i] != 0) {
          ++st.count;
          st.dsum += ch.f64[i];
        }
        break;
      }
      case AggKind::kBoxed:
        UpdateAggState(table, aggs[a], chunks, i, &st);
        break;
    }
  }
}

// ---------------------------------------------------------------------------
// Group tables and key sinks.

/// Discovered groups in first-seen order — the numbering contract every
/// downstream consumer depends on. A group's key values are remembered as
/// its first row when the rows are resident (read back at finalize: no
/// allocation for the key), and boxed at discovery otherwise, while the
/// page holding the row is still pinned.
class GroupTable {
 public:
  GroupTable(const Table& table, const std::vector<int>& group_cols, size_t num_aggs)
      : table_(table), group_cols_(group_cols), num_aggs_(num_aggs) {}

  size_t size() const { return states_.size(); }

  /// Registers the group first seen at view-local row `i` of `view`.
  size_t AddGroup(const PageView& view, int64_t i) {
    if (table_.rows_resident()) {
      first_rows_.push_back(view.row_begin + i);
    } else {
      Row key;
      key.reserve(group_cols_.size());
      for (int c : group_cols_) key.push_back(ChunkGetValue(view.cols[c], table_.column(c), i));
      boxed_keys_.push_back(std::move(key));
    }
    states_.emplace_back(num_aggs_);
    return states_.size() - 1;
  }

  AggState* states(size_t g) { return states_[g].data(); }

  /// Key value `k` (group_cols[k]) of group `g`.
  Value KeyValue(size_t g, size_t k) const {
    if (table_.rows_resident()) return table_.GetValue(first_rows_[g], group_cols_[k]);
    return boxed_keys_[g][k];
  }

 private:
  const Table& table_;
  const std::vector<int>& group_cols_;
  const size_t num_aggs_;
  std::vector<int64_t> first_rows_;            // resident: first row of each group
  std::vector<Row> boxed_keys_;                // out-of-core: key values of each group
  std::vector<std::vector<AggState>> states_;  // [group][agg]
};

/// Group lookup via a direct-address array — one vector access per row for
/// small mixed-radix key spaces.
struct DirectSink {
  DirectSink(uint64_t domain, GroupTable* groups)
      : slots(static_cast<size_t>(domain), -1), groups(groups) {}

  size_t GidFor(uint64_t key, const PageView& view, int64_t i) {
    int32_t& slot = slots[static_cast<size_t>(key)];
    if (slot < 0) slot = static_cast<int32_t>(groups->AddGroup(view, i));
    return static_cast<size_t>(slot);
  }

  std::vector<int32_t> slots;
  GroupTable* groups;
};

/// Group lookup via an exact uint64-keyed hash map for larger key spaces.
struct MapSink {
  MapSink(size_t expected, GroupTable* groups) : groups(groups) { map.reserve(expected); }

  size_t GidFor(uint64_t key, const PageView& view, int64_t i) {
    auto [it, fresh] = map.try_emplace(key, groups->size());
    if (fresh) groups->AddGroup(view, i);
    return it->second;
  }

  std::unordered_map<uint64_t, size_t> map;
  GroupTable* groups;
};

// ---------------------------------------------------------------------------
// Dense mixed-radix keys.

/// One column of the dense mixed-radix packed key (DESIGN.md §10): string
/// columns map onto dictionary codes, narrow int64 columns onto value - base;
/// NULL maps to digit 0.
struct DenseCol {
  int col = 0;
  uint64_t stride = 1;
  int64_t base = 0;  // minimum value for int64 columns
  bool is_string = false;
};

/// [lo, hi] of the non-null int64 values of column `c` (both 0 when there
/// are none). Resident rows are scanned — only the selected ones when `sel`
/// is given, so a filtered γ sizes its keys by the rows it groups, and
/// never through Column::Min()/Max(), which box every row. An out-of-core
/// table answers from its heap file's column stats.
void Int64Range(const Table& table, int c, const std::vector<int64_t>* sel, int64_t* lo,
                int64_t* hi) {
  const Column& col = table.column(c);
  *lo = 0;
  *hi = 0;
  if (!table.rows_resident()) {
    const Value mn = col.Min();
    if (!mn.is_null()) {
      *lo = mn.int64_value();
      *hi = col.Max().int64_value();
    }
    return;
  }
  const int64_t total = sel != nullptr ? static_cast<int64_t>(sel->size()) : table.num_rows();
  bool any = false;
  for (int64_t j = 0; j < total; ++j) {
    const int64_t row = sel != nullptr ? (*sel)[static_cast<size_t>(j)] : j;
    if (col.IsNull(row)) continue;
    const int64_t v = col.GetInt64(row);
    *lo = any ? std::min(*lo, v) : v;
    *hi = any ? std::max(*hi, v) : v;
    any = true;
  }
}

/// Dense-key eligibility and layout: every group column must be a string or
/// an int64 with a value range narrower than 2^22, and the mixed-radix
/// domain product must fit uint64.
bool PlanDenseKeys(const Table& table, const std::vector<int>& group_cols,
                   const std::vector<int64_t>* sel, std::vector<DenseCol>* dense,
                   uint64_t* domain_product) {
  if (table.num_rows() >= (int64_t{1} << 31)) return false;
  *domain_product = 1;
  for (int c : group_cols) {
    const Column& col = table.column(c);
    DenseCol d{c, *domain_product, 0, false};
    uint64_t domain;  // cardinality + 1 slot for NULL
    if (col.type() == DataType::kString) {
      d.is_string = true;
      domain = static_cast<uint64_t>(col.dict_size()) + 1;
    } else if (col.type() == DataType::kInt64) {
      int64_t lo = 0;
      int64_t hi = 0;
      Int64Range(table, c, sel, &lo, &hi);
      const uint64_t width = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
      if (width >= (uint64_t{1} << 22)) return false;  // too sparse
      domain = width + 2;
      d.base = lo;
    } else {
      return false;  // double group keys keep the byte-keyed fold
    }
    if (*domain_product > std::numeric_limits<uint64_t>::max() / domain) {
      return false;  // mixed-radix product overflows uint64
    }
    *domain_product *= domain;
    dense->push_back(d);
  }
  return true;
}

/// Packs the mixed-radix keys of view-local rows [begin, begin + n) into
/// keys[0..n).
void PackBlockKeys(const std::vector<DenseCol>& dense, const ColumnChunk* chunks,
                   int64_t begin, int n, uint64_t* keys) {
  // gcc idiom-recognizes a zero-fill loop into memset anyway; be explicit.
  std::memset(keys, 0, static_cast<size_t>(n) * sizeof(uint64_t));
  for (const DenseCol& d : dense) {
    const ColumnChunk& ch = chunks[d.col];
    const uint64_t stride = d.stride;
    if (d.is_string) {
      const int32_t* codes = ch.codes + begin;
      for (int i = 0; i < n; ++i) keys[i] += static_cast<uint64_t>(codes[i] + 1) * stride;  // vec-hot
    } else if (ch.null_count == 0) {
      const int64_t* data = ch.i64 + begin;
      const uint64_t base = static_cast<uint64_t>(d.base);
      for (int i = 0; i < n; ++i) keys[i] += (static_cast<uint64_t>(data[i]) - base + 1) * stride;  // vec-hot
    } else {
      // Nullable int64: the select between digit 0 (NULL) and value - base
      // mixes byte and quadword lanes, so it stays scalar; the fully-valid
      // fast path above is the common shape.
      const int64_t* data = ch.i64 + begin;
      const uint8_t* valid = ch.validity + begin;
      const uint64_t base = static_cast<uint64_t>(d.base);
      for (int i = 0; i < n; ++i) {
        keys[i] += (valid[i] != 0 ? static_cast<uint64_t>(data[i]) - base + 1 : 0) * stride;
      }
    }
  }
}

/// Scalar key pack for one selected row (gathered rows defeat SIMD; the
/// filter already shrank the row set).
uint64_t PackKeyScalar(const std::vector<DenseCol>& dense, const ColumnChunk* chunks,
                       int64_t i) {
  uint64_t key = 0;
  for (const DenseCol& d : dense) {
    const ColumnChunk& ch = chunks[d.col];
    const uint64_t digit =
        d.is_string ? static_cast<uint64_t>(ch.codes[i] + 1)  // NULL -> 0
                    : (ch.validity[i] == 0 ? 0
                                           : static_cast<uint64_t>(ch.i64[i] - d.base) + 1);
    key += digit * d.stride;
  }
  return key;
}

// ---------------------------------------------------------------------------
// Grouping scans.

/// The shape of one grouped σ → γ: what to group on and what to aggregate.
struct GroupQuery {
  const Table& table;
  const std::vector<int>& group_cols;
  const std::vector<AggregateSpec>& aggs;
  const std::vector<AggPlan>& plans;
};

/// Feeds the rows of `table` that satisfy `pred` to `fold` in ascending
/// order: whole blocks to fold.Block(view, begin, n) when every row
/// matches, the selected view-local rows to fold.Rows(view, rows, k)
/// otherwise. `sel`, when given, is a resident table's selection computed
/// up front; it replaces the predicate.
template <typename Fold>
Status FoldMatches(const Table& table, const BlockPredicate& pred,
                   const std::vector<int64_t>* sel, StopToken* stop, Fold& fold) {
  if (sel != nullptr) {
    const std::vector<ColumnChunk> chunks = table.ResidentChunks();
    const PageView view{0, table.num_rows(), chunks.data()};
    const int64_t k = static_cast<int64_t>(sel->size());
    for (int64_t j = 0; j < k; j += kKernelBlockSize) {
      CAPE_RETURN_IF_STOPPED_BLOCK(stop);
      fold.Rows(view, sel->data() + j, std::min<int64_t>(kKernelBlockSize, k - j));
    }
    return Status::OK();
  }
  uint8_t mask[kKernelBlockSize];
  int64_t rows[kKernelBlockSize];
  return ScanBlocks(table, stop, [&](const PageView& view, int64_t b, int bn) {
    if (pred.always_matches()) {
      fold.Block(view, b, bn);
      return;
    }
    pred.Eval(view, b, bn, mask);
    fold.Rows(view, rows, CompactBlock(mask, bn, b, rows));
  });
}

/// Dense-key fold: whole blocks pack their keys vectorized, selected rows
/// one at a time.
template <typename Sink>
struct DenseFold {
  DenseFold(const GroupQuery& q, const std::vector<DenseCol>& dense, Sink& sink,
            GroupTable* groups)
      : q(q), dense(dense), sink(sink), groups(groups) {}

  void Block(const PageView& view, int64_t begin, int n) {
    PackBlockKeys(dense, view.cols, begin, n, keys);
    for (int i = 0; i < n; ++i) {
      const size_t g = sink.GidFor(keys[i], view, begin + i);
      UpdateWithPlans(q.table, q.aggs, q.plans, view.cols, begin + i, groups->states(g));
    }
  }

  void Rows(const PageView& view, const int64_t* rows, int64_t k) {
    for (int64_t j = 0; j < k; ++j) {
      const int64_t i = rows[j];
      const size_t g = sink.GidFor(PackKeyScalar(dense, view.cols, i), view, i);
      UpdateWithPlans(q.table, q.aggs, q.plans, view.cols, i, groups->states(g));
    }
  }

  const GroupQuery& q;
  const std::vector<DenseCol>& dense;
  Sink& sink;
  GroupTable* groups;
  uint64_t keys[kKernelBlockSize];  // one block's packed keys
};

/// Byte-keyed fold for group keys the dense plan cannot pack (double
/// columns, wide int64 ranges, overflowing domain products): GroupKeyEncoder
/// keys hashed once per row, collisions resolved by key bytes.
struct EncoderFold {
  EncoderFold(const GroupQuery& q, size_t expected, GroupTable* groups)
      : q(q), encoder(q.table, q.group_cols), groups(groups) {
    buckets.reserve(expected);
    group_keys.reserve(expected);
  }

  void Block(const PageView& view, int64_t begin, int n) {
    for (int i = 0; i < n; ++i) Fold(view, begin + i);
  }

  void Rows(const PageView& view, const int64_t* rows, int64_t k) {
    for (int64_t j = 0; j < k; ++j) Fold(view, rows[j]);
  }

  void Fold(const PageView& view, int64_t i) {
    key.clear();
    encoder.EncodeRow(view.cols, i, &key);
    std::vector<size_t>& bucket = buckets[HashBytes(key.data(), key.size())];
    size_t g = groups->size();
    for (size_t candidate : bucket) {
      if (group_keys[candidate] == key) {
        g = candidate;
        break;
      }
    }
    if (g == groups->size()) {
      bucket.push_back(g);
      group_keys.push_back(key);
      groups->AddGroup(view, i);
    }
    UpdateWithPlans(q.table, q.aggs, q.plans, view.cols, i, groups->states(g));
  }

  const GroupQuery& q;
  GroupKeyEncoder encoder;
  GroupTable* groups;
  std::unordered_map<uint64_t, std::vector<size_t>> buckets;
  std::vector<std::string> group_keys;
  std::string key;
};

/// γ over the rows of `q.table` that satisfy `pred`, into `groups`.
Status GroupScan(const GroupQuery& q, const BlockPredicate& pred, GroupTable* groups,
                 StopToken* stop) {
  const Table& table = q.table;
  // A resident filtered γ selects first, so its int64 digit ranges and its
  // direct-address table are sized by the selected rows, not the relation
  // (a pushed-down pair query groups a few rows of a large table).
  std::vector<int64_t> sel;
  const bool preselect = table.rows_resident() && !pred.always_matches();
  if (preselect) {
    CAPE_RETURN_IF_ERROR(ScanBlocks(table, stop, [&](const PageView& view, int64_t b, int bn) {
      SelectBlock(pred, view, b, bn, /*offset=*/0, &sel);
    }));
  }
  const std::vector<int64_t>* selected = preselect ? &sel : nullptr;
  const int64_t total = preselect ? static_cast<int64_t>(sel.size()) : table.num_rows();

  std::vector<DenseCol> dense;
  uint64_t domain_product = 1;
  if (!PlanDenseKeys(table, q.group_cols, selected, &dense, &domain_product)) {
    EncoderFold fold(q, static_cast<size_t>(total / 4 + 1), groups);
    return FoldMatches(table, pred, selected, stop, fold);
  }
  // Small key spaces use a direct-address table; larger ones an exact
  // uint64-keyed hash map.
  const uint64_t direct_cap = static_cast<uint64_t>(std::max<int64_t>(total, 1024)) * 4;
  if (domain_product <= direct_cap) {
    DirectSink sink(domain_product, groups);
    DenseFold<DirectSink> fold(q, dense, sink, groups);
    return FoldMatches(table, pred, selected, stop, fold);
  }
  MapSink sink(static_cast<size_t>(total / 4 + 1), groups);
  DenseFold<MapSink> fold(q, dense, sink, groups);
  return FoldMatches(table, pred, selected, stop, fold);
}

/// Global aggregation (no group columns): one state vector; aggregates
/// consume the block mask directly — count(*) is a mask popcount,
/// count(col) a mask∧validity popcount, sums walk the block's selection in
/// row order (floating-point addition order is part of the identity
/// contract).
Status SingleGroupScan(const Table& table, const BlockPredicate& pred,
                       const std::vector<AggregateSpec>& aggs,
                       const std::vector<AggPlan>& plans, AggState* states,
                       StopToken* stop) {
  bool need_sel = false;
  for (const AggPlan& p : plans) {
    if (p.kind != AggKind::kCountStar && p.kind != AggKind::kCountCol) need_sel = true;
  }
  uint8_t mask[kKernelBlockSize];
  int64_t rows[kKernelBlockSize];
  return ScanBlocks(table, stop, [&](const PageView& view, int64_t b, int bn) {
    pred.Eval(view, b, bn, mask);
    const int64_t k = need_sel ? CompactBlock(mask, bn, b, rows) : 0;
    for (size_t a = 0; a < plans.size(); ++a) {
      AggState& st = states[a];
      const AggPlan& p = plans[a];
      switch (p.kind) {
        case AggKind::kCountStar:
          st.count += CountMask(mask, bn);
          break;
        case AggKind::kCountCol: {
          const ColumnChunk& ch = view.cols[p.col];
          st.count += ch.null_count == 0 ? CountMask(mask, bn)
                                         : CountMaskAndValid(mask, ch.validity + b, bn);
          break;
        }
        case AggKind::kSumInt64: {
          const ColumnChunk& ch = view.cols[p.col];
          for (int64_t j = 0; j < k; ++j) {
            const int64_t i = rows[j];
            if (ch.validity[i] == 0) continue;
            ++st.count;
            st.isum += ch.i64[i];
            st.dsum += static_cast<double>(ch.i64[i]);
          }
          break;
        }
        case AggKind::kSumDouble: {
          const ColumnChunk& ch = view.cols[p.col];
          for (int64_t j = 0; j < k; ++j) {
            const int64_t i = rows[j];
            if (ch.validity[i] == 0) continue;
            ++st.count;
            st.dsum += ch.f64[i];
          }
          break;
        }
        case AggKind::kBoxed:
          for (int64_t j = 0; j < k; ++j) {
            UpdateAggState(table, aggs[a], view.cols, rows[j], &st);
          }
          break;
      }
    }
  });
}

}  // namespace

// ---------------------------------------------------------------------------
// Operators.

Status FilterEqualsSel(const Table& table,
                       const std::vector<std::pair<int, Value>>& conditions,
                       StopToken* stop, std::vector<int64_t>* sel) {
  sel->clear();
  CAPE_RETURN_IF_ERROR(ValidateConditions(table, conditions));
  const BlockPredicate pred(table, conditions);
  if (pred.never_matches()) return StopOrOk(stop);
  return ScanBlocks(table, stop, [&](const PageView& view, int64_t b, int bn) {
    SelectBlock(pred, view, b, bn, view.row_begin, sel);
  });
}

Result<int64_t> CountFilterMatches(const Table& table,
                                   const std::vector<std::pair<int, Value>>& conditions,
                                   StopToken* stop) {
  CAPE_RETURN_IF_ERROR(ValidateConditions(table, conditions));
  const BlockPredicate pred(table, conditions);
  if (pred.never_matches()) {
    CAPE_RETURN_IF_ERROR(StopOrOk(stop));
    return int64_t{0};
  }
  int64_t count = 0;
  uint8_t mask[kKernelBlockSize];
  CAPE_RETURN_IF_ERROR(ScanBlocks(table, stop, [&](const PageView& view, int64_t b, int bn) {
    pred.Eval(view, b, bn, mask);
    count += CountMask(mask, bn);
  }));
  return count;
}

Result<TablePtr> FilterEquals(const Table& table,
                              const std::vector<std::pair<int, Value>>& conditions,
                              StopToken* stop) {
  CAPE_RETURN_IF_ERROR(ValidateConditions(table, conditions));
  auto out = std::make_shared<Table>(table.schema());
  const BlockPredicate pred(table, conditions);
  if (pred.never_matches()) {
    // A condition value that cannot occur in its column (e.g. a string absent
    // from the dictionary) proves the selection is empty without a scan.
    CAPE_RETURN_IF_ERROR(StopOrOk(stop));
    return out;
  }
  // Each view's matching rows append column-at-a-time, in ascending order,
  // so output dictionaries intern strings in first-appearance order for
  // either residency.
  std::vector<int64_t> rows;
  CAPE_RETURN_IF_ERROR(ScanChunks(table, stop, [&](const PageView& view) -> Status {
    rows.clear();
    for (int64_t b = 0; b < view.row_count; b += kKernelBlockSize) {
      CAPE_RETURN_IF_STOPPED_BLOCK(stop);
      const int bn = static_cast<int>(std::min<int64_t>(kKernelBlockSize, view.row_count - b));
      SelectBlock(pred, view, b, bn, /*offset=*/0, &rows);
    }
    return out->AppendRowsFrom(table, view, rows.data(), static_cast<int64_t>(rows.size()));
  }));
  return out;
}

Result<TablePtr> FilterGroupAggregate(const Table& table,
                                      const std::vector<std::pair<int, Value>>& conditions,
                                      const std::vector<int>& group_cols,
                                      const std::vector<AggregateSpec>& aggs,
                                      StopToken* stop) {
  CAPE_RETURN_IF_ERROR(ValidateConditions(table, conditions));
  for (int c : group_cols) CAPE_RETURN_IF_ERROR(ValidateColumnIndex(table, c));
  for (const AggregateSpec& spec : aggs) CAPE_RETURN_IF_ERROR(ValidateAggSpec(table, spec));

  // Output schema: group columns, then aggregates.
  std::vector<Field> out_fields;
  out_fields.reserve(group_cols.size() + aggs.size());
  for (int c : group_cols) out_fields.push_back(table.schema()->field(c));
  for (const AggregateSpec& spec : aggs) {
    out_fields.push_back(
        Field{spec.output_name, relational_internal::AggOutputType(table, spec), true});
  }
  auto out = std::make_shared<Table>(Schema::Make(std::move(out_fields)));

  const std::vector<AggPlan> plans = CompileAggPlans(table, aggs);
  const BlockPredicate pred(table, conditions);
  Row out_row;
  if (group_cols.empty()) {
    // Aggregation without grouping yields exactly one row, even on empty
    // input.
    std::vector<AggState> states(aggs.size());
    if (pred.never_matches()) {
      CAPE_RETURN_IF_ERROR(StopOrOk(stop));
    } else {
      CAPE_RETURN_IF_ERROR(SingleGroupScan(table, pred, aggs, plans, states.data(), stop));
    }
    for (size_t a = 0; a < aggs.size(); ++a) {
      out_row.push_back(relational_internal::FinalizeAggState(table, aggs[a], states[a]));
    }
    CAPE_RETURN_IF_ERROR(out->AppendRow(out_row));
    return out;
  }

  GroupTable groups(table, group_cols, aggs.size());
  if (pred.never_matches()) {
    // The selection is provably empty without a scan.
    CAPE_RETURN_IF_ERROR(StopOrOk(stop));
  } else {
    CAPE_RETURN_IF_ERROR(GroupScan(GroupQuery{table, group_cols, aggs, plans}, pred,
                                   &groups, stop));
  }
  out->Reserve(static_cast<int64_t>(groups.size()));
  for (size_t g = 0; g < groups.size(); ++g) {
    out_row.clear();
    for (size_t k = 0; k < group_cols.size(); ++k) out_row.push_back(groups.KeyValue(g, k));
    for (size_t a = 0; a < aggs.size(); ++a) {
      out_row.push_back(
          relational_internal::FinalizeAggState(table, aggs[a], groups.states(g)[a]));
    }
    CAPE_RETURN_IF_ERROR(out->AppendRow(out_row));
  }
  return out;
}

}  // namespace cape
