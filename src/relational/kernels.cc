// Chunk-driven scan kernels (DESIGN.md §14, §15). Every scan reads its rows
// as PageViews from one function, ScanChunks: a resident table is one view
// over its column arrays (no pin, no IO), an out-of-core table its heap-file
// pages, each pinned while its rows are read. Within a view, rows run in
// kKernelBlockSize-row blocks: conjunctive equality predicates evaluate into
// 0/1 byte masks via tight branch-free loops the compiler auto-vectorizes,
// masks compact into selection vectors, dense group keys pack a block at a
// time, and the fused FilterGroupAggregate feeds aggregates straight from
// the chunks — no materialized intermediate, no per-row std::function.
// Every grouped scan runs on one group table: one first-seen registry, one
// open-addressing index, and the sinks over them.
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
#include <bit>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>

#include "common/hash.h"
#include "common/macros.h"
#include "relational/operators_internal.h"

namespace cape {

namespace {

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

// Equality under CompareDoubles (value.h): x == v for a number v, which
// already finds -0.0 equal to 0.0, and x != x for a NaN v. Each compare
// vectorizes as an SSE2 cmppd select, leaving tmp[i] == 0.0 exactly when
// the row matches; the zero test runs in the scalar narrowing pass.
[[gnu::noinline]] void MaskDoubleEq(const double* data, double want, int n,
                                    double* tmp) {
  if (want == want) {
    for (int i = 0; i < n; ++i) tmp[i] = data[i] == want ? 0.0 : 1.0;  // vec-hot
  } else {
    for (int i = 0; i < n; ++i) tmp[i] = data[i] != data[i] ? 0.0 : 1.0;  // vec-hot
  }
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
/// time into a 0/1 byte mask: a cell matches a value when Value::Compare
/// finds them equal (NULL matches NULL, numerics exactly across
/// int64/double, doubles by CompareDoubles), with string values resolved to
/// dictionary codes and values no cell can equal short-circuiting via
/// never_matches(). The compiled conditions hold for every view of the
/// table — dictionary codes and never_matches() proofs are table-wide facts
/// (a heap file's dictionaries are file-global) — so one predicate serves a
/// whole scan. Column indices must be validated by the caller.
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
      } else if (col.type() == DataType::kInt64) {
        cond.kind = Kind::kInt64;
        if (value.type() == DataType::kInt64) {
          cond.i64 = value.int64_value();
        } else {
          // A double value matches only the int64 it equals exactly: none
          // for NaN, a fraction or a value outside int64's range.
          const double v = value.double_value();
          if (!(v >= -0x1p63 && v < 0x1p63) ||
              Value::Int64(static_cast<int64_t>(v)).Compare(value) != 0) {
            never_matches_ = true;
            return;
          }
          cond.i64 = static_cast<int64_t>(v);
        }
      } else {
        // Double column. An int64 value matches only the double it equals
        // exactly: none beyond 2^53, where the conversion rounds.
        cond.kind = Kind::kDoubleEq;
        cond.f64 = value.AsDouble();
        if (Value::Double(cond.f64).Compare(value) != 0) {
          never_matches_ = true;
          return;
        }
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
    kDoubleEq,       // double column: CompareDoubles equality
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
// Aggregate states and plans.

/// Running state of one aggregate within one group.
struct AggState {
  int64_t count = 0;  // non-null inputs (rows for count(*))
  int64_t isum = 0;   // integer sum
  double dsum = 0.0;  // double sum
  Value min_value;    // NULL until first non-null input
  Value max_value;
};

/// Boxes view-local row `i` of `chunk` exactly as Column::GetValue would:
/// the chunk mirrors the Column layout, and `col` supplies the type and
/// (for strings) the dictionary.
Value ChunkGetValue(const ColumnChunk& chunk, const Column& col, int64_t i) {
  if (chunk.validity[i] == 0) return Value::Null();
  switch (col.type()) {
    case DataType::kInt64:
      return Value::Int64(chunk.i64[i]);
    case DataType::kDouble:
      return Value::Double(chunk.f64[i]);
    case DataType::kString:
      return Value::String(col.DictString(chunk.codes[i]));
  }
  return Value::Null();
}

Value FinalizeAggState(const Table& table, const AggregateSpec& spec, const AggState& state) {
  switch (spec.func) {
    case AggFunc::kCount:
      return Value::Int64(state.count);
    case AggFunc::kSum:
      if (state.count == 0) return Value::Null();
      if (spec.input_col != AggregateSpec::kCountStar &&
          table.column(spec.input_col).type() == DataType::kInt64) {
        return Value::Int64(state.isum);
      }
      return Value::Double(state.dsum);
    case AggFunc::kAvg:
      if (state.count == 0) return Value::Null();
      return Value::Double(state.dsum / static_cast<double>(state.count));
    case AggFunc::kMin:
      return state.min_value;
    case AggFunc::kMax:
      return state.max_value;
  }
  return Value::Null();
}

/// Pre-resolved update shape of one aggregate, so the per-row scatter loop
/// dispatches on a dense enum instead of re-deriving (func, column type)
/// per row.
enum class AggKind : uint8_t {
  kCountStar,  // count(*): rows
  kCountCol,   // count(col): non-null rows
  kSumInt64,   // sum/avg over an int64 column
  kSumDouble,  // sum/avg over a double column
  kMin,        // min/max: boxed Value comparisons
  kMax,
};

struct AggPlan {
  AggKind kind = AggKind::kCountStar;
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
          p.kind = AggKind::kMin;
          break;
        case AggFunc::kMax:
          p.kind = AggKind::kMax;
          break;
      }
    }
    plans.push_back(p);
  }
  return plans;
}

/// Folds view-local row `i` of `chunks` into one aggregate's state: the
/// update arithmetic of every group-by, in particular the int64 sum's dual
/// isum/dsum accumulation and Value::Compare's order for min/max. NULL
/// inputs count only for count(*).
void UpdateAggState(const Table& table, const AggPlan& p, const ColumnChunk* chunks,
                    int64_t i, AggState* st) {
  if (p.kind == AggKind::kCountStar) {
    ++st->count;
    return;
  }
  const ColumnChunk& ch = chunks[p.col];
  if (ch.validity[i] == 0) return;
  ++st->count;
  switch (p.kind) {
    case AggKind::kCountStar:
    case AggKind::kCountCol:
      break;
    case AggKind::kSumInt64:
      st->isum += ch.i64[i];
      st->dsum += static_cast<double>(ch.i64[i]);
      break;
    case AggKind::kSumDouble:
      st->dsum += ch.f64[i];
      break;
    case AggKind::kMin: {
      Value v = ChunkGetValue(ch, table.column(p.col), i);
      if (st->min_value.is_null() || v < st->min_value) st->min_value = std::move(v);
      break;
    }
    case AggKind::kMax: {
      Value v = ChunkGetValue(ch, table.column(p.col), i);
      if (st->max_value.is_null() || st->max_value < v) st->max_value = std::move(v);
      break;
    }
  }
}

/// Folds view-local row `i` of `chunks` into one group's aggregate states.
void UpdateWithPlans(const Table& table, const std::vector<AggPlan>& plans,
                     const ColumnChunk* chunks, int64_t i, AggState* states) {
  for (size_t a = 0; a < plans.size(); ++a) {
    UpdateAggState(table, plans[a], chunks, i, &states[a]);
  }
}

// ---------------------------------------------------------------------------
// The group table: one registry of groups, one open-addressing index, and
// the sinks that map a row's key to its group.

/// The groups of one γ in first-seen order — the numbering contract every
/// downstream consumer depends on — each with its aggregate states and its
/// key: the group's first row when the rows are resident (read back at
/// finalize: no allocation for the key), its boxed values otherwise, taken
/// at discovery while the page holding the row is still pinned. States live
/// in blocks that double in size and never move, so growth copies no state.
class GroupTable {
 public:
  GroupTable(const Table& table, const std::vector<int>& group_cols, size_t num_aggs)
      : table_(table), group_cols_(group_cols), num_aggs_(num_aggs) {}

  size_t size() const { return size_; }

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
    const auto [b, slot] = Locate(size_);
    if (b == blocks_.size()) {
      blocks_.emplace_back();
      blocks_.back().reserve((kFirstBlock << b) * num_aggs_);
    }
    blocks_[b].resize((slot + 1) * num_aggs_);  // within the reserved block
    return size_++;
  }

  AggState* states(size_t g) {
    const auto [b, slot] = Locate(g);
    return blocks_[b].data() + slot * num_aggs_;
  }
  const AggState* states(size_t g) const {
    const auto [b, slot] = Locate(g);
    return blocks_[b].data() + slot * num_aggs_;
  }

  /// Key value `k` (group_cols[k]) of group `g`.
  Value KeyValue(size_t g, size_t k) const {
    if (table_.rows_resident()) return table_.GetValue(first_rows_[g], group_cols_[k]);
    return boxed_keys_[g][k];
  }

 private:
  static constexpr size_t kFirstBlock = 16;  // block b holds kFirstBlock << b groups

  /// The block holding group `g`, and g's index within it.
  static std::pair<size_t, size_t> Locate(size_t g) {
    const size_t x = g + kFirstBlock;
    const size_t top = static_cast<size_t>(std::bit_width(x)) - 1;
    return {top - static_cast<size_t>(std::countr_zero(kFirstBlock)), x - (size_t{1} << top)};
  }

  const Table& table_;
  const std::vector<int>& group_cols_;
  const size_t num_aggs_;
  size_t size_ = 0;
  std::vector<int64_t> first_rows_;              // resident: first row of each group
  std::vector<Row> boxed_keys_;                  // out-of-core: key values of each group
  std::vector<std::vector<AggState>> blocks_;    // [block][slot * num_aggs + agg]
};

/// Open-addressing index from a group key's 64-bit hash to its group: flat
/// (hash, group) slots with linear probing, so a probe costs one cache-miss
/// chain instead of a node walk. Keys whose full hashes collide occupy
/// separate slots on one probe chain; the caller's `eq` confirms a hit.
class GroupSlotIndex {
 public:
  static constexpr size_t kNotFound = static_cast<size_t>(-1);

  /// Returns the group whose slot matches `hash` and satisfies `eq`, or
  /// kNotFound. `eq(group)` must compare the key for equality.
  template <typename KeyEq>
  size_t Find(uint64_t hash, const KeyEq& eq) const {
    if (slots_.empty()) return kNotFound;
    size_t idx = static_cast<size_t>(hash) & mask_;
    while (true) {
      const Slot& s = slots_[idx];
      if (s.group == kEmpty) return kNotFound;
      if (s.hash == hash && eq(s.group)) return s.group;
      idx = (idx + 1) & mask_;
    }
  }

  /// Hints the probe start for an upcoming Find(hash, ...).
  void Prefetch(uint64_t hash) const {
    if (!slots_.empty()) __builtin_prefetch(&slots_[static_cast<size_t>(hash) & mask_]);
  }

  void Insert(uint64_t hash, size_t group) {
    if ((used_ + 1) * 2 > slots_.size()) Grow();
    size_t idx = static_cast<size_t>(hash) & mask_;
    while (slots_[idx].group != kEmpty) idx = (idx + 1) & mask_;
    used_ += 1;
    slots_[idx] = Slot{hash, group};
  }

  /// Pre-sizes for ~n live groups to amortize growth rehashes across a fold.
  void Reserve(size_t n) {
    size_t cap = 64;
    while (cap < n * 2) cap <<= 1;
    if (cap > slots_.size()) Rehash(cap);
  }

 private:
  static constexpr size_t kEmpty = static_cast<size_t>(-1);
  struct Slot {
    uint64_t hash;
    size_t group;
  };

  void Grow() { Rehash(slots_.empty() ? 64 : slots_.size() * 2); }

  void Rehash(size_t cap) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(cap, Slot{0, kEmpty});
    mask_ = cap - 1;
    used_ = 0;
    for (const Slot& s : old) {
      if (s.group == kEmpty) continue;
      size_t idx = static_cast<size_t>(s.hash) & mask_;
      while (slots_[idx].group != kEmpty) idx = (idx + 1) & mask_;
      slots_[idx] = s;
      used_ += 1;
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t used_ = 0;  // occupied slots
};

/// Dense-key group lookup via a direct-address array — one vector access
/// per row for small mixed-radix key spaces.
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

/// splitmix64's finalizer: a bijection on 64 bits whose low bits depend on
/// every key bit. Mixed-radix keys that differ only in a higher digit share
/// their low bits, and the index picks a slot by the low bits.
uint64_t MixKey(uint64_t key) {
  key = (key ^ (key >> 30)) * 0xbf58476d1ce4e5b9ULL;
  key = (key ^ (key >> 27)) * 0x94d049bb133111ebULL;
  return key ^ (key >> 31);
}

/// Dense-key group lookup for key spaces too large to address directly:
/// the index over mixed keys. The mix is a bijection, so equal mixes mean
/// equal keys and no key needs keeping.
struct HashSink {
  HashSink(size_t expected, GroupTable* groups) : groups(groups) { index.Reserve(expected); }

  size_t GidFor(uint64_t key, const PageView& view, int64_t i) {
    const uint64_t mixed = MixKey(key);
    size_t g = index.Find(mixed, [](size_t) { return true; });
    if (g == GroupSlotIndex::kNotFound) {
      g = groups->AddGroup(view, i);
      index.Insert(mixed, g);
    }
    return g;
  }

  GroupSlotIndex index;
  GroupTable* groups;
};

/// Groups keyed by GroupKeyEncoder bytes — the grouping kernel's keys when
/// the dense plan cannot pack them: the index over the keys' hashes, with
/// every group's key kept to settle hash collisions.
class KeyedGroups {
 public:
  KeyedGroups(const Table& table, const std::vector<int>& group_cols)
      : encoder_(table, group_cols) {}

  /// Pre-sizes the index for ~n groups.
  void Reserve(size_t n) { index_.Reserve(n); }

  /// Writes the group of view-local row rows[j] of `view` to gids[j] for
  /// j < n, registering new groups in `groups` in row order. Rows go in
  /// batches: one pass encodes a batch's keys and prefetches their index
  /// slots, the next probes, so the slot misses of a batch overlap instead
  /// of serializing row by row.
  void Lookup(const PageView& view, const int64_t* rows, int64_t n, GroupTable* groups,
              size_t* gids) {
    constexpr int64_t kBatch = 32;
    const size_t w = encoder_.key_width();
    uint64_t hashes[kBatch];
    for (int64_t base = 0; base < n; base += kBatch) {
      const int64_t m = std::min(kBatch, n - base);
      batch_.clear();
      for (int64_t j = 0; j < m; ++j) {
        encoder_.EncodeRow(view.cols, rows[base + j], &batch_);
        hashes[j] = HashBytes(batch_.data() + j * w, w);
        index_.Prefetch(hashes[j]);
      }
      for (int64_t j = 0; j < m; ++j) {
        const char* key = batch_.data() + j * w;
        size_t g = index_.Find(hashes[j], [&](size_t c) {
          return std::memcmp(keys_.data() + c * w, key, w) == 0;
        });
        if (g == GroupSlotIndex::kNotFound) {
          g = groups->AddGroup(view, rows[base + j]);
          index_.Insert(hashes[j], g);
          keys_.append(key, w);
        }
        gids[base + j] = g;
      }
    }
  }

 private:
  GroupKeyEncoder encoder_;
  GroupSlotIndex index_;
  std::string keys_;   // group g's key at [g * key_width, (g + 1) * key_width)
  std::string batch_;  // keys of the batch being looked up
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
      UpdateWithPlans(q.table, q.plans, view.cols, begin + i, groups->states(g));
    }
  }

  void Rows(const PageView& view, const int64_t* rows, int64_t k) {
    for (int64_t j = 0; j < k; ++j) {
      const int64_t i = rows[j];
      const size_t g = sink.GidFor(PackKeyScalar(dense, view.cols, i), view, i);
      UpdateWithPlans(q.table, q.plans, view.cols, i, groups->states(g));
    }
  }

  const GroupQuery& q;
  const std::vector<DenseCol>& dense;
  Sink& sink;
  GroupTable* groups;
  uint64_t keys[kKernelBlockSize];  // one block's packed keys
};

/// Byte-keyed fold: KeyedGroups maps a block's rows to their groups, then
/// each row updates its group's states, in row order.
struct KeyFold {
  KeyFold(const GroupQuery& q, size_t expected, GroupTable* groups)
      : q(q), keys(q.table, q.group_cols), groups(groups) {
    keys.Reserve(expected);
  }

  void Block(const PageView& view, int64_t begin, int n) {
    std::iota(block_rows, block_rows + n, begin);
    Rows(view, block_rows, n);
  }

  void Rows(const PageView& view, const int64_t* rows, int64_t k) {
    keys.Lookup(view, rows, k, groups, gids);
    for (int64_t j = 0; j < k; ++j) {
      UpdateWithPlans(q.table, q.plans, view.cols, rows[j], groups->states(gids[j]));
    }
  }

  const GroupQuery& q;
  KeyedGroups keys;
  GroupTable* groups;
  int64_t block_rows[kKernelBlockSize];
  size_t gids[kKernelBlockSize];
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
    KeyFold fold(q, static_cast<size_t>(total / 4 + 1), groups);
    return FoldMatches(table, pred, selected, stop, fold);
  }
  // Small key spaces use a direct-address table; larger ones the index.
  const uint64_t direct_cap = static_cast<uint64_t>(std::max<int64_t>(total, 1024)) * 4;
  if (domain_product <= direct_cap) {
    DirectSink sink(domain_product, groups);
    DenseFold<DirectSink> fold(q, dense, sink, groups);
    return FoldMatches(table, pred, selected, stop, fold);
  }
  HashSink sink(static_cast<size_t>(total / 4 + 1), groups);
  DenseFold<HashSink> fold(q, dense, sink, groups);
  return FoldMatches(table, pred, selected, stop, fold);
}

/// Global aggregation (no group columns): one state vector; aggregates
/// consume the block mask directly — count(*) is a mask popcount,
/// count(col) a mask∧validity popcount, sums walk the block's selection in
/// row order (floating-point addition order is part of the identity
/// contract).
Status SingleGroupScan(const Table& table, const BlockPredicate& pred,
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
        case AggKind::kMin:
        case AggKind::kMax:
          for (int64_t j = 0; j < k; ++j) UpdateAggState(table, p, view.cols, rows[j], &st);
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
      CAPE_RETURN_IF_ERROR(SingleGroupScan(table, pred, plans, states.data(), stop));
    }
    for (size_t a = 0; a < aggs.size(); ++a) {
      out_row.push_back(FinalizeAggState(table, aggs[a], states[a]));
    }
    CAPE_RETURN_IF_ERROR(out->AppendRow(out_row));
    return out;
  }

  GroupTable groups(table, group_cols, aggs.size());
  if (pred.never_matches()) {
    // The selection is provably empty without a scan.
    CAPE_RETURN_IF_ERROR(StopOrOk(stop));
  } else {
    CAPE_RETURN_IF_ERROR(GroupScan(GroupQuery{table, group_cols, plans}, pred,
                                   &groups, stop));
  }
  out->Reserve(static_cast<int64_t>(groups.size()));
  for (size_t g = 0; g < groups.size(); ++g) {
    out_row.clear();
    for (size_t k = 0; k < group_cols.size(); ++k) out_row.push_back(groups.KeyValue(g, k));
    for (size_t a = 0; a < aggs.size(); ++a) {
      out_row.push_back(
          FinalizeAggState(table, aggs[a], groups.states(g)[a]));
    }
    CAPE_RETURN_IF_ERROR(out->AppendRow(out_row));
  }
  return out;
}

}  // namespace cape
