#include "pattern/incremental.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <iterator>
#include <optional>
#include <string>
#include <utility>

#include "common/failpoint.h"
#include "common/macros.h"
#include "pattern/mining_internal.h"
#include "relational/operators.h"

namespace cape {

namespace {

using mining_internal::CandidateMap;
using mining_internal::CandidateStats;

/// Appends an exact-byte encoding of base-table cell (row, col) such that
/// two cells of the same column encode equal iff their Values compare equal
/// (the equality SortTable's fragment boundaries use). Within a column all
/// non-null values share one type, so: int64 payloads are exact bytes,
/// doubles canonicalize -0.0 to +0.0 (NaN is excluded upstream), and strings
/// are length-prefixed content. A leading flag byte separates NULL from
/// everything else.
void AppendCellKey(const Table& table, int64_t row, int col, std::string* key) {
  const Column& c = table.column(col);
  if (c.IsNull(row)) {
    key->push_back('\0');
    return;
  }
  key->push_back('\1');
  auto append_u64 = [key](uint64_t bits) {
    for (int i = 0; i < 8; ++i) {
      key->push_back(static_cast<char>((bits >> (8 * i)) & 0xFF));
    }
  };
  switch (c.type()) {
    case DataType::kInt64:
      append_u64(static_cast<uint64_t>(c.GetInt64(row)));
      break;
    case DataType::kDouble: {
      double v = c.GetDouble(row);
      if (v == 0.0) v = 0.0;  // -0.0 and +0.0 compare equal; one key
      uint64_t bits;
      std::memcpy(&bits, &v, sizeof(bits));
      append_u64(bits);
      break;
    }
    case DataType::kString: {
      const std::string& s = c.GetString(row);
      const uint32_t len = static_cast<uint32_t>(s.size());
      for (int i = 0; i < 4; ++i) {
        key->push_back(static_cast<char>((len >> (8 * i)) & 0xFF));
      }
      key->append(s);
      break;
    }
  }
}

/// One (agg, model) candidate of a split, with its surviving local patterns
/// keyed by the split's fragment byte-key.
struct CandidateSlot {
  size_t agg_idx = 0;  // into GroupSetState::agg_candidates
  Pattern pattern;
  std::map<std::string, LocalPattern> locals;
};

/// One (F, V) split of an attribute set G. `buckets` partitions the G-group
/// ids by fragment key, each bucket stored in the split's cell order — V
/// values ascending under Value ordering, group id (= discovery order) as
/// the stable tie-break — which is exactly the fragment row order
/// EvaluateSplit sees after SortTable.
struct SplitState {
  std::vector<int> f_base;  // base attr indices, ascending
  std::vector<int> v_base;
  AttrSet f_attrs;
  AttrSet v_attrs;
  bool v_all_numeric = false;
  std::vector<bool> v_is_numeric;  // parallel to v_base
  std::unordered_map<std::string, std::vector<int64_t>> buckets;
  int64_t num_supported = 0;  // buckets at/above the local support threshold
  std::vector<CandidateSlot> candidates;
};

/// Everything maintained for one attribute set G: the incrementally folded
/// group table plus every allowed split of G.
struct GroupSetState {
  std::vector<int> g_attrs;
  std::vector<std::pair<AggFunc, int>> agg_candidates;
  std::unique_ptr<IncrementalGroupBy> groups;
  std::vector<SplitState> splits;
};

/// Result of re-validating one dirty fragment, staged until the commit
/// barrier. `locals` is parallel to the split's candidates; nullopt means
/// the candidate no longer (or still does not) hold on this fragment.
struct FragmentDelta {
  SplitState* split = nullptr;
  std::string key;
  std::vector<int64_t> new_ids;  // ascending, all >= pre-fold group count
  std::vector<int64_t> merged;   // full bucket in cell order; empty = unchanged
  std::vector<std::optional<LocalPattern>> locals;
};

}  // namespace

struct PatternMaintainer::Rep {
  TablePtr table;
  MiningConfig config;
  uint64_t config_digest = 0;
  std::vector<int> nan_guard_cols;  // eligible double columns
  std::vector<int> numeric_cols;    // for MaintenanceStats::column_stats
  std::vector<GroupSetState> group_sets;
  int64_t rows_folded = 0;
  MaintenanceStats stats;

  void DiscardAllFolds() {
    for (GroupSetState& gs : group_sets) gs.groups->DiscardFold();
  }

  /// Buffers reused across every RefitFragment call of one staged delta.
  struct RefitScratch {
    CandidateMap fits;
    std::vector<double> y;        // per-cell aggregate values (one agg pass)
    std::vector<uint8_t> valid;   // parallel non-NULL flags
  };

  Status RefitFragment(const GroupSetState& gs, const SplitState& split,
                       const std::vector<int64_t>& new_ids, const std::string& key,
                       std::vector<std::optional<LocalPattern>>* out,
                       std::vector<int64_t>* merged_out, MiningProfile* scratch_profile,
                       RefitScratch* scratch) const;
  Status StageDelta(int64_t end_row, StopToken* stop, std::vector<FragmentDelta>* pending);
};

/// Rebuilds one fragment's regression inputs exactly as EvaluateSplit would
/// see them in the sorted aggregated table, and re-runs FitFragmentCandidate
/// per candidate. Cells order by (V values under Value ordering, then group
/// id): SortTable is stable and aggregated rows appear in group discovery
/// order, so the id tie-break reproduces its row order byte-for-byte.
/// Committed buckets already store that order, so only the staged-new
/// groups sort and merge in; a fragment dirtied by existing groups alone
/// reuses the stored order untouched. `merged_out` receives the full
/// post-fold bucket when new ids exist (the commit barrier moves it into
/// the bucket) and stays empty otherwise.
Status PatternMaintainer::Rep::RefitFragment(
    const GroupSetState& gs, const SplitState& split, const std::vector<int64_t>& new_ids,
    const std::string& key, std::vector<std::optional<LocalPattern>>* out,
    std::vector<int64_t>* merged_out, MiningProfile* scratch_profile,
    RefitScratch* scratch) const {
  const Table& base = *table;
  const IncrementalGroupBy& groups = *gs.groups;
  const size_t nv = split.v_base.size();

  // Cell comparator reading base-table cells directly: within a column all
  // non-null values share one type, so these typed compares agree exactly
  // with Value::Compare (NaN is excluded by the Absorb guard).
  auto cell_less = [&](int64_t ga, int64_t gb) {
    const int64_t ra = groups.RepresentativeRow(ga);
    const int64_t rb = groups.RepresentativeRow(gb);
    for (size_t v = 0; v < nv; ++v) {
      const Column& c = base.column(split.v_base[v]);
      const bool null_a = c.IsNull(ra);
      const bool null_b = c.IsNull(rb);
      if (null_a || null_b) {
        if (null_a != null_b) return null_a;  // NULL < non-NULL
        continue;                             // NULL == NULL
      }
      switch (c.type()) {
        case DataType::kInt64: {
          const int64_t a = c.GetInt64(ra);
          const int64_t b = c.GetInt64(rb);
          if (a != b) return a < b;
          break;
        }
        case DataType::kDouble: {
          const double a = c.GetDouble(ra);
          const double b = c.GetDouble(rb);
          if (a < b) return true;
          if (b < a) return false;
          break;
        }
        case DataType::kString: {
          const int cmp = c.GetString(ra).compare(c.GetString(rb));
          if (cmp != 0) return cmp < 0;
          break;
        }
      }
    }
    return ga < gb;
  };

  auto bucket_it = split.buckets.find(key);
  const std::vector<int64_t>* cells =
      bucket_it != split.buckets.end() ? &bucket_it->second : nullptr;
  if (!new_ids.empty()) {
    std::vector<int64_t> sorted_new = new_ids;
    std::sort(sorted_new.begin(), sorted_new.end(), cell_less);
    if (cells == nullptr) {
      *merged_out = std::move(sorted_new);
    } else {
      merged_out->reserve(cells->size() + sorted_new.size());
      std::merge(cells->begin(), cells->end(), sorted_new.begin(), sorted_new.end(),
                 std::back_inserter(*merged_out), cell_less);
    }
    cells = merged_out;
  }

  // Below the local support threshold no candidate can hold (and support
  // only grows, so none held before either): FitFragmentCandidate would
  // early-return before fitting, and Finalize() recomputes the fragment and
  // support counters from bucket sizes. Skip the whole per-cell rebuild and
  // report "no local" for every candidate — tiny fragments dominate the
  // fragment count on high-cardinality splits, so this skip carries most of
  // the incremental-vs-scratch speedup.
  if (static_cast<int64_t>(cells->size()) < config.local_support_threshold) {
    out->assign(split.candidates.size(), std::nullopt);
    return Status::OK();
  }

  // The fragment row reads the first sorted cell's representative base row —
  // the same cell EvaluateSplit's `data.GetValue(begin, c)` resolves to.
  Row fragment;
  fragment.reserve(split.f_base.size());
  const int64_t first_rep = groups.RepresentativeRow(cells->front());
  for (int fc : split.f_base) fragment.push_back(base.GetValue(first_rep, fc));

  // Constant models never read their predictor row (Predict ignores it), so
  // the X matrix is only materialized when a non-const candidate will
  // consume it; const-only splits carry empty placeholder rows instead.
  bool need_x = false;
  // analyzer:allow-next-line(cancellation) slots are schema-bounded (agg x model)
  for (const CandidateSlot& slot : split.candidates) {
    if (slot.pattern.model != ModelType::kConst) need_x = true;
  }

  const size_t naggs = gs.agg_candidates.size();
  std::vector<std::vector<double>> ys(naggs);
  std::vector<std::vector<std::vector<double>>> x_per_agg(naggs);
  for (size_t a = 0; a < naggs; ++a) {
    ys[a].reserve(cells->size());
    x_per_agg[a].reserve(cells->size());
  }
  const size_t ncells = cells->size();
  std::vector<double> x(nv, 0.0);
  const std::vector<double> no_x;
  scratch->y.resize(ncells);
  scratch->valid.resize(ncells);
  for (size_t a = 0; a < naggs; ++a) {
    groups.AggregateNumericBatch(cells->data(), ncells, a, scratch->y.data(),
                                 scratch->valid.data());
    for (size_t i = 0; i < ncells; ++i) {
      if (!scratch->valid[i]) continue;  // NULL aggregate
      if (need_x) {
        const int64_t rep_row = groups.RepresentativeRow((*cells)[i]);
        for (size_t v = 0; v < nv; ++v) {
          x[v] = split.v_is_numeric[v]
                     ? base.column(split.v_base[v]).GetNumeric(rep_row)
                     : 0.0;
        }
      }
      ys[a].push_back(scratch->y[i]);
      x_per_agg[a].push_back(need_x ? x : no_x);
    }
  }

  const int64_t support = static_cast<int64_t>(cells->size());
  out->reserve(split.candidates.size());
  // analyzer:allow-next-line(cancellation) slots are schema-bounded (agg x model)
  for (const CandidateSlot& slot : split.candidates) {
    CandidateMap& fits = scratch->fits;
    fits.clear();  // keeps its bucket array across slots and deltas
    mining_internal::FitFragmentCandidate(fragment, x_per_agg[slot.agg_idx],
                                          ys[slot.agg_idx], support, slot.pattern.model,
                                          slot.pattern, config, scratch_profile, &fits);
    std::optional<LocalPattern> local;
    auto it = fits.find(slot.pattern);
    if (it != fits.end() && !it->second.locals.empty()) {
      local.emplace(std::move(it->second.locals.front()));
    }
    out->push_back(std::move(local));
  }
  return Status::OK();
}

/// Phases A and B of Absorb: stage the group-table folds, then re-validate
/// every fragment whose key a touched group maps to. Leaves all folds staged
/// for the caller to commit or discard; touches no committed state.
Status PatternMaintainer::Rep::StageDelta(int64_t end_row, StopToken* stop,
                                          std::vector<FragmentDelta>* pending) {
  for (GroupSetState& gs : group_sets) {
    CAPE_RETURN_IF_ERROR(gs.groups->PrepareFold(end_row, stop));
  }

  MiningProfile scratch_profile;  // FitFragmentCandidate's timers; discarded
  RefitScratch refit_scratch;     // reused across every re-fit this delta
  // Cell-key segments of the touched groups' representative rows, rebuilt
  // per group-set: every split's fragment key concatenates a subset of the
  // group-set's cell keys, so the base-table cells are encoded once per
  // touched group instead of once per (group, split) pair.
  std::string seg_pool;
  std::vector<size_t> seg_off;  // (ncols + 1) boundaries per touched id
  std::vector<size_t> f_pos;    // split's f_base positions within g_attrs
  std::unordered_map<std::string, std::vector<int64_t>> dirty;  // reused per split
  for (GroupSetState& gs : group_sets) {
    const int64_t committed = gs.groups->num_groups();
    const std::vector<int64_t>& touched = gs.groups->staged_touched();
    if (touched.empty()) continue;
    const size_t ncols = gs.g_attrs.size();
    seg_pool.clear();
    seg_off.clear();
    seg_off.reserve(touched.size() * (ncols + 1));
    for (int64_t id : touched) {
      const int64_t rep_row = gs.groups->RepresentativeRow(id);
      for (size_t c = 0; c < ncols; ++c) {
        seg_off.push_back(seg_pool.size());
        AppendCellKey(*table, rep_row, gs.g_attrs[c], &seg_pool);
      }
      seg_off.push_back(seg_pool.size());
    }
    for (SplitState& split : gs.splits) {
      f_pos.clear();
      for (int fc : split.f_base) {
        f_pos.push_back(static_cast<size_t>(
            std::find(gs.g_attrs.begin(), gs.g_attrs.end(), fc) - gs.g_attrs.begin()));
      }
      // Touched groups, partitioned by this split's fragment key. New ids
      // arrive in first-touch order (ascending), committed dirty groups mark
      // their fragment with an (empty) entry. Map order is irrelevant: every
      // delta is independent and commits by fragment key.
      dirty.clear();  // bucket array survives, sized by earlier splits
      dirty.reserve(touched.size());
      std::string key;
      for (size_t i = 0; i < touched.size(); ++i) {
        key.clear();
        const size_t base = i * (ncols + 1);
        for (size_t p : f_pos) {
          key.append(seg_pool.data() + seg_off[base + p],
                     seg_off[base + p + 1] - seg_off[base + p]);
        }
        auto [it, inserted] = dirty.try_emplace(key);
        (void)inserted;
        if (touched[i] >= committed) it->second.push_back(touched[i]);
      }
      // analyzer:allow-next-line(unordered-iteration) deltas commit by key
      for (auto& [fkey, new_ids] : dirty) {
        CAPE_RETURN_IF_STOPPED_BLOCK(stop);
        FragmentDelta delta;
        delta.split = &split;
        delta.key = fkey;
        delta.new_ids = std::move(new_ids);
        CAPE_RETURN_IF_ERROR(RefitFragment(gs, split, delta.new_ids, delta.key,
                                           &delta.locals, &delta.merged,
                                           &scratch_profile, &refit_scratch));
        pending->push_back(std::move(delta));
      }
    }
  }
  return Status::OK();
}

PatternMaintainer::PatternMaintainer(std::unique_ptr<Rep> rep) : rep_(std::move(rep)) {}
PatternMaintainer::~PatternMaintainer() = default;

int64_t PatternMaintainer::rows_folded() const { return rep_->rows_folded; }
uint64_t PatternMaintainer::config_digest() const { return rep_->config_digest; }
const MaintenanceStats& PatternMaintainer::stats() const { return rep_->stats; }

Result<std::unique_ptr<PatternMaintainer>> PatternMaintainer::Build(
    TablePtr table, const MiningConfig& config, StopToken* stop) {
  if (table == nullptr) {
    return Status::InvalidArgument("PatternMaintainer requires a table");
  }
  if (!table->rows_resident()) {
    return Status::NotImplemented(
        "incremental maintenance requires resident rows; paged tables re-mine from "
        "scratch");
  }
  if (config.use_fd_optimizations) {
    return Status::NotImplemented(
        "incremental maintenance with FD optimizations is not supported: FD-based "
        "skips change the candidate space as data grows");
  }

  auto rep = std::make_unique<Rep>();
  rep->table = table;
  rep->config = config;
  rep->config_digest = MiningConfigDigest(config);
  const Schema& schema = *table->schema();
  const AttrSet allowed = mining_internal::AllowedAttrs(schema, config);
  for (int a : allowed.ToIndices()) {
    if (schema.field(a).type == DataType::kDouble) rep->nan_guard_cols.push_back(a);
  }
  for (int c = 0; c < schema.num_fields(); ++c) {
    if (IsNumericType(schema.field(c).type)) rep->numeric_cols.push_back(c);
  }
  rep->stats.column_stats.resize(static_cast<size_t>(schema.num_fields()));

  CAPE_ASSIGN_OR_RETURN(const std::vector<AttrSet> group_sets,
                        mining_internal::EnumerateGroupSets(schema, config));
  for (AttrSet g : group_sets) {
    GroupSetState gs;
    gs.agg_candidates = mining_internal::EnumerateAggCandidates(*table, g, config);
    if (gs.agg_candidates.empty()) continue;
    gs.g_attrs = g.ToIndices();
    const int num_g = static_cast<int>(gs.g_attrs.size());

    std::vector<AggregateSpec> specs;
    specs.reserve(gs.agg_candidates.size());
    for (size_t i = 0; i < gs.agg_candidates.size(); ++i) {
      AggregateSpec spec;
      spec.func = gs.agg_candidates[i].first;
      spec.input_col = gs.agg_candidates[i].second;
      spec.output_name = "agg" + std::to_string(i);
      specs.push_back(std::move(spec));
    }
    CAPE_ASSIGN_OR_RETURN(gs.groups,
                          IncrementalGroupBy::Make(table, gs.g_attrs, std::move(specs)));

    for (uint32_t mask = 1; mask + 1 < (1u << num_g); ++mask) {
      SplitState split;
      for (int i = 0; i < num_g; ++i) {
        const int attr = gs.g_attrs[static_cast<size_t>(i)];
        if (mask & (1u << i)) {
          split.f_attrs.Add(attr);
          split.f_base.push_back(attr);
        } else {
          split.v_attrs.Add(attr);
          split.v_base.push_back(attr);
        }
      }
      if (!mining_internal::SplitAllowed(*table, split.v_attrs, config)) continue;
      split.v_all_numeric = mining_internal::AllNumeric(*table, split.v_attrs);
      split.v_is_numeric.reserve(split.v_base.size());
      for (int vc : split.v_base) {
        split.v_is_numeric.push_back(IsNumericType(schema.field(vc).type));
      }
      for (size_t a = 0; a < gs.agg_candidates.size(); ++a) {
        for (ModelType model : config.model_types) {
          if (model == ModelType::kLinear && !split.v_all_numeric) continue;
          CandidateSlot slot;
          slot.agg_idx = a;
          slot.pattern.partition_attrs = split.f_attrs;
          slot.pattern.predictor_attrs = split.v_attrs;
          slot.pattern.agg = gs.agg_candidates[a].first;
          slot.pattern.agg_attr = gs.agg_candidates[a].second;
          slot.pattern.model = model;
          split.candidates.push_back(std::move(slot));
        }
      }
      gs.splits.push_back(std::move(split));
    }
    rep->group_sets.push_back(std::move(gs));
  }

  std::unique_ptr<PatternMaintainer> maintainer(new PatternMaintainer(std::move(rep)));
  CAPE_RETURN_IF_ERROR(maintainer->Absorb(stop));
  return maintainer;
}

Status PatternMaintainer::Absorb(StopToken* stop) {
  Rep& rep = *rep_;
  const int64_t end_row = rep.table->num_rows();
  if (end_row < rep.rows_folded) {
    return Status::InvalidArgument(
        "maintained table shrank from " + std::to_string(rep.rows_folded) + " to " +
        std::to_string(end_row) + " rows; rebuild the maintainer");
  }
  if (end_row == rep.rows_folded) return Status::OK();

  // NaN in an eligible double attribute breaks byte-stable fragment identity
  // (NaN compares equal to every number under Value ordering); hand the
  // whole table back to the from-scratch path.
  for (int col : rep.nan_guard_cols) {
    const Column& c = rep.table->column(col);
    for (int64_t row = rep.rows_folded; row < end_row; ++row) {
      if ((row & (kStopCheckStride - 1)) == 0) CAPE_RETURN_IF_STOPPED_BLOCK(stop);
      if (!c.IsNull(row) && std::isnan(c.GetDouble(row))) {
        return Status::NotImplemented(
            "NaN in attribute '" + rep.table->schema()->field(col).name +
            "' row " + std::to_string(row) +
            ": incremental maintenance cannot order NaN fragments; re-mine from "
            "scratch");
      }
    }
  }

  std::vector<FragmentDelta> pending;
  Status staged = rep.StageDelta(end_row, stop, &pending);
  if (!staged.ok()) {
    rep.DiscardAllFolds();
    return staged;
  }

#ifndef CAPE_DISABLE_FAILPOINTS
  // Commit barrier: a fault injected here proves the all-or-nothing
  // contract — every staged fold is discarded, the maintainer stays at its
  // previous fold point, and the caller degrades to a full re-mine instead
  // of ever publishing a half-merged state.
  if (CAPE_PREDICT_FALSE(failpoint::AnyActive())) {
    Status injected = failpoint::Trigger("incremental.merge");
    if (!injected.ok()) {
      rep.DiscardAllFolds();
      return injected;
    }
  }
#endif

  // Commit. Nothing below allocates in a way that can fail halfway into a
  // observable state: group folds publish by move, bucket/local updates are
  // per-fragment and idempotent re Finalize().
  for (GroupSetState& gs : rep.group_sets) {
    const int64_t committed = gs.groups->num_groups();
    for (int64_t id : gs.groups->staged_touched()) {
      rep.stats.groups_touched += 1;
      if (id >= committed) rep.stats.groups_created += 1;
    }
    gs.groups->CommitFold();
  }
  for (FragmentDelta& delta : pending) {
    if (!delta.new_ids.empty()) {
      // Maintain the split's supported-fragment count as the bucket grows
      // past the threshold (support never shrinks), sparing Finalize() a
      // full scan over every bucket of every split.
      std::vector<int64_t>& bucket = delta.split->buckets[delta.key];
      const int64_t threshold = rep.config.local_support_threshold;
      if (static_cast<int64_t>(bucket.size()) < threshold &&
          static_cast<int64_t>(delta.merged.size()) >= threshold) {
        delta.split->num_supported += 1;
      }
      bucket = std::move(delta.merged);
    }
    rep.stats.fragments_refit += 1;
    for (size_t c = 0; c < delta.split->candidates.size(); ++c) {
      rep.stats.candidates_revalidated += 1;
      std::map<std::string, LocalPattern>& locals = delta.split->candidates[c].locals;
      if (delta.locals[c].has_value()) {
        auto [it, inserted] =
            locals.insert_or_assign(delta.key, std::move(*delta.locals[c]));
        (void)it;
        if (inserted) {
          rep.stats.locals_added += 1;
        } else {
          rep.stats.locals_replaced += 1;
        }
      } else if (locals.erase(delta.key) > 0) {
        rep.stats.locals_dropped += 1;
      }
    }
  }

  // Column moments: per-batch Welford accumulators folded into the lifetime
  // ones via Merge (order-independent up to rounding; descriptive.h).
  for (int col : rep.numeric_cols) {
    const Column& c = rep.table->column(col);
    RunningStats batch;
    // Past the commit barrier: a stop return here would leave buckets folded
    // but rows_folded stale, double-folding the batch on retry.
    // analyzer:allow-next-line(cancellation) all-or-nothing contract wins
    for (int64_t row = rep.rows_folded; row < end_row; ++row) {
      if (!c.IsNull(row)) batch.Add(c.GetNumeric(row));
    }
    rep.stats.column_stats[static_cast<size_t>(col)].Merge(batch);
  }
  rep.stats.batches_absorbed += 1;
  rep.stats.rows_absorbed += end_row - rep.rows_folded;
  rep.rows_folded = end_row;
  return Status::OK();
}

PatternSet PatternMaintainer::Finalize() const {
  const Rep& rep = *rep_;
  CandidateMap candidates;
  for (const GroupSetState& gs : rep.group_sets) {
    for (const SplitState& split : gs.splits) {
      if (split.buckets.empty()) continue;
      const int64_t num_fragments = static_cast<int64_t>(split.buckets.size());
      const int64_t num_supported = split.num_supported;
      // analyzer:allow-next-line(cancellation) slots are schema-bounded (agg x model)
      for (const CandidateSlot& slot : split.candidates) {
        CandidateStats stats;
        stats.pattern = slot.pattern;
        stats.num_fragments = num_fragments;
        stats.num_supported = num_supported;
        stats.num_holding = static_cast<int64_t>(slot.locals.size());
        for (const auto& [key, local] : slot.locals) {
          if (local.max_positive_dev > stats.max_positive_dev) {
            stats.max_positive_dev = local.max_positive_dev;
          }
          if (local.min_negative_dev < stats.min_negative_dev) {
            stats.min_negative_dev = local.min_negative_dev;
          }
          stats.locals.push_back(local);
        }
        candidates.emplace(slot.pattern, std::move(stats));
      }
    }
  }
  return mining_internal::FinalizePatterns(std::move(candidates), rep.config);
}

}  // namespace cape
