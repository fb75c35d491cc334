#include "core/engine.h"

#include "common/failpoint.h"
#include "common/macros.h"
#include "pattern/pattern_io.h"
#include "relational/csv.h"

namespace cape {

Engine::Engine(TablePtr table)
    : table_(std::move(table)),
      distance_model_(DistanceModel::MakeDefault(*table_)),
      stats_cell_(std::make_unique<StatsCell>()) {}

Result<Engine> Engine::FromTable(TablePtr table) {
  if (table == nullptr) return Status::InvalidArgument("table must not be null");
  CAPE_RETURN_IF_ERROR(table->Validate());
  if (table->num_columns() > 64) {
    return Status::InvalidArgument("relations wider than 64 attributes are not supported");
  }
  return Engine(std::move(table));
}

Result<Engine> Engine::FromCsvFile(const std::string& path, const CsvReadOptions& options,
                                   CsvParseReport* report) {
  CsvParseReport local_report;
  if (report == nullptr) report = &local_report;
  CAPE_ASSIGN_OR_RETURN(TablePtr table, ReadCsvFile(path, options, report));
  CAPE_ASSIGN_OR_RETURN(Engine engine, FromTable(std::move(table)));
  {
    MutexLock lock(engine.stats_cell_->mu);
    engine.stats_cell_->stats.rows_loaded = report->num_rows_loaded;
    engine.stats_cell_->stats.rows_quarantined = report->num_rows_quarantined;
  }
  return engine;
}

Status Engine::MinePatterns(const std::string& miner_name) {
  uint64_t fingerprint = 0;
  uint64_t config_digest = 0;
  if (pattern_cache_ != nullptr) {
    fingerprint = table_->Fingerprint();
    config_digest = MiningConfigDigest(mining_config_);
    if (auto cached = pattern_cache_->Lookup(fingerprint, config_digest)) {
      // Serving-cache hit: zero mining work. mine_ns == 0 is the observable
      // contract benches and tests pin (DESIGN.md §11).
      patterns_ = std::move(cached);
      mining_profile_ = MiningProfile{};
      MutexLock lock(stats_cell_->mu);
      RunStats& stats = stats_cell_->stats;
      stats.mine_ns = 0;
      stats.mine_cpu_ns = 0;
      stats.mine_rows_scanned = 0;
      stats.mine_candidates = 0;
      stats.mine_candidates_skipped_fd = 0;
      stats.patterns_mined = static_cast<int64_t>(patterns_->size());
      stats.mine_truncated = false;
      stats.mine_stop_reason = StopReason::kNone;
      stats.cache_hits += 1;
      return Status::OK();
    }
    MutexLock lock(stats_cell_->mu);
    stats_cell_->stats.cache_misses += 1;
  }
  CAPE_ASSIGN_OR_RETURN(auto miner, MakeMinerByName(miner_name));
  CAPE_ASSIGN_OR_RETURN(MiningResult result, miner->Mine(*table_, mining_config_));
  patterns_ = std::make_shared<const PatternSet>(std::move(result.patterns));
  mining_profile_ = result.profile;
  {
    MutexLock lock(stats_cell_->mu);
    RunStats& stats = stats_cell_->stats;
    stats.mine_ns = result.profile.total_ns;
    stats.mine_cpu_ns = result.profile.cpu_ns;
    stats.mine_rows_scanned = result.profile.num_rows_scanned;
    stats.mine_candidates = result.profile.num_candidates;
    stats.mine_candidates_skipped_fd = result.profile.num_candidates_skipped_fd;
    stats.patterns_mined = static_cast<int64_t>(patterns_->size());
    stats.mine_truncated = result.truncated;
    stats.mine_stop_reason = result.stop_reason;
  }
  // Truncated results hold a subset of the full pattern set; caching one
  // would serve incomplete explanations to every later request. Cache
  // admission itself is best-effort: a fault here (simulated concurrent
  // eviction / admission race) keeps the freshly mined result and simply
  // leaves the cache cold — the request still succeeds.
  if (pattern_cache_ != nullptr && !result.truncated &&
      !CAPE_FAILPOINT_FIRES("engine.cache_admit")) {
    const int64_t evictions =
        pattern_cache_->Insert(fingerprint, config_digest, patterns_, table_->schema());
    MutexLock lock(stats_cell_->mu);
    stats_cell_->stats.cache_evictions += evictions;
  }
  return Status::OK();
}

Status Engine::AppendAndRemine(const std::vector<Row>& rows,
                               const std::string& miner_name) {
  // All-or-nothing: every row must validate before any is appended.
  for (const Row& row : rows) CAPE_RETURN_IF_ERROR(table_->ValidateRow(row));
  const uint64_t config_digest = MiningConfigDigest(mining_config_);
  const bool use_cache = pattern_cache_ != nullptr;
  uint64_t old_fingerprint = 0;
  // O(delta) thanks to the table's incremental fingerprint chain — this is
  // the pre-append key the cache entry currently lives under.
  if (use_cache) old_fingerprint = table_->Fingerprint();
  for (const Row& row : rows) CAPE_RETURN_IF_ERROR(table_->AppendRow(row));
  {
    MutexLock lock(stats_cell_->mu);
    stats_cell_->stats.maint_appends += 1;
    stats_cell_->stats.maint_rows_appended += static_cast<int64_t>(rows.size());
  }

  Status incremental = patterns_ == nullptr
                           ? Status::InvalidArgument("no prior pattern set to maintain")
                           : MaintainIncrementally(config_digest);
  if (incremental.ok()) {
    if (use_cache) {
      const int64_t evictions =
          pattern_cache_->Upgrade(old_fingerprint, table_->Fingerprint(), config_digest,
                                  patterns_, table_->schema());
      MutexLock lock(stats_cell_->mu);
      stats_cell_->stats.cache_evictions += evictions;
    }
    return Status::OK();
  }
  // Deadline/cancellation: the rows are appended and the maintainer is still
  // valid at its previous fold point — the pattern set is stale but intact,
  // and the next AppendAndRemine catches up. Surface the stop.
  if (incremental.IsStop()) return incremental;

  // Degrade: drop maintenance state and re-mine the grown table from
  // scratch. Never silently wrong — the fallback produces exactly what a
  // cold mine of the current table produces.
  maintainer_.reset();
  if (use_cache) pattern_cache_->Erase(old_fingerprint, config_digest);
  {
    MutexLock lock(stats_cell_->mu);
    stats_cell_->stats.maint_full_remines += 1;
  }
  return MinePatterns(miner_name);
}

Status Engine::MaintainIncrementally(uint64_t config_digest) {
  StopToken stop = mining_config_.MakeStopToken();
  int64_t revalidated_before = 0;
  int64_t added_before = 0;
  int64_t replaced_before = 0;
  if (maintainer_ != nullptr && maintainer_->config_digest() == config_digest) {
    const MaintenanceStats& before = maintainer_->stats();
    revalidated_before = before.candidates_revalidated;
    added_before = before.locals_added;
    replaced_before = before.locals_replaced;
    CAPE_RETURN_IF_ERROR(maintainer_->Absorb(&stop));
  } else {
    maintainer_.reset();
    CAPE_ASSIGN_OR_RETURN(maintainer_,
                          PatternMaintainer::Build(table_, mining_config_, &stop));
  }
  patterns_ = std::make_shared<const PatternSet>(maintainer_->Finalize());

  const MaintenanceStats& after = maintainer_->stats();
  const int64_t revalidated = after.candidates_revalidated - revalidated_before;
  const int64_t touched_locals = (after.locals_added - added_before) +
                                 (after.locals_replaced - replaced_before);
  int64_t retained = patterns_->NumLocalPatterns() - touched_locals;
  if (retained < 0) retained = 0;
  MutexLock lock(stats_cell_->mu);
  RunStats& stats = stats_cell_->stats;
  stats.maint_patterns_revalidated += revalidated;
  stats.maint_patterns_retained += retained;
  stats.patterns_mined = static_cast<int64_t>(patterns_->size());
  return Status::OK();
}

Status Engine::SavePatterns(const std::string& path) const {
  if (patterns_ == nullptr) {
    return Status::InvalidArgument("no patterns mined; call MinePatterns() first");
  }
  return SavePatternSet(*patterns_, schema(), path);
}

Status Engine::SavePatternsBinary(const std::string& path) const {
  if (patterns_ == nullptr) {
    return Status::InvalidArgument("no patterns mined; call MinePatterns() first");
  }
  return SavePatternSetBinary(*patterns_, schema(), path,
                              MiningConfigDigest(mining_config_));
}

Status Engine::LoadPatterns(const std::string& path) {
  PatternStoreMeta meta;
  CAPE_ASSIGN_OR_RETURN(PatternSet loaded, LoadPatternSet(path, schema(), &meta));
  patterns_ = std::make_shared<const PatternSet>(std::move(loaded));
  // A binary store records which mining config produced it; use that to
  // warm the serving cache so later MinePatterns calls hit without mining.
  if (pattern_cache_ != nullptr && meta.format_version == kPatternStoreFormatVersion &&
      meta.mining_config_digest != 0) {
    pattern_cache_->Insert(table_->Fingerprint(), meta.mining_config_digest, patterns_,
                           table_->schema());
  }
  return Status::OK();
}

Result<UserQuestion> Engine::MakeQuestion(const std::vector<std::string>& group_by,
                                          const std::vector<Value>& group_values,
                                          AggFunc agg, const std::string& agg_attr,
                                          Direction dir) const {
  return MakeUserQuestion(table_, group_by, group_values, agg, agg_attr, dir);
}

Result<ExplainResult> Engine::Explain(const UserQuestion& question, bool optimized) const {
  if (patterns_ == nullptr) {
    return Status::InvalidArgument("no patterns mined; call MinePatterns() first");
  }
  auto generator = optimized ? MakeOptimizedExplainer() : MakeNaiveExplainer();
  CAPE_ASSIGN_OR_RETURN(
      ExplainResult result,
      generator->Explain(question, *patterns_, distance_model_, explain_config_));
  {
    MutexLock lock(stats_cell_->mu);
    RunStats& stats = stats_cell_->stats;
    stats.explain_ns = result.profile.total_ns;
    stats.explain_cpu_ns = result.profile.cpu_ns;
    stats.explain_pairs_considered = result.profile.num_refinement_pairs;
    stats.explain_pairs_pruned = result.profile.num_pairs_pruned;
    stats.explain_tuples_checked = result.profile.num_tuples_checked;
    stats.explain_partial = result.partial;
    stats.explain_stop_reason = result.stop_reason;
    stats.explain_stopped_stage = result.stopped_stage;
  }
  return result;
}

Result<ExplainResult> Engine::ExplainBaseline(const UserQuestion& question) const {
  return BaselineExplain(question, distance_model_, explain_config_);
}

std::string Engine::RenderExplanations(const std::vector<Explanation>& explanations) const {
  return RenderExplanationTable(explanations, schema());
}

Result<ExplainSession> Engine::MakeExplainSession() const {
  if (patterns_ == nullptr) {
    return Status::InvalidArgument("no patterns mined; call MinePatterns() first");
  }
  return ExplainSession(patterns_, distance_model_, explain_config_);
}

std::string Engine::RenderPatterns(size_t max_patterns) const {
  if (patterns_ == nullptr) return "(no patterns mined)\n";
  return patterns_->ToString(schema(), max_patterns);
}

}  // namespace cape
