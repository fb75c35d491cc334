#include "core/engine.h"

#include "common/macros.h"
#include "pattern/pattern_io.h"
#include "relational/csv.h"

namespace cape {

Engine::Engine(TablePtr table)
    : table_(std::move(table)),
      distance_model_(DistanceModel::MakeDefault(*table_)),
      agg_memo_(ExplainSession::MakeMemo(table_)) {}

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
  CAPE_ASSIGN_OR_RETURN(TablePtr table, ReadCsvFile(path, options, report));
  return FromTable(std::move(table));
}

Status Engine::MinePatterns(const std::string& miner_name) {
  CAPE_ASSIGN_OR_RETURN(auto miner, MakeMinerByName(miner_name));
  CAPE_ASSIGN_OR_RETURN(MiningResult result, miner->Mine(*table_, mining_config_));
  patterns_ = std::make_shared<const PatternSet>(std::move(result.patterns));
  patterns_truncated_ = result.truncated;
  mining_profile_ = result.profile;
  run_stats_.mine_truncated = result.truncated;
  run_stats_.mine_stop_reason = result.stop_reason;
  return Status::OK();
}

Status Engine::AppendAndRemine(const std::vector<Row>& rows,
                               const std::string& miner_name) {
  // All-or-nothing: every row must validate before any is appended.
  for (const Row& row : rows) CAPE_RETURN_IF_ERROR(table_->ValidateRow(row));
  for (const Row& row : rows) CAPE_RETURN_IF_ERROR(table_->AppendRow(row));
  // The memo's γ tables miss the new rows, whatever maintenance returns
  // below: later sessions get a fresh memo, and the sessions holding the
  // old one reject every question.
  if (!rows.empty()) agg_memo_ = ExplainSession::MakeMemo(table_);
  run_stats_.maint_appends += 1;
  run_stats_.maint_rows_appended += static_cast<int64_t>(rows.size());

  Status incremental = patterns_ == nullptr
                           ? Status::InvalidArgument("no prior pattern set to maintain")
                           : MaintainIncrementally(MiningConfigDigest(mining_config_));
  if (incremental.ok()) return Status::OK();
  // Deadline/cancellation: the rows are appended and the maintainer is still
  // valid at its previous fold point — the pattern set is stale but intact,
  // and the next AppendAndRemine catches up. Surface the stop.
  if (incremental.IsStop()) return incremental;

  // Degrade: drop maintenance state and re-mine the grown table from
  // scratch. Never silently wrong — the fallback produces exactly what a
  // cold mine of the current table produces.
  maintainer_.reset();
  run_stats_.maint_full_remines += 1;
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
  patterns_truncated_ = false;

  const MaintenanceStats& after = maintainer_->stats();
  const int64_t revalidated = after.candidates_revalidated - revalidated_before;
  const int64_t touched_locals = (after.locals_added - added_before) +
                                 (after.locals_replaced - replaced_before);
  int64_t retained = patterns_->NumLocalPatterns() - touched_locals;
  if (retained < 0) retained = 0;
  run_stats_.maint_patterns_revalidated += revalidated;
  run_stats_.maint_patterns_retained += retained;
  return Status::OK();
}

Status Engine::CheckSavable() const {
  if (patterns_ == nullptr) {
    return Status::InvalidArgument("no patterns mined; call MinePatterns() first");
  }
  if (patterns_truncated_) {
    return Status::InvalidArgument(
        "the pattern set came from a mine that stopped early; a saved copy would "
        "load as the full set");
  }
  return Status::OK();
}

Status Engine::SavePatterns(const std::string& path) const {
  CAPE_RETURN_IF_ERROR(CheckSavable());
  return SavePatternSet(*patterns_, schema(), path);
}

Status Engine::SavePatternsBinary(const std::string& path) const {
  CAPE_RETURN_IF_ERROR(CheckSavable());
  return SavePatternSetBinary(*patterns_, schema(), path,
                              MiningConfigDigest(mining_config_));
}

Status Engine::LoadPatterns(const std::string& path) {
  CAPE_ASSIGN_OR_RETURN(PatternSet loaded, LoadPatternSet(path, schema()));
  SetPatterns(std::move(loaded));
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
  return generator->Explain(question, *patterns_, distance_model_, explain_config_);
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
  return ExplainSession(patterns_, distance_model_, explain_config_, agg_memo_);
}

std::string Engine::RenderPatterns(size_t max_patterns) const {
  if (patterns_ == nullptr) return "(no patterns mined)\n";
  return patterns_->ToString(schema(), max_patterns);
}

}  // namespace cape
