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
  Install(std::move(result));
  return Status::OK();
}

Status Engine::AppendAndRemine(const std::vector<Row>& rows,
                               const std::string& miner_name) {
  // All-or-nothing: the miner and every row must validate before any row is
  // appended.
  CAPE_ASSIGN_OR_RETURN(auto miner, MakeMinerByName(miner_name));
  for (const Row& row : rows) CAPE_RETURN_IF_ERROR(table_->ValidateRow(row));
  for (const Row& row : rows) CAPE_RETURN_IF_ERROR(table_->AppendRow(row));
  // The memo's γ tables miss the new rows, whatever the mine returns below:
  // later sessions get a fresh memo, and the sessions holding the old one
  // reject every question.
  if (!rows.empty()) agg_memo_ = ExplainSession::MakeMemo(table_);
  CAPE_ASSIGN_OR_RETURN(MiningResult result, miner->Mine(*table_, mining_config_));
  // A cut-short mine holds only part of the grown table's set. The previous
  // set stays installed, stale but whole, and the next call mines all rows.
  if (result.truncated) {
    return result.stop_reason == StopReason::kCancelled
               ? Status::Cancelled("re-mine cancelled")
               : Status::DeadlineExceeded("re-mine deadline exceeded");
  }
  Install(std::move(result));
  return Status::OK();
}

void Engine::Install(MiningResult result) {
  patterns_ = std::make_shared<const PatternSet>(std::move(result.patterns));
  patterns_truncated_ = result.truncated;
  mining_profile_ = result.profile;
  run_stats_.mine_truncated = result.truncated;
  run_stats_.mine_stop_reason = result.stop_reason;
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
