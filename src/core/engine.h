#ifndef CAPE_CORE_ENGINE_H_
#define CAPE_CORE_ENGINE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "explain/baseline.h"
#include "explain/explain_session.h"
#include "explain/explainer.h"
#include "pattern/mining.h"
#include "relational/csv.h"
#include "relational/table.h"

namespace cape {

/// The counter only the engine keeps: whether the last mine was cut short.
/// Every other counter lives with the module that does the work —
/// mining_profile(), ExplainResult::profile, CsvParseReport, the table's
/// PageSource::stats() and RequestScheduler::stats() (DESIGN.md §8 maps each
/// to its STATS key).
struct RunStats {
  // The last mine installed by MinePatterns or AppendAndRemine.
  bool mine_truncated = false;
  StopReason mine_stop_reason = StopReason::kNone;
};

/// The CAPE system facade: load a relation, mine aggregate regression
/// patterns offline, then answer "why is this aggregate high/low?" questions
/// with ranked counterbalance explanations.
///
/// Typical use (see examples/quickstart.cc):
///
///   CAPE_ASSIGN_OR_RETURN(auto engine, Engine::FromCsvFile("pubs.csv"));
///   engine.mining_config().local_gof_threshold = 0.3;
///   CAPE_RETURN_IF_ERROR(engine.MinePatterns());
///   CAPE_ASSIGN_OR_RETURN(auto question,
///       engine.MakeQuestion({"author", "venue", "year"},
///                           {Value::String("AX"), Value::String("SIGKDD"),
///                            Value::Int64(2007)},
///                           AggFunc::kCount, "*", Direction::kLow));
///   CAPE_ASSIGN_OR_RETURN(auto result, engine.Explain(question));
///   std::cout << engine.RenderExplanations(result.explanations);
///
/// Concurrency contract (the serving path relies on this): once the offline
/// phase is done — configuration set, patterns mined or loaded — the const
/// surface is re-entrant and writes no engine state. Any number of threads
/// may call Explain(), ExplainBaseline(), MakeQuestion(),
/// MakeExplainSession(), run_stats(), and the accessors concurrently, and
/// the sessions may answer concurrently: they share the engine's γ memo,
/// which fills itself under its own locks. The non-const surface
/// (MinePatterns, AppendAndRemine, LoadPatterns, set_* and the mutable
/// config accessors) is NOT safe to run concurrently with the const surface
/// or with a session's Explain — servers mine before accepting traffic and
/// run APPEND under a write gate that excludes every reader (DESIGN.md §13).
class Engine {
 public:
  /// Wraps an in-memory relation. The table must validate.
  static Result<Engine> FromTable(TablePtr table);

  /// Loads a relation from a CSV file (types inferred by default). With
  /// options.quarantine_malformed set, malformed rows are skipped and
  /// counted in `report` when given.
  static Result<Engine> FromCsvFile(const std::string& path,
                                    const CsvReadOptions& options = {},
                                    CsvParseReport* report = nullptr);

  const TablePtr& table() const { return table_; }
  const Schema& schema() const { return *table_->schema(); }

  /// Mutable configuration, applied at the next MinePatterns()/Explain().
  MiningConfig& mining_config() { return mining_config_; }
  const MiningConfig& mining_config() const { return mining_config_; }
  ExplainConfig& explain_config() { return explain_config_; }
  DistanceModel& distance_model() { return distance_model_; }

  /// Sets the worker count for both offline mining and online explanation
  /// (clamped to >= 1). Results are bit-identical at any value; see
  /// DESIGN.md §9.
  void set_num_threads(int num_threads) {
    const int n = num_threads < 1 ? 1 : num_threads;
    mining_config_.num_threads = n;
    explain_config_.num_threads = n;
  }
  const DistanceModel& distance_model() const { return distance_model_; }

  /// Runs offline ARP mining with the named algorithm ("ARP-MINE" default;
  /// also NAIVE, CUBE, SHARE-GRP). Replaces any previously mined patterns.
  Status MinePatterns(const std::string& miner_name = "ARP-MINE");

  /// Appends `rows` to the relation and re-mines the grown table with the
  /// named miner (DESIGN.md §16). All rows are validated against the schema,
  /// and the miner name resolved, before any row is appended. The γ memo is
  /// replaced once rows are appended. A mine that a deadline or cancellation
  /// cuts short installs nothing: the rows stay appended, the previous
  /// pattern set stays installed, and the stop Status is returned; the next
  /// call mines all rows. Non-const like MinePatterns: callers must
  /// serialize this against the const serving surface (the server's APPEND
  /// verb does).
  Status AppendAndRemine(const std::vector<Row>& rows,
                         const std::string& miner_name = "ARP-MINE");

  /// Injects an externally mined or filtered pattern set (used by benches
  /// to vary N_P).
  void SetPatterns(PatternSet patterns) {
    patterns_ = std::make_shared<const PatternSet>(std::move(patterns));
    patterns_truncated_ = false;
  }

  /// Persists the mined patterns (offline phase) / restores them (online
  /// phase): mine once, save, and later engines over the same relation load
  /// instead of mining. SavePatterns writes the human-readable text form;
  /// SavePatternsBinary writes the binary store (with this engine's
  /// mining-config digest). LoadPatterns sniffs the format and validates the
  /// embedded schema. Neither store marks a cut-short set, so both saves
  /// refuse (InvalidArgument, leaving any file at `path` untouched) a set
  /// from a mine that a deadline or cancellation truncated: loaded, it would
  /// pass for the full set. A set installed later by a complete mine,
  /// AppendAndRemine, SetPatterns or LoadPatterns saves as usual.
  Status SavePatterns(const std::string& path) const;
  Status SavePatternsBinary(const std::string& path) const;
  Status LoadPatterns(const std::string& path);

  bool has_patterns() const { return patterns_ != nullptr; }
  const PatternSet& patterns() const { return *patterns_; }
  /// Time and counters of the last mine installed by MinePatterns or
  /// AppendAndRemine.
  const MiningProfile& mining_profile() const { return mining_profile_; }

  /// Whether the last installed mine was cut short (see RunStats for where
  /// the other counters live).
  const RunStats& run_stats() const { return run_stats_; }

  /// Builds a validated user question against this engine's relation.
  Result<UserQuestion> MakeQuestion(const std::vector<std::string>& group_by,
                                    const std::vector<Value>& group_values, AggFunc agg,
                                    const std::string& agg_attr, Direction dir) const;

  /// Generates top-k counterbalance explanations. `optimized` selects
  /// EXPL-GEN-OPT (Section 3.5) over EXPL-GEN-NAIVE (Algorithm 1).
  /// Requires MinePatterns()/SetPatterns() to have run.
  Result<ExplainResult> Explain(const UserQuestion& question, bool optimized = true) const;

  /// Opens a serving session over the current pattern set: it answers its
  /// questions from the engine's γ memo, which every session of this engine
  /// shares. Results are byte-identical to calling Explain() per question.
  /// The session answers questions over the table at its current row count
  /// only; after AppendAndRemine, open a new one. Requires patterns.
  Result<ExplainSession> MakeExplainSession() const;

  /// The Appendix A.2 pattern-free baseline, for comparison.
  Result<ExplainResult> ExplainBaseline(const UserQuestion& question) const;

  /// Paper-style ranked table rendering.
  std::string RenderExplanations(const std::vector<Explanation>& explanations) const;

  /// Multi-line dump of the mined pattern set.
  std::string RenderPatterns(size_t max_patterns = 50) const;

 private:
  explicit Engine(TablePtr table);

  /// Makes `result` the mined pattern set, with its profile and stop state.
  void Install(MiningResult result);

  /// OK when patterns_ exists and came from no truncated mine.
  Status CheckSavable() const;

  TablePtr table_;
  MiningConfig mining_config_;
  ExplainConfig explain_config_;
  DistanceModel distance_model_;
  std::shared_ptr<const PatternSet> patterns_;
  /// patterns_ came from a mine that stopped early; saving it is refused.
  bool patterns_truncated_ = false;
  MiningProfile mining_profile_;
  /// The γ memo of table_ at its current row count, handed to every
  /// session; AppendAndRemine replaces it once rows are appended.
  std::shared_ptr<explain_internal::AggDataCache> agg_memo_;
  RunStats run_stats_;
};

}  // namespace cape

#endif  // CAPE_CORE_ENGINE_H_
