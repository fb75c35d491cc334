#ifndef CAPE_CORE_ENGINE_H_
#define CAPE_CORE_ENGINE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "common/result.h"
#include "core/pattern_cache.h"
#include "explain/baseline.h"
#include "pattern/incremental.h"
#include "explain/explain_session.h"
#include "explain/explainer.h"
#include "pattern/mining.h"
#include "relational/csv.h"
#include "relational/table.h"

namespace cape {

/// Per-request observability: what the engine did for the most recent load,
/// mining, and explanation calls (wall time per stage, rows scanned,
/// pruning counters, and whether the stage was cut short by a deadline or
/// cancellation).
struct RunStats {
  // Load stage (FromCsvFile).
  int64_t rows_loaded = 0;
  int64_t rows_quarantined = 0;

  // Mining stage (last MinePatterns call). mine_ns is wall time; mine_cpu_ns
  // is work summed across pool workers (their ratio is the effective mining
  // parallelism; equal when num_threads == 1 up to timer overhead).
  int64_t mine_ns = 0;
  int64_t mine_cpu_ns = 0;
  int64_t mine_rows_scanned = 0;
  int64_t mine_candidates = 0;
  int64_t mine_candidates_skipped_fd = 0;
  int64_t patterns_mined = 0;
  bool mine_truncated = false;
  StopReason mine_stop_reason = StopReason::kNone;

  // Explain stage (last Explain call). Wall vs. summed-CPU split as above.
  int64_t explain_ns = 0;
  int64_t explain_cpu_ns = 0;
  int64_t explain_pairs_considered = 0;
  int64_t explain_pairs_pruned = 0;
  int64_t explain_tuples_checked = 0;
  bool explain_partial = false;
  StopReason explain_stop_reason = StopReason::kNone;
  std::string explain_stopped_stage;

  // Pattern cache (cumulative over this engine's MinePatterns/LoadPatterns
  // calls; zero when no cache is attached). A warm-cache MinePatterns run
  // reports cache_hits == 1 with mine_ns == 0: zero mining work was done.
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_evictions = 0;

  // Incremental maintenance counters (cumulative over this engine's
  // AppendAndRemine calls; all zero otherwise — DESIGN.md §16).
  // `maint_patterns_revalidated` counts (fragment, candidate) combinations
  // re-fitted because an append touched their group keys;
  // `maint_patterns_retained` counts local patterns carried into the new set
  // verbatim, without any re-fit — the incremental win.
  // `maint_full_remines` counts calls that fell back to a from-scratch mine
  // (unsupported config, NaN data, or an injected/real maintenance fault).
  int64_t maint_appends = 0;
  int64_t maint_rows_appended = 0;
  int64_t maint_patterns_revalidated = 0;
  int64_t maint_patterns_retained = 0;
  int64_t maint_full_remines = 0;

  // Serving counters (cumulative, bumped by the request scheduler when this
  // engine backs a server — DESIGN.md §13; zero otherwise). `serve_requests`
  // counts admitted requests; `serve_rejected` structured admission
  // rejections (OVERLOADED / RETRY_AFTER); `serve_shed` admitted requests
  // dropped before execution because their deadline had already expired;
  // `serve_deadline_truncated` requests answered with a deadline-truncated
  // (partial but subset-consistent) result.
  int64_t serve_requests = 0;
  int64_t serve_rejected = 0;
  int64_t serve_shed = 0;
  int64_t serve_deadline_truncated = 0;

  // Paged-storage counters (snapshot of the table's PageSource cache at
  // run_stats() time; all zero for fully in-memory tables — DESIGN.md §15).
  // page_misses is the page-fault count: pins that had to read from disk.
  int64_t page_hits = 0;
  int64_t page_misses = 0;
  int64_t page_evictions = 0;
  int64_t page_bytes_read = 0;
  int64_t page_bytes_pinned = 0;
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
/// surface is re-entrant. Any number of threads may call Explain(),
/// ExplainBaseline(), MakeQuestion(), MakeExplainSession(), run_stats(), and
/// the accessors concurrently; observability is recorded under an internal
/// stats mutex (last-writer-wins for the per-request explain_* fields,
/// exact sums for the cumulative counters). The non-const surface
/// (MinePatterns, LoadPatterns, set_* and the mutable config accessors) is
/// NOT safe to run concurrently with the const surface — servers do all
/// mutation before accepting traffic (DESIGN.md §13).
class Engine {
 public:
  /// Wraps an in-memory relation. The table must validate.
  static Result<Engine> FromTable(TablePtr table);

  /// Loads a relation from a CSV file (types inferred by default). With
  /// options.quarantine_malformed set, malformed rows are skipped and
  /// counted in run_stats().rows_quarantined (and in `report` when given).
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

  /// Attaches a (possibly shared) serving cache. When set, MinePatterns
  /// first looks up (table fingerprint, mining-config digest) and serves a
  /// hit with zero mining work; untruncated results are inserted after
  /// mining. Deadline-truncated or cancelled runs are never cached — they
  /// hold a subset of the full result and would poison later requests.
  /// Non-owning; the cache must outlive the engine. nullptr detaches.
  void set_pattern_cache(PatternCache* cache) { pattern_cache_ = cache; }
  PatternCache* pattern_cache() const { return pattern_cache_; }

  /// Runs offline ARP mining with the named algorithm ("ARP-MINE" default;
  /// also NAIVE, CUBE, SHARE-GRP). Replaces any previously mined patterns.
  Status MinePatterns(const std::string& miner_name = "ARP-MINE");

  /// Appends `rows` to the relation and brings the mined pattern set up to
  /// date incrementally (DESIGN.md §16): a PatternMaintainer folds only the
  /// delta, re-validating exactly the fragments whose group keys the new
  /// rows touch, and the result is byte-identical to re-mining the grown
  /// table from scratch. Falls back to a full re-mine — counted in
  /// run_stats().maint_full_remines — when the config is not maintainable
  /// (FD optimizations), the data defeats byte-stable fragment
  /// identity (NaN), no patterns were mined yet, or maintenance itself
  /// fails. On a deadline/cancellation stop the rows stay appended, the
  /// stop Status is returned, and the maintainer remains valid at its
  /// previous fold point: the pattern set is stale but intact, and the next
  /// call catches up. All rows are validated against the schema before any
  /// is appended. Non-const like MinePatterns: callers must serialize this
  /// against the const serving surface (the server's APPEND verb does).
  Status AppendAndRemine(const std::vector<Row>& rows,
                         const std::string& miner_name = "ARP-MINE");

  /// Injects an externally mined or filtered pattern set (used by benches
  /// to vary N_P).
  void SetPatterns(PatternSet patterns) {
    patterns_ = std::make_shared<const PatternSet>(std::move(patterns));
  }

  /// Persists the mined patterns (offline phase) / restores them (online
  /// phase). SavePatterns writes the human-readable text form;
  /// SavePatternsBinary writes the binary store (with this engine's
  /// mining-config digest). LoadPatterns sniffs the format, validates the
  /// embedded schema, and — when a cache is attached and the store records
  /// a config digest — warms the cache with the loaded set.
  Status SavePatterns(const std::string& path) const;
  Status SavePatternsBinary(const std::string& path) const;
  Status LoadPatterns(const std::string& path);

  bool has_patterns() const { return patterns_ != nullptr; }
  const PatternSet& patterns() const { return *patterns_; }
  /// Shared handle to the mined set (what the cache and ExplainSession
  /// hold); nullptr before MinePatterns/SetPatterns/LoadPatterns.
  const std::shared_ptr<const PatternSet>& shared_patterns() const { return patterns_; }
  const MiningProfile& mining_profile() const { return mining_profile_; }

  /// Snapshot of the per-request statistics for the most recent
  /// load/mine/explain calls plus the cumulative cache/serving counters.
  /// Returned by value under the stats mutex, so a snapshot taken while
  /// other threads run Explain() is internally consistent (never torn).
  RunStats run_stats() const CAPE_EXCLUDES(stats_cell_->mu) {
    RunStats snapshot;
    {
      MutexLock lock(stats_cell_->mu);
      snapshot = stats_cell_->stats;
    }
    // Overlay the live page-cache counters (the PageSource keeps its own
    // thread-safe counters; snapshotting here keeps them fresh without the
    // engine having to hook every pin).
    if (table_ != nullptr && table_->page_source() != nullptr) {
      const PageSourceStats ps = table_->page_source()->stats();
      snapshot.page_hits = ps.hits;
      snapshot.page_misses = ps.misses;
      snapshot.page_evictions = ps.evictions;
      snapshot.page_bytes_read = ps.bytes_read;
      snapshot.page_bytes_pinned = ps.bytes_pinned;
    }
    return snapshot;
  }

  /// Adds to the cumulative serving counters (called by the request
  /// scheduler; each delta may be zero). Thread-safe.
  void RecordServeCounters(int64_t requests, int64_t rejected, int64_t shed,
                           int64_t deadline_truncated) const CAPE_EXCLUDES(stats_cell_->mu) {
    MutexLock lock(stats_cell_->mu);
    stats_cell_->stats.serve_requests += requests;
    stats_cell_->stats.serve_rejected += rejected;
    stats_cell_->stats.serve_shed += shed;
    stats_cell_->stats.serve_deadline_truncated += deadline_truncated;
  }

  /// Builds a validated user question against this engine's relation.
  Result<UserQuestion> MakeQuestion(const std::vector<std::string>& group_by,
                                    const std::vector<Value>& group_values, AggFunc agg,
                                    const std::string& agg_attr, Direction dir) const;

  /// Generates top-k counterbalance explanations. `optimized` selects
  /// EXPL-GEN-OPT (Section 3.5) over EXPL-GEN-NAIVE (Algorithm 1).
  /// Requires MinePatterns()/SetPatterns() to have run.
  Result<ExplainResult> Explain(const UserQuestion& question, bool optimized = true) const;

  /// Opens a batch serving session over the current pattern set: answers
  /// many questions while memoizing question-independent work (aggregated
  /// data tables, refinement adjacency). Results are byte-identical to
  /// calling Explain() per question. Requires patterns.
  Result<ExplainSession> MakeExplainSession() const;

  /// The Appendix A.2 pattern-free baseline, for comparison.
  Result<ExplainResult> ExplainBaseline(const UserQuestion& question) const;

  /// Paper-style ranked table rendering.
  std::string RenderExplanations(const std::vector<Explanation>& explanations) const;

  /// Multi-line dump of the mined pattern set.
  std::string RenderPatterns(size_t max_patterns = 50) const;

 private:
  explicit Engine(TablePtr table);

  /// The incremental path of AppendAndRemine: ensure a maintainer exists for
  /// the current config, absorb the delta, and publish the finalized set.
  Status MaintainIncrementally(uint64_t config_digest);

  /// Stats live behind a heap cell so the mutex survives Engine moves and
  /// const methods (Explain) can record observability without `mutable` on
  /// the whole struct.
  struct StatsCell {
    mutable Mutex mu;
    RunStats stats CAPE_GUARDED_BY(mu);
  };

  TablePtr table_;
  MiningConfig mining_config_;
  ExplainConfig explain_config_;
  DistanceModel distance_model_;
  std::shared_ptr<const PatternSet> patterns_;
  PatternCache* pattern_cache_ = nullptr;
  MiningProfile mining_profile_;
  /// Lazily built by AppendAndRemine; reset when the mining config digest
  /// diverges or maintenance degrades to a full re-mine.
  std::unique_ptr<PatternMaintainer> maintainer_;
  std::unique_ptr<StatsCell> stats_cell_;
};

}  // namespace cape

#endif  // CAPE_CORE_ENGINE_H_
