#ifndef CAPE_PATTERN_MINING_H_
#define CAPE_PATTERN_MINING_H_

#include <memory>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/result.h"
#include "fd/fd_set.h"
#include "pattern/pattern_set.h"
#include "relational/table.h"

namespace cape {

/// Thresholds and knobs of the ARP mining problem (Sections 2.3 and 4.1).
struct MiningConfig {
  /// psi: maximal |F ∪ V| considered (Section 4.1, "Restricting pattern
  /// size").
  int max_pattern_size = 4;
  /// theta: local model quality threshold (GoF >= theta).
  double local_gof_threshold = 0.5;
  /// delta: local support threshold (|Q_{P,f}(R)| >= delta).
  int64_t local_support_threshold = 15;
  /// lambda: global confidence threshold.
  double global_confidence_threshold = 0.5;
  /// Delta: global support threshold (|frag_good| >= Delta).
  int64_t global_support_threshold = 15;

  /// Aggregate functions to enumerate. count uses A = *; sum/min/max are
  /// enumerated over every numeric attribute outside G_P.
  std::vector<AggFunc> agg_functions = {AggFunc::kCount, AggFunc::kSum};
  /// Regression model types to enumerate. Linear candidates are skipped
  /// when any predictor attribute is non-numeric.
  std::vector<ModelType> model_types = {ModelType::kConst, ModelType::kLinear};

  /// When set (default), only splits whose predictor attributes V are all
  /// numeric/ordinal are considered, matching the reference CAPE system
  /// (regression needs an ordered predictor axis; every example pattern in
  /// the paper predicts over `year`). Disable to enumerate the full
  /// Definition 2 candidate space (constant models over categorical V).
  bool require_numeric_predictors = true;

  /// Attribute names never used in F, V, or A (e.g. near-unique ids, the
  /// preprocessing the paper applies to the Crime dataset).
  std::vector<std::string> excluded_attrs;

  /// Appendix D optimizations: skip candidates whose F is non-minimal
  /// w.r.t. discovered FDs or where F -> V; detect FDs from group counts
  /// during mining. Only honored by miners that process attribute sets in
  /// increasing size (ARP-MINE); others ignore it.
  bool use_fd_optimizations = false;
  /// FDs known up front (from keys/uniqueness constraints); the miner may
  /// add detected FDs to its own working copy.
  FdSet initial_fds;

  /// Worker threads for miners that support intra-mining parallelism,
  /// scheduled on the shared ThreadPool (DESIGN.md §9). SHARE-GRP
  /// partitions attribute sets G across workers (independent work units
  /// with disjoint candidate patterns). ARP-MINE parallelizes within each
  /// attribute-set level behind a level barrier: group queries and sort
  /// explorations fan out, while FD detection stays sequential in set
  /// order so the FDs available to any skip decision are independent of
  /// thread count. Both miners produce bit-identical pattern sets at any
  /// thread count. When parallel, the profile's per-subtask times
  /// (regression_ns/query_ns/cpu_ns) are summed across workers and may
  /// exceed total_ns (which stays wall time).
  int num_threads = 1;

  /// Request lifecycle: when deadline_ms > 0 the miner stops cooperatively
  /// after that many milliseconds of wall time and returns the patterns
  /// fully evaluated so far with MiningResult::truncated set; cancel_token
  /// allows another thread to stop the run the same way. 0 = no deadline.
  int64_t deadline_ms = 0;
  CancellationToken cancel_token;

  /// StopToken for this request (infinite when deadline_ms <= 0 and no
  /// cancellable token was provided).
  StopToken MakeStopToken() const {
    return StopToken(deadline_ms > 0 ? Deadline::AfterMillis(deadline_ms)
                                     : Deadline::Infinite(),
                     cancel_token);
  }
};

/// Digest of every MiningConfig knob that affects *which* patterns are
/// mined: thresholds, candidate-space restrictions, aggregate/model lists,
/// excluded attributes, FD optimizations, and initial FDs. Performance and
/// lifecycle knobs (num_threads, deadline_ms, cancel_token) are explicitly
/// excluded — they never change an untruncated result (DESIGN.md §9), so
/// cached pattern sets stay valid across them. Forms the second half of the
/// PatternCache key next to Table::Fingerprint.
uint64_t MiningConfigDigest(const MiningConfig& config);

/// Time attribution for Figure 4 plus counters used in tests/benches.
///
/// `total_ns` is always wall time. `cpu_ns` (and the regression_ns/query_ns
/// breakdown) is work summed across workers: with num_threads > 1 it can
/// exceed total_ns, and cpu_ns / total_ns is the effective parallelism.
struct MiningProfile {
  int64_t regression_ns = 0;  // model fitting + GoF (summed over workers)
  int64_t query_ns = 0;       // aggregation/cube/filter/sort (summed over workers)
  int64_t total_ns = 0;       // wall time (other = total - regression - query)
  int64_t cpu_ns = 0;         // all mining work summed over workers

  int64_t num_candidates = 0;          // (F,V,agg,A,M) combinations examined
  int64_t num_candidates_skipped_fd = 0;
  int64_t num_local_fits = 0;          // regression fits performed
  int64_t num_queries = 0;             // aggregation/filter queries executed
  int64_t num_sorts = 0;               // sort queries executed
  int64_t num_rows_scanned = 0;        // aggregated-data rows consumed by fit scans

  int64_t other_ns() const {
    int64_t o = total_ns - regression_ns - query_ns;
    return o < 0 ? 0 : o;
  }
};

/// Result of one mining run.
struct MiningResult {
  PatternSet patterns;
  MiningProfile profile;
  /// FDs known at the end of the run (initial + detected).
  FdSet fds;
  /// Set when the run stopped early (deadline/cancellation). `patterns` then
  /// holds only candidates whose evaluation completed before the stop — a
  /// subset of the untimed run's result, never partially-evaluated ones.
  bool truncated = false;
  StopReason stop_reason = StopReason::kNone;
};

/// Interface shared by the four mining algorithm variants of Section 5.1:
/// NAIVE, CUBE, SHARE-GRP, and ARP-MINE.
class PatternMiner {
 public:
  virtual ~PatternMiner() = default;

  /// Algorithm name as used in the paper's figures.
  virtual std::string name() const = 0;

  /// Mines all ARPs holding globally on `table` under `config`.
  virtual Result<MiningResult> Mine(const Table& table, const MiningConfig& config) = 0;
};

/// Brute-force baseline (Algorithms 3 and 4): one retrieval query per
/// fragment per candidate pattern.
std::unique_ptr<PatternMiner> MakeNaiveMiner();

/// Single CUBE query materialized once, then per-candidate select+sort
/// (Section 4.1, "Using the CUBE BY operator").
std::unique_ptr<PatternMiner> MakeCubeMiner();

/// One aggregation query per G_P shared by all candidates with that
/// attribute set; one sort per (F, V) (Section 4.1, "One query per F ∪ V").
std::unique_ptr<PatternMiner> MakeShareGrpMiner();

/// Algorithm 2: shares group-by queries and sort orders, detects FDs on the
/// fly, and honors MiningConfig::use_fd_optimizations.
std::unique_ptr<PatternMiner> MakeArpMiner();

/// All four miners keyed by paper name ("NAIVE", "CUBE", "SHARE-GRP",
/// "ARP-MINE"); NotFound for anything else.
Result<std::unique_ptr<PatternMiner>> MakeMinerByName(const std::string& name);

}  // namespace cape

#endif  // CAPE_PATTERN_MINING_H_
