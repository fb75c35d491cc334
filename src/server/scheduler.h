#ifndef CAPE_SERVER_SCHEDULER_H_
#define CAPE_SERVER_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "common/annotations.h"
#include "common/mutex.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "relational/catalog.h"
#include "server/admission.h"
#include "server/protocol.h"

/// The serving core (DESIGN.md §13): turns parsed Requests into Responses
/// on a shared ThreadPool, with admission control in front, per-request
/// deadlines through the engine's cooperative-stop plumbing, a degradation
/// tier under pressure, and drain-based shutdown behind.
///
/// The invariant everything here defends: every Submit() ends in exactly one
/// callback invocation, whatever happens in between — rejection, shedding,
/// deadline truncation, execution error, injected fault, or shutdown.

namespace cape::server {

struct SchedulerConfig {
  AdmissionConfig admission;

  /// Deadline applied when the request does not carry one; requests may ask
  /// for less but are clamped to max_deadline_ms.
  int64_t default_deadline_ms = 2000;
  int64_t max_deadline_ms = 60000;

  /// top_k when neither the request header nor the statement names one.
  int top_k = 10;

  /// Degradation tier: once the backlog reaches this depth, requests are
  /// answered with top_k capped to `degraded_top_k` (outcome "degraded") —
  /// cheaper answers drain the queue faster than full ones. <= 0 disables.
  int degrade_queue_depth = 0;
  int degraded_top_k = 3;
};

class RequestScheduler {
 public:
  /// Cumulative terminal-outcome counters; `submitted` equals the sum of the
  /// outcome counters once the scheduler is idle.
  struct Stats {
    int64_t submitted = 0;
    int64_t ok = 0;
    int64_t degraded = 0;
    int64_t truncated = 0;
    int64_t shed = 0;
    int64_t overloaded = 0;
    int64_t retry_after = 0;
    int64_t errors = 0;
    int64_t peak_queued = 0;
  };

  using ResponseCallback = std::function<void(const Response&)>;

  /// `engine` must have patterns mined/loaded and stay immutable (only its
  /// const, re-entrant surface is used); `catalog` names the tables SQL
  /// statements may reference; `pool` runs the requests. Neither engine nor
  /// pool is owned; both must outlive the scheduler.
  ///
  /// `mutable_engine`, when non-null, must point at the same engine and
  /// enables the APPEND verb ("APPEND <csv-rows>", ';' separating rows):
  /// rows are appended and the grown table re-mined via
  /// Engine::AppendAndRemine. Appends run under a write-preferring gate that
  /// excludes every concurrent Execute (the engine's mutating surface is not
  /// re-entrant); readers admitted after the append observe the grown table
  /// and the upgraded pattern set. A null mutable_engine keeps the server
  /// read-only: APPEND answers with a structured error.
  RequestScheduler(const Engine* engine, Catalog catalog, ThreadPool* pool,
                   SchedulerConfig config, Engine* mutable_engine = nullptr);

  /// Drains (Shutdown) before destruction.
  ~RequestScheduler();

  RequestScheduler(const RequestScheduler&) = delete;
  RequestScheduler& operator=(const RequestScheduler&) = delete;

  /// Never blocks. Either rejects synchronously (callback runs on the
  /// calling thread before Submit returns) or enqueues, in which case the
  /// callback runs exactly once later on a pool worker. Callbacks must be
  /// thread-safe against other responses and must not block for long — they
  /// run on serving threads.
  void Submit(Request request, ResponseCallback done) CAPE_EXCLUDES(mu_);

  /// Stops admitting (new Submits reject OVERLOADED), waits for every
  /// in-flight request to reach its terminal callback, and returns.
  /// Idempotent. Must not be called from a pool worker.
  void Shutdown() CAPE_EXCLUDES(mu_);

  Stats stats() const CAPE_EXCLUDES(mu_);
  int queue_depth() const CAPE_EXCLUDES(mu_);

  /// Test hook, run on the worker just before a request executes (after the
  /// shed check). Lets tests hold requests in the executing state to fill
  /// the queue deterministically. Not for production use.
  void SetExecutionHookForTest(std::function<void()> hook) CAPE_EXCLUDES(mu_);

 private:
  struct Pending {
    Request request;
    ResponseCallback done;
    Deadline deadline;
    int64_t enqueue_ns = 0;
    int64_t deadline_budget_ms = 0;
  };

  /// Pops and fully serves one queued request (pool task body).
  void RunOne() CAPE_EXCLUDES(mu_);

  /// Executes the statement of `pending`; an EXPLAIN opens its own
  /// ExplainSession on the engine's shared γ memo. Returns the terminal
  /// response (never throws; all errors become Outcome::kError).
  Response Execute(const Pending& pending, bool degraded);

  /// Serves one APPEND statement (caller holds the write gate). Parses the
  /// CSV payload against the engine schema, appends all-or-nothing, and
  /// re-mines. kOk carries the appended, total and pattern counts; a
  /// deadline/cancel stop maps to kTruncated (rows appended, patterns stale
  /// until the next complete re-mine).
  Response ExecuteAppend(const Pending& pending);

  /// Reader/writer gate between Execute (shared) and ExecuteAppend
  /// (exclusive). Write-preferring: a waiting append blocks new readers so a
  /// steady SELECT stream cannot starve it. Sessions live only inside
  /// Execute, under the read side, so none outlives an append.
  void AcquireReadGate() CAPE_EXCLUDES(mu_);
  void ReleaseReadGate() CAPE_EXCLUDES(mu_);
  void AcquireWriteGate() CAPE_EXCLUDES(mu_);
  void ReleaseWriteGate() CAPE_EXCLUDES(mu_);

  /// Delivers `response`, debits admission, bumps counters. The single
  /// terminal path for admitted requests.
  void Finish(Pending* pending, Response response) CAPE_EXCLUDES(mu_);

  void CountOutcome(Outcome outcome) CAPE_EXCLUDES(mu_);

  const Engine* const engine_;
  Engine* const mutable_engine_;
  const Catalog catalog_;
  ThreadPool* const pool_;
  const SchedulerConfig config_;
  AdmissionController admission_;

  mutable Mutex mu_;
  CondVar drain_cv_;
  CondVar gate_cv_;
  int active_readers_ CAPE_GUARDED_BY(mu_) = 0;
  int writers_waiting_ CAPE_GUARDED_BY(mu_) = 0;
  bool writer_active_ CAPE_GUARDED_BY(mu_) = false;
  std::deque<Pending> queue_ CAPE_GUARDED_BY(mu_);
  int inflight_ CAPE_GUARDED_BY(mu_) = 0;
  bool draining_ CAPE_GUARDED_BY(mu_) = false;
  Stats stats_ CAPE_GUARDED_BY(mu_);
  std::function<void()> execution_hook_ CAPE_GUARDED_BY(mu_);
};

}  // namespace cape::server

#endif  // CAPE_SERVER_SCHEDULER_H_
