#include "server/scheduler.h"

#include <chrono>
#include <exception>
#include <initializer_list>
#include <string_view>
#include <utility>

#include "common/string_util.h"
#include "relational/csv.h"
#include "sql/executor.h"
#include "sql/parser.h"

namespace cape::server {

namespace {

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Deadline::Clock::now().time_since_epoch())
      .count();
}

/// Renders `{"name":value,...}` in the order given.
std::string CountersJson(
    std::initializer_list<std::pair<std::string_view, int64_t>> counters) {
  std::string out = "{";
  for (const auto& [name, value] : counters) {
    if (out.size() > 1) out += ',';
    out += '"';
    out += name;
    out += "\":";
    out += std::to_string(value);
  }
  return out + "}";
}

/// The STATS payload, read from each counter's owner (DESIGN.md §8).
std::string StatsJson(const Engine& engine, const RequestScheduler::Stats& s) {
  const PageSource* pages = engine.table()->page_source().get();
  const PageSourceStats p = pages != nullptr ? pages->stats() : PageSourceStats{};
  const int64_t patterns =
      engine.has_patterns() ? static_cast<int64_t>(engine.patterns().size()) : 0;
  return "{\"engine\":" +
         CountersJson({{"patterns_mined", patterns}, {"page_hits", p.hits},
                       {"page_misses", p.misses}, {"page_evictions", p.evictions},
                       {"page_bytes_pinned", p.bytes_pinned}}) +
         ",\"scheduler\":" +
         CountersJson({{"submitted", s.submitted}, {"ok", s.ok}, {"degraded", s.degraded},
                       {"truncated", s.truncated}, {"shed", s.shed},
                       {"overloaded", s.overloaded}, {"retry_after", s.retry_after},
                       {"errors", s.errors}, {"peak_queued", s.peak_queued}}) +
         "}";
}

/// True when the trimmed statement starts with the APPEND verb ("append"
/// alone or followed by whitespace; the remainder is the CSV payload).
bool IsAppendStatement(std::string_view statement) {
  std::string_view s = TrimWhitespace(statement);
  if (s.size() < 6) return false;
  static constexpr std::string_view kVerb = "append";
  for (size_t i = 0; i < kVerb.size(); ++i) {
    const char c = s[i];
    const char lower = c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
    if (lower != kVerb[i]) return false;
  }
  return s.size() == 6 || s[6] == ' ' || s[6] == '\t' || s[6] == '\n' || s[6] == '\r';
}

}  // namespace

RequestScheduler::RequestScheduler(const Engine* engine, Catalog catalog, ThreadPool* pool,
                                   SchedulerConfig config, Engine* mutable_engine)
    : engine_(engine),
      mutable_engine_(mutable_engine),
      catalog_(std::move(catalog)),
      pool_(pool),
      config_(config),
      admission_(config.admission) {}

RequestScheduler::~RequestScheduler() { Shutdown(); }

void RequestScheduler::Submit(Request request, ResponseCallback done) {
  const int64_t now_ns = NowNanos();
  Response rejection;
  rejection.id = request.id;
  {
    MutexLock lock(mu_);
    ++stats_.submitted;
    if (!draining_) {
      const AdmissionDecision decision = admission_.Admit(request.tenant, now_ns);
      if (decision.kind == AdmissionDecision::Kind::kAdmit) {
        Pending pending;
        pending.deadline_budget_ms =
            request.deadline_ms > 0
                ? (request.deadline_ms < config_.max_deadline_ms ? request.deadline_ms
                                                                 : config_.max_deadline_ms)
                : config_.default_deadline_ms;
        pending.deadline = Deadline::AfterMillis(pending.deadline_budget_ms);
        pending.enqueue_ns = now_ns;
        pending.request = std::move(request);
        pending.done = std::move(done);
        queue_.push_back(std::move(pending));
        ++inflight_;
        if (static_cast<int64_t>(queue_.size()) > stats_.peak_queued) {
          stats_.peak_queued = static_cast<int64_t>(queue_.size());
        }
        pool_->Submit([this] { RunOne(); });
        return;
      }
      rejection.outcome = decision.kind == AdmissionDecision::Kind::kRetryAfter
                              ? Outcome::kRetryAfter
                              : Outcome::kOverloaded;
      if (decision.kind == AdmissionDecision::Kind::kRetryAfter) {
        rejection.retry_after_ms = decision.retry_after_ms;
      }
    } else {
      // Draining: reject instead of queueing work that would outlive the
      // server. OVERLOADED tells well-behaved clients to back off.
      rejection.outcome = Outcome::kOverloaded;
    }
    if (rejection.outcome == Outcome::kRetryAfter) {
      ++stats_.retry_after;
    } else {
      ++stats_.overloaded;
    }
  }
  done(rejection);
}

void RequestScheduler::RunOne() {
  Pending pending;
  std::function<void()> hook;
  bool degraded = false;
  {
    MutexLock lock(mu_);
    if (queue_.empty()) return;  // defensive: one task is submitted per entry
    pending = std::move(queue_.front());
    queue_.pop_front();
    hook = execution_hook_;
    degraded = config_.degrade_queue_depth > 0 &&
               static_cast<int>(queue_.size()) >= config_.degrade_queue_depth;
  }

  // Overload shedding: work whose deadline already passed while queued is
  // answered with a structured rejection instead of burning a worker on a
  // result nobody is waiting for.
  if (pending.deadline.Expired()) {
    Response response;
    response.id = pending.request.id;
    response.outcome = Outcome::kShed;
    Finish(&pending, std::move(response));
    return;
  }

  if (hook) hook();

  if (IsAppendStatement(pending.request.statement)) {
    AcquireWriteGate();
    Response response = ExecuteAppend(pending);
    ReleaseWriteGate();
    Finish(&pending, std::move(response));
    return;
  }

  AcquireReadGate();
  Response response = Execute(pending, degraded);
  ReleaseReadGate();
  Finish(&pending, std::move(response));
}

void RequestScheduler::AcquireReadGate() {
  MutexLock lock(mu_);
  while (writer_active_ || writers_waiting_ > 0) gate_cv_.Wait(mu_);
  ++active_readers_;
}

void RequestScheduler::ReleaseReadGate() {
  MutexLock lock(mu_);
  if (--active_readers_ == 0) gate_cv_.NotifyAll();
}

void RequestScheduler::AcquireWriteGate() {
  MutexLock lock(mu_);
  ++writers_waiting_;
  while (writer_active_ || active_readers_ > 0) gate_cv_.Wait(mu_);
  --writers_waiting_;
  writer_active_ = true;
}

void RequestScheduler::ReleaseWriteGate() {
  MutexLock lock(mu_);
  writer_active_ = false;
  gate_cv_.NotifyAll();
}

Response RequestScheduler::ExecuteAppend(const Pending& pending) {
  Response response;
  response.id = pending.request.id;
  try {
    if (mutable_engine_ == nullptr) {
      response.outcome = Outcome::kError;
      response.error = "APPEND rejected: server is read-only";
      return response;
    }
    std::string_view rest = TrimWhitespace(pending.request.statement);
    rest.remove_prefix(6);  // the verb; IsAppendStatement vetted it
    std::string payload(TrimWhitespace(rest));
    if (payload.empty()) {
      response.outcome = Outcome::kError;
      response.error = "APPEND requires CSV rows after the verb";
      return response;
    }
    // Wire format: one statement line, ';' separates rows. Parse against the
    // engine schema (no header, no inference) so a malformed row rejects the
    // whole batch before anything is appended.
    for (char& c : payload) {
      if (c == ';') c = '\n';
    }
    CsvReadOptions options;
    options.has_header = false;
    options.schema = std::make_shared<Schema>(*mutable_engine_->table()->schema());
    Result<TablePtr> parsed = ReadCsvString(payload, options);
    if (!parsed.ok()) {
      response.outcome = Outcome::kError;
      response.error = parsed.status().message();
      return response;
    }
    const TablePtr& delta = *parsed;
    std::vector<Row> rows;
    rows.reserve(static_cast<size_t>(delta->num_rows()));
    for (int64_t r = 0; r < delta->num_rows(); ++r) rows.push_back(delta->GetRow(r));

    const Status status = mutable_engine_->AppendAndRemine(rows);
    if (status.IsStop()) {
      // Rows are in, the re-mine was cut short: the pattern set is stale but
      // intact, and the next append (or mine) catches up. Surface that as a
      // truncated success, mirroring deadline-truncated explains.
      response.outcome = Outcome::kTruncated;
      response.payload_json = "{\"rows_appended\":" + std::to_string(rows.size()) +
                              ",\"patterns_stale\":true}";
      return response;
    }
    if (!status.ok()) {
      response.outcome = Outcome::kError;
      response.error = status.message();
      return response;
    }
    response.outcome = Outcome::kOk;
    response.payload_json = CountersJson(
        {{"rows_appended", static_cast<int64_t>(rows.size())},
         {"total_rows", mutable_engine_->table()->num_rows()},
         {"patterns", static_cast<int64_t>(mutable_engine_->patterns().size())}});
    return response;
  } catch (const std::exception& e) {
    response.outcome = Outcome::kError;
    response.error = std::string("unexpected exception: ") + e.what();
    return response;
  } catch (...) {
    response.outcome = Outcome::kError;
    response.error = "unexpected non-standard exception";
    return response;
  }
}

Response RequestScheduler::Execute(const Pending& pending, bool degraded) {
  Response response;
  response.id = pending.request.id;
  // The zero-crash guarantee for serving threads: anything an execution path
  // throws (ParallelFor converts worker exceptions to Status, but the
  // serving layer defends in depth) becomes a structured error response.
  try {
    const std::string verb = ToLowerAscii(TrimWhitespace(pending.request.statement));
    if (verb == "ping" || verb == "ping;") {
      response.outcome = Outcome::kOk;
      response.payload_json = "\"pong\"";
      return response;
    }
    if (verb == "stats" || verb == "stats;") {
      response.outcome = Outcome::kOk;
      response.payload_json = StatsJson(*engine_, stats());
      return response;
    }

    Result<Statement> parsed = ParseStatement(pending.request.statement);
    if (!parsed.ok()) {
      response.outcome = Outcome::kError;
      response.error = parsed.status().message();
      return response;
    }

    if (const auto* cmd = std::get_if<ExplainWhyCommand>(&*parsed)) {
      // A session is a handle on the engine's pattern set and γ memo, opened
      // under the read gate, so it always sees the table as of the last
      // append.
      Result<ExplainSession> session = engine_->MakeExplainSession();
      if (!session.ok()) {
        response.outcome = Outcome::kError;
        response.error = "engine has no mined patterns";
        return response;
      }
      Result<UserQuestion> question = BuildQuestion(catalog_, *cmd);
      if (!question.ok()) {
        response.outcome = Outcome::kError;
        response.error = question.status().message();
        return response;
      }
      int top_k = pending.request.top_k > 0 ? static_cast<int>(pending.request.top_k)
                  : cmd->top_k.has_value()  ? static_cast<int>(*cmd->top_k)
                                            : config_.top_k;
      const bool capped = degraded && top_k > config_.degraded_top_k;
      if (capped) top_k = config_.degraded_top_k;

      const int64_t remaining_ms = pending.deadline.RemainingNanos() / 1000000;
      ExplainConfig& session_config = session->config();
      session_config.top_k = top_k;
      session_config.deadline_ms = remaining_ms > 1 ? remaining_ms : 1;
      session_config.cancel_token = CancellationToken();
      session_config.num_threads = 1;  // concurrency comes from many requests

      Result<ExplainResult> result = session->Explain(*question);
      if (!result.ok()) {
        response.outcome = Outcome::kError;
        response.error = result.status().message();
        return response;
      }
      response.payload_json =
          ExplanationsToJson(result->explanations, *engine_->table()->schema());
      response.outcome = result->partial ? Outcome::kTruncated
                         : capped        ? Outcome::kDegraded
                                         : Outcome::kOk;
      return response;
    }

    const auto& query = std::get<SelectQuery>(*parsed);
    StopToken stop(pending.deadline);
    Result<TablePtr> table = ExecuteSelect(catalog_, query, &stop);
    if (!table.ok()) {
      response.outcome = Outcome::kError;
      response.error = table.status().message();
      return response;
    }
    response.outcome = degraded ? Outcome::kDegraded : Outcome::kOk;
    response.payload_json = TableToJson(**table);
    return response;
  } catch (const std::exception& e) {
    response.outcome = Outcome::kError;
    response.error = std::string("unexpected exception: ") + e.what();
    return response;
  } catch (...) {
    response.outcome = Outcome::kError;
    response.error = "unexpected non-standard exception";
    return response;
  }
}

void RequestScheduler::CountOutcome(Outcome outcome) {
  MutexLock lock(mu_);
  switch (outcome) {
    case Outcome::kOk:
      ++stats_.ok;
      break;
    case Outcome::kDegraded:
      ++stats_.degraded;
      break;
    case Outcome::kTruncated:
      ++stats_.truncated;
      break;
    case Outcome::kShed:
      ++stats_.shed;
      break;
    case Outcome::kOverloaded:
      ++stats_.overloaded;
      break;
    case Outcome::kRetryAfter:
      ++stats_.retry_after;
      break;
    case Outcome::kError:
      ++stats_.errors;
      break;
  }
}

void RequestScheduler::Finish(Pending* pending, Response response) {
  const int64_t now_ns = NowNanos();
  response.elapsed_ms = (now_ns - pending->enqueue_ns) / 1000000;
  CountOutcome(response.outcome);
  // Post-paid debit: the request's wall occupancy and response bytes.
  admission_.Release(pending->request.tenant, now_ns,
                     static_cast<double>(now_ns - pending->enqueue_ns) / 1e6,
                     static_cast<int64_t>(response.payload_json.size()));
  pending->done(response);
  MutexLock lock(mu_);
  if (--inflight_ == 0) drain_cv_.NotifyAll();
}

void RequestScheduler::Shutdown() {
  MutexLock lock(mu_);
  draining_ = true;
  while (inflight_ > 0) drain_cv_.Wait(mu_);
}

RequestScheduler::Stats RequestScheduler::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

int RequestScheduler::queue_depth() const {
  MutexLock lock(mu_);
  return static_cast<int>(queue_.size());
}

void RequestScheduler::SetExecutionHookForTest(std::function<void()> hook) {
  MutexLock lock(mu_);
  execution_hook_ = std::move(hook);
}

}  // namespace cape::server
