// Load generators for the in-process serving stack. The open loop sends on
// a fixed schedule from one generator thread and times each request from
// its intended send time, so a stall is charged to every request it
// delays. The closed loop keeps a fixed window of requests outstanding and
// measures how many answers per second the stack completes flat out.
//
// Every request must reach exactly one outcome; anything but `ok` counts as
// failed. With tracing on, the scheduler's execution hook marks when a
// worker dequeues a request, which splits each request span into queue and
// execute children.

#include <atomic>
#include <functional>
#include <thread>

#include "bench.h"

namespace perfbench {

using namespace cape;          // NOLINT
using namespace cape::server;  // NOLINT

namespace {

// Set by the execution hook on the worker that runs the request; the
// response callback runs on the same worker right after execution.
thread_local int64_t dequeued_ns = 0;

struct Slot {
  std::atomic<int> outcomes{0};
  Outcome outcome = Outcome::kError;
  bool payload_ok = true;
  int64_t sent_ns = 0;   // when the request was handed to the harness
  int64_t start_ns = 0;  // latency origin: intended (open) or actual (closed) send
  int64_t done_ns = 0;
};

class LoadState {
 public:
  LoadState(size_t n, const std::vector<std::string>& expected, Tracer* tracer)
      : slots_(n), expected_(expected), tracer_(tracer) {}

  Slot& slot(size_t i) { return slots_[i]; }

  /// The response callback body for request `i`. Its last action is the
  /// completion count, after which the issuing thread may tear down.
  void Done(size_t i, int64_t start_ns, int64_t now, int question,
            const Response& response) {
    Slot& s = slots_[i];
    s.start_ns = start_ns;
    s.done_ns = now;
    s.outcome = response.outcome;
    if (response.outcome == Outcome::kOk) {
      s.payload_ok = response.payload_json == expected_[static_cast<size_t>(question)];
    }
    if (tracer_->enabled()) {
      const auto id = static_cast<int64_t>(i) + 1;
      const int64_t parent = tracer_->Record("server.request", start_ns, now, -1, id);
      // Only requests a worker dequeued passed the execution hook.
      const Outcome o = response.outcome;
      if (o != Outcome::kOverloaded && o != Outcome::kRetryAfter && o != Outcome::kShed) {
        tracer_->Record("server.queue", s.sent_ns, dequeued_ns, parent, id);
        tracer_->Record("server.execute", dequeued_ns, now, parent, id);
      }
    }
    s.outcomes.fetch_add(1, std::memory_order_relaxed);
    completed_.fetch_add(1, std::memory_order_acq_rel);
  }

  int64_t completed() const { return completed_.load(std::memory_order_acquire); }

  /// Tallies the first `n` requests: outcomes, ok latencies, ok answers per
  /// second from the phase start to the last callback.
  LoadResult Collect(size_t n, int64_t phase_start_ns) const {
    LoadResult out;
    int64_t last = phase_start_ns;
    for (size_t i = 0; i < n; ++i) {
      const Slot& s = slots_[i];
      ++out.sent;
      if (s.outcomes.load(std::memory_order_relaxed) != 1) {
        ++out.lost;
        ++out.not_ok;
        continue;
      }
      last = std::max(last, s.done_ns);
      if (s.outcome != Outcome::kOk) {
        ++out.not_ok;
        continue;
      }
      ++out.ok;
      if (!s.payload_ok) ++out.payload_mismatch;
      out.latency_ms.push_back(static_cast<double>(s.done_ns - s.start_ns) * 1e-6);
    }
    out.ok_per_s.push_back(static_cast<double>(out.ok) /
                           (static_cast<double>(last - phase_start_ns) * 1e-9));
    return out;
  }

 private:
  std::vector<Slot> slots_;
  const std::vector<std::string>& expected_;
  Tracer* tracer_;
  std::atomic<int64_t> completed_{0};
};

void InstallHook(ServerHarness* harness, Tracer* tracer) {
  if (tracer->enabled()) {
    harness->scheduler().SetExecutionHookForTest([] { dequeued_ns = NowNs(); });
  }
}

void WaitForCompletions(const LoadState& state, int64_t n) {
  while (state.completed() < n) std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

}  // namespace

void LoadResult::Add(const LoadResult& other) {
  latency_ms.insert(latency_ms.end(), other.latency_ms.begin(), other.latency_ms.end());
  late_ms.insert(late_ms.end(), other.late_ms.begin(), other.late_ms.end());
  sent += other.sent;
  ok += other.ok;
  not_ok += other.not_ok;
  lost += other.lost;
  payload_mismatch += other.payload_mismatch;
  ok_per_s.insert(ok_per_s.end(), other.ok_per_s.begin(), other.ok_per_s.end());
}

LoadResult RunOpenLoop(ServerHarness* harness,
                       const std::vector<ScheduledRequest>& schedule,
                       const std::vector<std::string>& expected, Tracer* tracer) {
  InstallHook(harness, tracer);
  LoadState state(schedule.size(), expected, tracer);
  std::vector<double> late_ms(schedule.size());
  const int64_t t0 = NowNs() + 2'000'000;  // first send 2 ms out
  std::thread generator([&] {
    for (size_t i = 0; i < schedule.size(); ++i) {
      const ScheduledRequest& r = schedule[i];
      const int64_t due = t0 + r.due_ns;
      SleepUntilNs(due);
      const int64_t now = NowNs();
      late_ms[i] = static_cast<double>(now - due) * 1e-6;
      state.slot(i).sent_ns = now;
      harness->CallAsync(r.line, [&state, &r, i, due](const Response& response) {
        state.Done(i, due, NowNs(), r.question, response);
      });
    }
  });
  generator.join();
  WaitForCompletions(state, static_cast<int64_t>(schedule.size()));
  LoadResult out = state.Collect(schedule.size(), t0);
  out.late_ms = std::move(late_ms);
  return out;
}

LoadResult RunClosedLoop(ServerHarness* harness,
                         const std::vector<std::string>& statements, int window,
                         double seconds, const std::vector<std::string>& expected,
                         Tracer* tracer) {
  InstallHook(harness, tracer);
  // Slots for up to 20k answers per second; the chain stops early past that.
  const auto capacity = static_cast<int64_t>(seconds * 20000.0) + window;
  LoadState state(static_cast<size_t>(capacity), expected, tracer);
  std::atomic<int64_t> issued{0};
  const int64_t t0 = NowNs();
  const int64_t stop_ns = t0 + static_cast<int64_t>(seconds * 1e9);

  // Issues request `i`. Its callback issues the successor before counting
  // itself complete, so the wait below ends only after every callback has
  // finished touching this frame.
  std::function<void(int64_t)> issue = [&](int64_t i) {
    const auto q = static_cast<size_t>(i) % statements.size();
    Slot& s = state.slot(static_cast<size_t>(i));
    s.sent_ns = NowNs();
    const int64_t sent = s.sent_ns;
    harness->CallAsync(
        "[id=" + std::to_string(i + 1) + "] " + statements[q],
        [&state, &issued, &issue, i, q, sent, stop_ns,
         capacity](const Response& response) {
          const int64_t now = NowNs();
          if (now < stop_ns) {
            const int64_t next = issued.fetch_add(1);
            if (next < capacity) issue(next);
          }
          state.Done(static_cast<size_t>(i), sent, now, static_cast<int>(q), response);
        });
  };
  for (int w = 0; w < window; ++w) issue(issued.fetch_add(1));
  while (NowNs() < stop_ns ||
         state.completed() < std::min(issued.load(std::memory_order_acquire), capacity)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return state.Collect(static_cast<size_t>(std::min(issued.load(), capacity)), t0);
}

}  // namespace perfbench
