#ifndef CAPE_SERVER_ADMISSION_H_
#define CAPE_SERVER_ADMISSION_H_

#include <cstdint>
#include <string>
#include <unordered_map>

#include "common/annotations.h"
#include "common/mutex.h"

/// Admission control for the explanation server (DESIGN.md §13): every
/// request passes through here before it may queue. Two independent gates:
///
///  1. A global bound on requests in the system (queued + executing). When
///     full the request is rejected OVERLOADED — the bounded queue is what
///     keeps latency finite under any offered load.
///  2. Per-tenant token buckets over execution-time milliseconds and
///     response bytes. Budgets are post-paid: a request is admitted against
///     the current balance and its actual cost is debited on completion, so
///     a bucket can go into overdraft by at most one request — in exchange
///     admission never needs to predict a request's cost. An exhausted
///     bucket rejects RETRY_AFTER with the refill time as a hint.
///
/// All decisions take a caller-supplied monotonic timestamp so tests can
/// drive time explicitly.

namespace cape::server {

struct AdmissionConfig {
  /// Global cap on requests in the system (queued + executing).
  int max_in_system = 256;
  /// Per-tenant cap on requests in the system; <= 0 disables the gate.
  int per_tenant_max_in_system = 0;
  /// Per-tenant budgets, refilled continuously; <= 0 disables that bucket.
  double tenant_time_ms_per_sec = 0.0;
  double tenant_bytes_per_sec = 0.0;
  /// Bucket capacity = rate * burst_seconds (the burst a cold tenant may
  /// spend instantly).
  double burst_seconds = 2.0;
};

struct AdmissionDecision {
  enum class Kind : int { kAdmit = 0, kOverloaded = 1, kRetryAfter = 2 };
  Kind kind = Kind::kAdmit;
  /// For kRetryAfter: milliseconds until the limiting bucket is positive.
  int64_t retry_after_ms = 0;
};

class AdmissionController {
 public:
  explicit AdmissionController(AdmissionConfig config);

  /// Decides admission for one request of `tenant` at monotonic time
  /// `now_ns`. On kAdmit the request occupies a system slot until Release().
  AdmissionDecision Admit(const std::string& tenant, int64_t now_ns) CAPE_EXCLUDES(mu_);

  /// Releases the slot taken by an admitted request and debits its actual
  /// cost against the tenant's buckets (post-paid; may overdraft). Must be
  /// called exactly once per kAdmit, with any outcome.
  void Release(const std::string& tenant, int64_t now_ns, double time_spent_ms,
               int64_t bytes_out) CAPE_EXCLUDES(mu_);

  /// Requests currently in the system (admitted, not yet released).
  int in_system() const CAPE_EXCLUDES(mu_);

  /// Tenants with budget state; none unless a per-tenant gate is on.
  size_t tracked_tenants() const CAPE_EXCLUDES(mu_);

 private:
  struct TenantState {
    double time_tokens_ms = 0.0;
    double byte_tokens = 0.0;
    int64_t last_refill_ns = 0;
    int in_system = 0;
    bool initialized = false;
  };

  /// True when a per-tenant cap or budget is configured.
  bool TenantGatesOn() const;

  /// Refills both buckets for elapsed time since the last refill.
  void RefillLocked(TenantState* tenant, int64_t now_ns) const CAPE_REQUIRES(mu_);

  const AdmissionConfig config_;
  mutable Mutex mu_;
  int in_system_ CAPE_GUARDED_BY(mu_) = 0;
  std::unordered_map<std::string, TenantState> tenants_ CAPE_GUARDED_BY(mu_);
};

}  // namespace cape::server

#endif  // CAPE_SERVER_ADMISSION_H_
