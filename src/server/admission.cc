#include "server/admission.h"

#include <algorithm>

namespace cape::server {

namespace {
constexpr double kNanosPerSecond = 1e9;
constexpr double kMillisPerSecond = 1e3;
}  // namespace

AdmissionController::AdmissionController(AdmissionConfig config) : config_(config) {}

void AdmissionController::RefillLocked(TenantState* tenant, int64_t now_ns) const {
  if (!tenant->initialized) {
    // A cold tenant starts with a full burst of both budgets.
    tenant->time_tokens_ms = config_.tenant_time_ms_per_sec * config_.burst_seconds;
    tenant->byte_tokens = config_.tenant_bytes_per_sec * config_.burst_seconds;
    tenant->last_refill_ns = now_ns;
    tenant->initialized = true;
    return;
  }
  const double elapsed_sec =
      static_cast<double>(now_ns - tenant->last_refill_ns) / kNanosPerSecond;
  if (elapsed_sec <= 0) return;
  tenant->last_refill_ns = now_ns;
  tenant->time_tokens_ms =
      std::min(tenant->time_tokens_ms + config_.tenant_time_ms_per_sec * elapsed_sec,
               config_.tenant_time_ms_per_sec * config_.burst_seconds);
  tenant->byte_tokens =
      std::min(tenant->byte_tokens + config_.tenant_bytes_per_sec * elapsed_sec,
               config_.tenant_bytes_per_sec * config_.burst_seconds);
}

bool AdmissionController::TenantGatesOn() const {
  return config_.per_tenant_max_in_system > 0 || config_.tenant_time_ms_per_sec > 0 ||
         config_.tenant_bytes_per_sec > 0;
}

AdmissionDecision AdmissionController::Admit(const std::string& tenant, int64_t now_ns) {
  MutexLock lock(mu_);
  if (in_system_ >= config_.max_in_system) {
    return AdmissionDecision{AdmissionDecision::Kind::kOverloaded, 0};
  }
  // Tenant names come off the wire: with no per-tenant gate, keep no state
  // for them.
  if (!TenantGatesOn()) {
    ++in_system_;
    return AdmissionDecision{AdmissionDecision::Kind::kAdmit, 0};
  }
  TenantState& state = tenants_[tenant];
  RefillLocked(&state, now_ns);
  if (config_.per_tenant_max_in_system > 0 &&
      state.in_system >= config_.per_tenant_max_in_system) {
    return AdmissionDecision{AdmissionDecision::Kind::kOverloaded, 0};
  }
  // Budget gates: a request is admitted while the bucket is non-negative —
  // overdraft from the previous debit is what makes admission cost-blind.
  // The retry hint is the time for the deepest deficit to refill to zero.
  double wait_sec = 0.0;
  if (config_.tenant_time_ms_per_sec > 0 && state.time_tokens_ms < 0) {
    wait_sec = std::max(wait_sec, -state.time_tokens_ms / config_.tenant_time_ms_per_sec);
  }
  if (config_.tenant_bytes_per_sec > 0 && state.byte_tokens < 0) {
    wait_sec = std::max(wait_sec, -state.byte_tokens / config_.tenant_bytes_per_sec);
  }
  if (wait_sec > 0) {
    const int64_t hint_ms = static_cast<int64_t>(wait_sec * kMillisPerSecond) + 1;
    return AdmissionDecision{AdmissionDecision::Kind::kRetryAfter, hint_ms};
  }
  ++in_system_;
  ++state.in_system;
  return AdmissionDecision{AdmissionDecision::Kind::kAdmit, 0};
}

void AdmissionController::Release(const std::string& tenant, int64_t now_ns,
                                  double time_spent_ms, int64_t bytes_out) {
  MutexLock lock(mu_);
  if (in_system_ > 0) --in_system_;
  if (!TenantGatesOn()) return;
  TenantState& state = tenants_[tenant];
  RefillLocked(&state, now_ns);
  if (state.in_system > 0) --state.in_system;
  if (config_.tenant_time_ms_per_sec > 0) state.time_tokens_ms -= time_spent_ms;
  if (config_.tenant_bytes_per_sec > 0) {
    state.byte_tokens -= static_cast<double>(bytes_out);
  }
}

int AdmissionController::in_system() const {
  MutexLock lock(mu_);
  return in_system_;
}

size_t AdmissionController::tracked_tenants() const {
  MutexLock lock(mu_);
  return tenants_.size();
}

}  // namespace cape::server
