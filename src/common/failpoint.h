#ifndef CAPE_COMMON_FAILPOINT_H_
#define CAPE_COMMON_FAILPOINT_H_

#include <string>
#include <vector>

#include "common/macros.h"
#include "common/status.h"

/// Failpoint framework (Arrow/RocksDB style): named fault-injection sites on
/// the IO/alloc-heavy paths of the pipeline. A site is a CAPE_FAILPOINT(name)
/// line inside a Status- or Result-returning function; when the site is
/// activated (via the test API below or the CAPE_FAILPOINTS environment
/// variable) the macro returns an error Status from the enclosing function,
/// letting tests prove that every stage converts injected faults into clean
/// Status returns — no crash, no leak, no partial mutation.
///
/// With CAPE_ENABLE_FAILPOINTS=OFF at configure time the macro compiles to
/// nothing. When compiled in but inactive (the production default) each
/// site costs a single relaxed atomic load and a predictable branch.
///
/// Environment syntax (parsed once at first use):
///   CAPE_FAILPOINTS="csv.read_row=io;mining.sort=internal@3;explain.norm=io%0.01"
/// i.e. `site=kind[@skip][%probability]` entries separated by ';', where
/// kind is one of io|internal|oom, skip is the number of hits to let through
/// first (trigger-after-N), and probability in (0, 1] makes each eligible
/// hit fire with that probability from a deterministic per-site stream —
/// chaos mode without recompiles. Omitting `%probability` keeps the exact
/// every-hit-fires semantics.

namespace cape::failpoint {

/// Canonical list of every site compiled into the library; tests iterate
/// this to force a fault at each site in turn.
std::vector<std::string> AllSites();

/// True when at least one site is active (fast path: relaxed atomic).
bool AnyActive();

/// Arms `site` to fail with `code`/`message`. The first `skip` hits pass
/// through; after that each hit fails with probability `probability`
/// (sampled from a deterministic per-site stream reset by each Activate),
/// `count` times in total (-1 = unlimited). Hits that pass the skip gate but
/// lose the probability draw do not consume `count`. InvalidArgument when
/// `site` is not a registered site or `probability` is outside (0, 1].
Status Activate(const std::string& site, StatusCode code, std::string message,
                int skip = 0, int count = -1, double probability = 1.0);

/// Arms one site from a CAPE_FAILPOINTS-style entry
/// `site=kind[@skip][%probability]` (see the header comment). Exposed so
/// tests can exercise the env syntax without the parse-once env gate.
Status ActivateFromSpec(const std::string& entry);

/// Disarms one site / all sites.
void Deactivate(const std::string& site);
void DeactivateAll();

/// Called by CAPE_FAILPOINT; returns the armed error when `site` fires.
Status Trigger(const char* site);

/// RAII guard for tests: arms a site on construction, disarms on scope exit.
class ScopedFailpoint {
 public:
  explicit ScopedFailpoint(std::string site,
                           StatusCode code = StatusCode::kIOError,
                           std::string message = "injected fault", int skip = 0,
                           int count = -1, double probability = 1.0)
      : site_(std::move(site)),
        status_(Activate(site_, code, std::move(message), skip, count, probability)) {}
  ~ScopedFailpoint() { Deactivate(site_); }

  ScopedFailpoint(const ScopedFailpoint&) = delete;
  ScopedFailpoint& operator=(const ScopedFailpoint&) = delete;

  /// OK unless the site name was unknown.
  const Status& activation_status() const { return status_; }

 private:
  std::string site_;
  Status status_;
};

}  // namespace cape::failpoint

#ifdef CAPE_DISABLE_FAILPOINTS
#define CAPE_FAILPOINT(site) \
  do {                       \
  } while (false)
#else
#define CAPE_FAILPOINT(site)                                    \
  do {                                                          \
    if (CAPE_PREDICT_FALSE(::cape::failpoint::AnyActive())) {   \
      ::cape::Status _fp_st = ::cape::failpoint::Trigger(site); \
      if (!_fp_st.ok()) return _fp_st;                          \
    }                                                           \
  } while (false)
#endif

#endif  // CAPE_COMMON_FAILPOINT_H_
