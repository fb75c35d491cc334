#include "common/failpoint.h"

#include <atomic>
#include <cstdlib>
#include <unordered_map>

#include "common/annotations.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/mutex.h"
#include "common/string_util.h"

namespace cape::failpoint {

namespace {

/// Every fault-injection site compiled into the library. Keep in sync with
/// the CAPE_FAILPOINT() lines; failpoint_test iterates this list and forces
/// a fault at each site in turn.
constexpr const char* kSites[] = {
    "csv.open",         // ReadCsvFile: file open / slurp
    "csv.read_row",     // ReadCsvString: per-record parse loop
    "mining.group",     // miners: shared GroupByAggregate query
    "mining.cube.group",  // CUBE miner: cube materialization
    "mining.sort",      // miners: per-split sort query
    "explain.norm",     // explainer: NORM aggregation query
    "explain.refine",   // explainer: (P, P') drill-down scan
    "sql.execute",      // ExecuteSelect entry
    "pattern_io.save",  // SavePatternSet file write
    "pattern_io.load",  // LoadPatternSet file read
    "storage.page_read",          // HeapFile::ReadPage: page IO / checksum verify
};

struct Spec {
  StatusCode code = StatusCode::kIOError;
  std::string message;
  int skip = 0;    // hits to let through before firing
  int count = -1;  // firings left; -1 = unlimited
  double probability = 1.0;  // chance an eligible hit fires
  uint64_t rng = 0;          // xorshift64* state; 0 = exact (no sampling)
};

struct Registry {
  Mutex mu;
  std::unordered_map<std::string, Spec> active CAPE_GUARDED_BY(mu);
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: usable during static dtors
  return *r;
}

std::atomic<int>& active_count() {
  static std::atomic<int> count{0};
  return count;
}

bool IsKnownSite(const std::string& site) {
  for (const char* s : kSites) {
    if (site == s) return true;
  }
  return false;
}

StatusCode ParseKind(const std::string& kind) {
  if (kind == "internal") return StatusCode::kInternal;
  if (kind == "oom") return StatusCode::kInternal;
  return StatusCode::kIOError;  // "io" and anything else
}

/// Deterministic per-site uniform draw in [0, 1): xorshift64* seeded from
/// the site name, reset by each Activate. Chaos runs are therefore
/// reproducible — the same activation fires on the same hit sequence.
double NextUniform(uint64_t* state) {
  uint64_t x = *state;
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  *state = x;
  return static_cast<double>((x * 0x2545F4914F6CDD1Dull) >> 11) * 0x1.0p-53;
}

uint64_t SeedFor(const std::string& site) {
  Fnv64 h;
  h.Update(site.data(), site.size());
  // Never zero (xorshift fixed point).
  return h.digest() | 1ull;
}

/// Parses CAPE_FAILPOINTS="site=kind[@skip][%p];site2=kind" once at startup.
void LoadFromEnv() {
  const char* env = std::getenv("CAPE_FAILPOINTS");
  if (env == nullptr || *env == '\0') return;
  for (const std::string& entry : SplitString(env, ';')) {
    Status st = ActivateFromSpec(entry);
    if (!st.ok()) {
      CAPE_LOG(Warning) << "ignoring CAPE_FAILPOINTS entry '" << entry
                        << "': " << st.ToString();
    }
  }
}

}  // namespace

std::vector<std::string> AllSites() {
  return std::vector<std::string>(std::begin(kSites), std::end(kSites));
}

bool AnyActive() {
  static const bool env_once = [] {
    LoadFromEnv();
    return true;
  }();
  (void)env_once;
  return active_count().load(std::memory_order_relaxed) > 0;
}

Status Activate(const std::string& site, StatusCode code, std::string message, int skip,
                int count, double probability) {
  if (!IsKnownSite(site)) {
    return Status::InvalidArgument("unknown failpoint site '" + site + "'");
  }
  if (code == StatusCode::kOk) {
    return Status::InvalidArgument("failpoint must be armed with an error code");
  }
  if (!(probability > 0.0) || probability > 1.0) {
    return Status::InvalidArgument("failpoint probability must be in (0, 1]");
  }
  Registry& r = registry();
  MutexLock lock(r.mu);
  auto [it, inserted] = r.active.emplace(site, Spec{});
  it->second = Spec{code,  std::move(message), skip, count, probability,
                    probability < 1.0 ? SeedFor(site) : 0};
  if (inserted) active_count().fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status ActivateFromSpec(const std::string& entry) {
  const size_t eq = entry.find('=');
  if (eq == std::string::npos) {
    return Status::InvalidArgument("failpoint spec '" + entry +
                                   "' is not of the form site=kind[@skip][%p]");
  }
  const std::string site = entry.substr(0, eq);
  std::string kind = entry.substr(eq + 1);
  double probability = 1.0;
  const size_t pct = kind.find('%');
  if (pct != std::string::npos) {
    auto parsed = ParseDouble(kind.substr(pct + 1));
    if (!parsed.ok()) {
      return Status::InvalidArgument("failpoint spec '" + entry +
                                     "' has an unparseable probability");
    }
    probability = *parsed;
    kind = kind.substr(0, pct);
  }
  int skip = 0;
  const size_t at = kind.find('@');
  if (at != std::string::npos) {
    auto parsed = ParseInt64(kind.substr(at + 1));
    if (!parsed.ok() || *parsed < 0) {
      return Status::InvalidArgument("failpoint spec '" + entry +
                                     "' has an unparseable @skip");
    }
    skip = static_cast<int>(*parsed);
    kind = kind.substr(0, at);
  }
  return Activate(site, ParseKind(kind),
                  "injected fault (CAPE_FAILPOINTS) at " + site, skip,
                  /*count=*/-1, probability);
}

void Deactivate(const std::string& site) {
  Registry& r = registry();
  MutexLock lock(r.mu);
  if (r.active.erase(site) > 0) {
    active_count().fetch_sub(1, std::memory_order_relaxed);
  }
}

void DeactivateAll() {
  Registry& r = registry();
  MutexLock lock(r.mu);
  active_count().fetch_sub(static_cast<int>(r.active.size()),
                           std::memory_order_relaxed);
  r.active.clear();
}

Status Trigger(const char* site) {
  Registry& r = registry();
  MutexLock lock(r.mu);
  auto it = r.active.find(site);
  if (it == r.active.end()) return Status::OK();
  Spec& spec = it->second;
  if (spec.skip > 0) {
    --spec.skip;
    return Status::OK();
  }
  if (spec.count == 0) return Status::OK();
  // Probabilistic sites sample an eligible hit; a losing draw passes through
  // without consuming `count`, so chaos activations keep firing at the armed
  // rate for the life of the run.
  if (spec.rng != 0 && NextUniform(&spec.rng) >= spec.probability) {
    return Status::OK();
  }
  if (spec.count > 0) --spec.count;
  return Status(spec.code, spec.message.empty()
                               ? "injected fault at " + std::string(site)
                               : spec.message);
}

}  // namespace cape::failpoint
