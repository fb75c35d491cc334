// Serving-layer amortization: CAPE mines ARPs once and answers many
// questions (paper Section 5's offline/online split). This harness measures
// the three ways an engine can obtain its pattern set — cold mining, a warm
// PatternCache hit, and a disk load of the binary store — and pins the
// serving contract: the warm path performs zero mining work (a zeroed
// mining_profile() and one cache hit) yet every phase returns a byte-identical
// top-k for every question. Explanations are answered through an
// ExplainSession so the cross-question memoization is exercised too.

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "datagen/crime.h"

using namespace cape;         // NOLINT
using namespace cape::bench;  // NOLINT

namespace {

/// Full-precision rendering of one explain run (table + %.17g scores) so a
/// byte comparison catches any drifting bit.
std::string RenderRun(const Engine& engine, const ExplainResult& result) {
  std::string out = engine.RenderExplanations(result.explanations);
  for (const Explanation& e : result.explanations) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g\n", e.score);
    out += buf;
  }
  return out;
}

MiningConfig BenchMiningConfig() {
  MiningConfig config;
  config.max_pattern_size = 4;
  config.local_gof_threshold = 0.2;
  config.local_support_threshold = 3;
  config.global_confidence_threshold = 0.2;
  config.global_support_threshold = 10;
  config.agg_functions = {AggFunc::kCount};
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  Banner("Pattern cache", "cold mine vs warm cache vs disk load (Crime, D=30k, A=7)");
  const std::string json_path = ParseJsonPath(argc, argv);

  CrimeOptions data;
  data.num_rows = 30000;
  data.num_attrs = 7;
  data.seed = 7;
  auto table = CheckResult(GenerateCrime(data), "GenerateCrime");
  auto questions =
      GenerateQuestions(table, {"primary_type", "community", "year"}, 6, Direction::kLow);
  std::printf("generated %zu user questions\n\n", questions.size());

  PatternCache cache;

  BenchJson json("pattern_cache");
  json.AddConfig("dataset", "crime");
  json.AddConfig("num_rows", static_cast<int64_t>(data.num_rows));
  json.AddConfig("num_attrs", static_cast<int64_t>(data.num_attrs));
  json.AddConfig("seed", static_cast<int64_t>(data.seed));
  json.AddConfig("num_questions", static_cast<int64_t>(questions.size()));

  std::vector<std::string> reference_runs;
  std::printf("%-10s %12s %12s %10s %10s\n", "phase", "acquire(s)", "explain(s)", "hits",
              "patterns");

  const std::string store_dir =
      (std::filesystem::temp_directory_path() / "cape_bench_pattern_cache").string();

  for (const std::string phase : {"cold", "warm", "disk"}) {
    PatternCache disk_cache;  // fresh cache for the disk phase
    Engine engine = CheckResult(Engine::FromTable(table), "Engine::FromTable");
    engine.mining_config() = BenchMiningConfig();
    PatternCache& phase_cache = phase == "disk" ? disk_cache : cache;
    engine.set_pattern_cache(&phase_cache);
    const PatternCache::Stats before = phase_cache.stats();

    // Acquire the pattern set: mine (cold), hit the shared cache (warm), or
    // load the binary stores persisted by the cold phase (disk).
    Stopwatch acquire;
    if (phase == "disk") {
      const int loaded =
          CheckResult(disk_cache.LoadFromDirectory(store_dir, engine.schema(),
                                                   table->Fingerprint()),
                      "LoadFromDirectory");
      if (loaded < 1) {
        std::fprintf(stderr, "disk phase loaded %d stores, expected >= 1\n", loaded);
        return 1;
      }
    }
    CheckOk(engine.MinePatterns("ARP-MINE"), "MinePatterns");
    const double acquire_s = acquire.ElapsedNanos() * 1e-9;

    // This phase's lookups: the shared cache also counts earlier phases.
    const int64_t hits = phase_cache.stats().hits - before.hits;
    const int64_t misses = phase_cache.stats().misses - before.misses;
    const int64_t mine_ns = engine.mining_profile().total_ns;
    const auto patterns = static_cast<int64_t>(engine.patterns().size());
    if (phase == "cold") {
      if (hits != 0 || misses != 1) {
        std::fprintf(stderr, "cold phase expected 0 hits/1 miss, got %lld/%lld\n",
                     static_cast<long long>(hits), static_cast<long long>(misses));
        return 1;
      }
      CheckOk(cache.SaveToDirectory(store_dir), "SaveToDirectory");
    } else {
      // The serving contract: a warm engine does zero mining work.
      if (hits != 1 || mine_ns != 0) {
        std::fprintf(stderr,
                     "%s phase expected cache_hits == 1 and mine_ns == 0, got "
                     "hits=%lld mine_ns=%lld\n",
                     phase.c_str(), static_cast<long long>(hits),
                     static_cast<long long>(mine_ns));
        return 1;
      }
    }

    ExplainSession session = CheckResult(engine.MakeExplainSession(), "MakeExplainSession");
    Stopwatch explain;
    for (size_t qi = 0; qi < questions.size(); ++qi) {
      auto result = CheckResult(session.Explain(questions[qi]), "Explain");
      const std::string rendered = RenderRun(engine, result);
      if (phase == "cold") {
        reference_runs.push_back(rendered);
      } else if (rendered != reference_runs[qi]) {
        std::fprintf(stderr, "%s phase: top-k differs from cold run at question %zu\n",
                     phase.c_str(), qi);
        return 1;
      }
    }
    const double explain_s = explain.ElapsedNanos() * 1e-9;

    std::printf("%-10s %12.3f %12.3f %10lld %10lld\n", phase.c_str(), acquire_s, explain_s,
                static_cast<long long>(hits), static_cast<long long>(patterns));
    json.BeginResult();
    json.Add("phase", phase);
    json.Add("acquire_s", acquire_s);
    json.Add("explain_s", explain_s);
    json.Add("cache_hits", hits);
    json.Add("cache_misses", misses);
    json.Add("mine_ns", mine_ns);
    json.Add("patterns", patterns);
    json.Add("agg_tables_cached", static_cast<int64_t>(session.num_cached_agg_tables()));
  }

  std::error_code ec;
  std::filesystem::remove_all(store_dir, ec);

  std::printf("\nwarm and disk phases: zero mining work, top-k byte-identical to cold\n");
  if (!json_path.empty()) json.Write(json_path);
  return 0;
}
