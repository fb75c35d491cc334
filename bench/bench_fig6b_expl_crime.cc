// Figure 6b: explanation-generation runtime vs. number of local patterns
// N_P (Crime dataset) for EXPL-GEN-NAIVE vs EXPL-GEN-OPT.
//
// Expected shape: linear in N_P, OPT faster (the paper reports up to 28%).

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "datagen/crime.h"

using namespace cape;         // NOLINT
using namespace cape::bench;  // NOLINT

int main(int argc, char** argv) {
  Banner("Figure 6b", "Explanation runtime vs N_P (Crime) — EXPL-GEN-NAIVE vs EXPL-GEN-OPT");

  const std::string json_path = ParseJsonPath(argc, argv);
  BenchJson json("fig6b_expl_crime");

  CrimeOptions data;
  data.num_rows = 30000;
  data.num_attrs = 7;
  data.seed = 7;
  auto table = CheckResult(GenerateCrime(data), "GenerateCrime");
  Engine engine = CheckResult(Engine::FromTable(table), "Engine::FromTable");
  MiningConfig& mining = engine.mining_config();
  mining.max_pattern_size = 4;
  mining.local_gof_threshold = 0.2;
  mining.local_support_threshold = 3;
  mining.global_confidence_threshold = 0.2;
  mining.global_support_threshold = 10;
  mining.agg_functions = {AggFunc::kCount};
  CheckOk(engine.MinePatterns("ARP-MINE"), "MinePatterns");
  const PatternSet all_patterns = engine.patterns();
  const int64_t total_locals = all_patterns.NumLocalPatterns();
  std::printf("mined %zu global patterns, %lld local patterns\n\n", all_patterns.size(),
              static_cast<long long>(total_locals));

  auto questions =
      GenerateQuestions(table, {"primary_type", "community", "year"}, 6, Direction::kLow);
  auto more = GenerateQuestions(table, {"primary_type", "community", "year", "month"}, 2,
                                Direction::kHigh);
  questions.insert(questions.end(), more.begin(), more.end());
  std::printf("generated %zu user questions\n\n", questions.size());

  json.AddConfig("dataset", "crime");
  json.AddConfig("num_rows", static_cast<int64_t>(data.num_rows));
  json.AddConfig("num_questions", static_cast<int64_t>(questions.size()));
  json.AddConfig("total_local_patterns", total_locals);

  std::printf("%-8s %14s %14s %10s %16s\n", "N_P", "NAIVE(ms)", "OPT(ms)", "saving",
              "pairs pruned");
  for (double fraction : {0.125, 0.25, 0.5, 0.75, 1.0}) {
    const int64_t n_p = static_cast<int64_t>(fraction * static_cast<double>(total_locals));
    engine.SetPatterns(all_patterns.Truncated(n_p));

    double naive_ms = 0.0;
    double opt_ms = 0.0;
    int64_t pruned = 0;
    for (const UserQuestion& q : questions) {
      auto naive = CheckResult(engine.Explain(q, /*optimized=*/false), "naive");
      naive_ms += naive.profile.total_ns * 1e-6;
      auto opt = CheckResult(engine.Explain(q, /*optimized=*/true), "opt");
      opt_ms += opt.profile.total_ns * 1e-6;
      pruned += opt.profile.num_pairs_pruned;
    }
    std::printf("%-8lld %14.1f %14.1f %9.1f%% %16lld\n", static_cast<long long>(n_p),
                naive_ms, opt_ms, 100.0 * (naive_ms - opt_ms) / naive_ms,
                static_cast<long long>(pruned));

    json.BeginResult();
    json.Add("n_p", n_p);
    json.Add("naive_ms", naive_ms);
    json.Add("opt_ms", opt_ms);
    json.Add("pairs_pruned", pruned);
  }
  if (!json_path.empty()) json.Write(json_path);
  return 0;
}
