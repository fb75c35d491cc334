// Property tests for the streaming accumulator RunningStats (Welford): it
// must stay stable where the naive sum-of-squares fails — pinned on a
// near-constant stream.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "stats/descriptive.h"

namespace cape {
namespace {

// ---------------------------------------------------------------------------
// Deterministic adversarial streams (no <random>: reproducibility across
// libstdc++ versions is part of the byte-identity story).

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double UnitUniform(uint64_t* state) {
  return static_cast<double>(SplitMix64(state) >> 11) * 0x1.0p-53;
}

/// Values within ~1e-9 of a large base: catastrophic cancellation territory
/// for the naive sum-of-squares variance.
std::vector<double> NearConstantStream(size_t n, uint64_t seed) {
  std::vector<double> xs;
  xs.reserve(n);
  uint64_t state = seed;
  for (size_t i = 0; i < n; ++i) {
    xs.push_back(1.0e9 + UnitUniform(&state) * 1.0e-3);
  }
  return xs;
}

RunningStats FoldAll(const std::vector<double>& xs) {
  RunningStats s;
  for (double x : xs) s.Add(x);
  return s;
}

TEST(StatsIncrementalTest, NearConstantVarianceStaysNonNegativeAndTiny) {
  // The classic failure of naive sum-of-squares: variance of ~1e-3-wide
  // noise around 1e9 comes out negative or ~1e2. Welford must keep it
  // non-negative and at the right scale.
  const RunningStats s = FoldAll(NearConstantStream(4096, 7));
  EXPECT_GE(s.variance(), 0.0);
  EXPECT_LT(s.variance(), 1.0e-5);
}

}  // namespace
}  // namespace cape
