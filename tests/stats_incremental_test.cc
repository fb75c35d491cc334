// Property/metamorphic tests for the streaming accumulators: RunningStats
// (Welford) and the mergeable RegressionMoments (plain moment sums with
// closed-form constant/linear readouts). Merged moments must be associative
// and numerically indistinguishable from the batch formulas, and Welford must
// stay stable where the naive sum-of-squares fails — pinned on adversarial
// inputs: near-constant streams, huge magnitude spreads, and sparse mixes.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "stats/descriptive.h"
#include "stats/regression.h"

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

/// The null-handling convention under test: the production fold (the
/// maintainer, EvaluateSplit) skips nulls *before* the accumulator ever sees
/// a value, so "null mixes" here means sparse streams — every third value
/// dropped — and the readouts over the kept values must match the batch fit
/// over the kept values.
std::vector<double> SparseStream(size_t n, uint64_t seed) {
  std::vector<double> xs;
  uint64_t state = seed;
  for (size_t i = 0; i < n; ++i) {
    const double v = UnitUniform(&state) * 100.0 - 50.0;
    if (i % 3 == 2) continue;  // the "null" slots
    xs.push_back(v);
  }
  return xs;
}

/// Relative-error bound used throughout: the moment sums and their readouts
/// are backward-stable, so they agree with the batch formulas to a small
/// multiple of double epsilon per element folded.
void ExpectClose(double got, long double want, double n, const char* what) {
  const double scale = std::max(std::abs(static_cast<double>(want)), 1.0);
  const double bound = 64.0 * n * std::numeric_limits<double>::epsilon() * scale;
  EXPECT_NEAR(got, static_cast<double>(want), bound) << what;
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

// ---------------------------------------------------------------------------
// RegressionMoments

TEST(StatsIncrementalTest, RegressionMomentsMergeIsAssociative) {
  // Plain sums: re-associating the merge order only re-associates double
  // additions, so any grouping agrees to a few ulps (bit-exactness is not
  // promised — (a+b)+c and a+(b+c) legitimately differ in the last bit).
  uint64_t state = 7;
  std::vector<std::pair<double, double>> pts;
  for (int i = 0; i < 600; ++i) {
    const double x = UnitUniform(&state) * 20.0 - 10.0;
    pts.push_back({x, 3.0 - 0.5 * x + UnitUniform(&state) * 0.01});
  }
  RegressionMoments a, b, c;
  for (int i = 0; i < 200; ++i) a.Add(pts[i].first, pts[i].second);
  for (int i = 200; i < 400; ++i) b.Add(pts[i].first, pts[i].second);
  for (int i = 400; i < 600; ++i) c.Add(pts[i].first, pts[i].second);

  RegressionMoments left = a;
  left.Merge(b);
  left.Merge(c);
  RegressionMoments bc = b;
  bc.Merge(c);
  RegressionMoments right = a;
  right.Merge(bc);

  EXPECT_EQ(left.n, right.n);
  ExpectClose(left.sx, right.sx, 600.0, "sx");
  ExpectClose(left.sy, right.sy, 600.0, "sy");
  ExpectClose(left.sxx, right.sxx, 600.0, "sxx");
  ExpectClose(left.syy, right.syy, 600.0, "syy");
  ExpectClose(left.sxy, right.sxy, 600.0, "sxy");
}

TEST(StatsIncrementalTest, ConstBetaAndGofMatchConstantRegression) {
  // The moment-form constant model must reproduce ConstantRegression::Fit —
  // the production gof gate — on benign and adversarial ys alike.
  const std::vector<std::vector<double>> streams = {
      {5.0, 5.0, 5.0, 5.0},                 // zero variance → gof 1
      {2.0, 4.0, 6.0, 8.0, 10.0},           // positive beta, chi-square path
      {-1.0, 2.0, -3.0, 4.0},               // beta near zero → RMSE fallback
      {0.5},                                // n < 2 → gof 1
      NearConstantStream(256, 11),          // cancellation stress
      SparseStream(256, 13),
  };
  for (const auto& ys : streams) {
    RegressionMoments m;
    for (double y : ys) m.Add(0.0, y);
    auto fitted = ConstantRegression::Fit(ys);
    ASSERT_TRUE(fitted.ok());
    const double n = static_cast<double>(ys.size());
    ExpectClose(m.ConstBeta(), (*fitted)->Predict({}), n, "beta");
    ExpectClose(m.ConstGof(), (*fitted)->goodness_of_fit(), n * n, "gof");
  }
}

TEST(StatsIncrementalTest, FitLineMatchesLinearRegressionSinglePredictor) {
  uint64_t state = 99;
  std::vector<std::vector<double>> X;
  std::vector<double> y;
  RegressionMoments m;
  for (int i = 0; i < 400; ++i) {
    const double x = UnitUniform(&state) * 8.0;
    const double noise = UnitUniform(&state) * 0.2 - 0.1;
    X.push_back({x});
    y.push_back(1.5 + 2.25 * x + noise);
    m.Add(x, y.back());
  }
  auto fitted = LinearRegression::Fit(X, y);
  ASSERT_TRUE(fitted.ok());
  auto line = m.FitLine();
  ASSERT_TRUE(line.ok());
  ExpectClose(line->intercept, (*fitted)->coefficients()[0], 400.0 * 400.0, "intercept");
  ExpectClose(line->slope, (*fitted)->coefficients()[1], 400.0 * 400.0, "slope");
}

TEST(StatsIncrementalTest, FitLineDegenerateAndEmptyCases) {
  RegressionMoments empty;
  EXPECT_FALSE(empty.FitLine().ok());

  // Zero x-variance: slope 0, intercept = mean(y), matching the least-norm
  // convention documented on FitLine.
  RegressionMoments degenerate;
  degenerate.Add(2.0, 1.0);
  degenerate.Add(2.0, 3.0);
  degenerate.Add(2.0, 5.0);
  auto line = degenerate.FitLine();
  ASSERT_TRUE(line.ok());
  EXPECT_EQ(line->slope, 0.0);
  EXPECT_DOUBLE_EQ(line->intercept, 3.0);
}

TEST(StatsIncrementalTest, MergedMomentsGiveSameFitAsBatch) {
  // The maintainer's usage shape: per-batch moment accumulators merged, then
  // read out. The merged fit must agree with the all-at-once fit.
  uint64_t state = 4242;
  RegressionMoments batch;
  RegressionMoments merged;
  RegressionMoments chunk;
  int in_chunk = 0;
  for (int i = 0; i < 1000; ++i) {
    const double x = UnitUniform(&state) * 1.0e6 - 5.0e5;  // huge spread
    const double yv = -7.0 + 1.0e-3 * x + UnitUniform(&state);
    batch.Add(x, yv);
    chunk.Add(x, yv);
    if (++in_chunk == 37) {  // uneven batch boundary
      merged.Merge(chunk);
      chunk = RegressionMoments();
      in_chunk = 0;
    }
  }
  merged.Merge(chunk);

  auto batch_line = batch.FitLine();
  auto merged_line = merged.FitLine();
  ASSERT_TRUE(batch_line.ok());
  ASSERT_TRUE(merged_line.ok());
  // Sums are added in a different association, so allow rounding slack.
  ExpectClose(merged_line->intercept, batch_line->intercept, 1000.0, "intercept");
  ExpectClose(merged_line->slope, batch_line->slope, 1000.0, "slope");
  ExpectClose(merged.ConstBeta(), batch.ConstBeta(), 1000.0, "beta");
}

}  // namespace
}  // namespace cape
