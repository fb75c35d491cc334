#include "stats/regression.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"
#include "stats/descriptive.h"
#include "stats/distributions.h"

namespace cape {

namespace {

/// Solves the symmetric positive (semi-)definite system A x = b in place via
/// Gaussian elimination with partial pivoting. Near-singular pivots receive
/// a small ridge damping so degenerate designs (e.g. duplicate predictor
/// values) still produce a usable least-squares solution.
std::vector<double> SolveLinearSystem(std::vector<std::vector<double>> A,
                                      std::vector<double> b) {
  const size_t n = b.size();
  constexpr double kRidge = 1e-9;
  for (size_t i = 0; i < n; ++i) A[i][i] += kRidge;

  for (size_t col = 0; col < n; ++col) {
    size_t pivot = col;
    for (size_t r = col + 1; r < n; ++r) {
      if (std::fabs(A[r][col]) > std::fabs(A[pivot][col])) pivot = r;
    }
    std::swap(A[col], A[pivot]);
    std::swap(b[col], b[pivot]);
    double diag = A[col][col];
    if (std::fabs(diag) < 1e-30) continue;  // fully degenerate direction -> 0 coef
    for (size_t r = col + 1; r < n; ++r) {
      double factor = A[r][col] / diag;
      if (factor == 0.0) continue;
      for (size_t c = col; c < n; ++c) A[r][c] -= factor * A[col][c];
      b[r] -= factor * b[col];
    }
  }
  std::vector<double> x(n, 0.0);
  for (size_t i = n; i-- > 0;) {
    double sum = b[i];
    for (size_t c = i + 1; c < n; ++c) sum -= A[i][c] * x[c];
    x[i] = std::fabs(A[i][i]) < 1e-30 ? 0.0 : sum / A[i][i];
  }
  return x;
}

}  // namespace

const char* ModelTypeToString(ModelType type) {
  switch (type) {
    case ModelType::kConst:
      return "Const";
    case ModelType::kLinear:
      return "Lin";
  }
  return "?";
}

Result<std::unique_ptr<ConstantRegression>> ConstantRegression::Fit(
    const std::vector<double>& y) {
  if (y.empty()) {
    return Status::InvalidArgument("constant regression requires at least one sample");
  }
  RunningStats stats;
  for (double v : y) stats.Add(v);
  const double beta = stats.mean();
  const size_t n = y.size();

  double gof;
  bool exact = true;
  for (double v : y) {
    if (v != beta) {
      exact = false;
      break;
    }
  }
  if (exact) {
    gof = 1.0;
  } else if (n < 2) {
    gof = 1.0;  // a single point is fitted exactly by its own mean
  } else if (beta > 0.0) {
    // Pearson chi-square statistic against the constant expectation
    // (Section 2.1). Correctly sized for count-like data (var ≈ mean): a
    // clean Poisson fragment gets stat ≈ dof and a healthy p-value, while a
    // dispersed fragment (e.g. per-author counts within a year) gets
    // stat >> dof and p ≈ 0 — which is what prunes spurious patterns.
    double stat = 0.0;
    for (double v : y) {
      double diff = v - beta;
      stat += diff * diff / beta;
    }
    gof = ChiSquareSf(stat, static_cast<double>(n - 1));
  } else {
    // Chi-square is undefined for non-positive expectations; RMSE fallback.
    double sse = 0.0;
    for (double v : y) {
      double diff = v - beta;
      sse += diff * diff;
    }
    double rmse = std::sqrt(sse / static_cast<double>(n));
    gof = 1.0 / (1.0 + rmse / (std::fabs(beta) + 1.0));
  }
  gof = std::clamp(gof, 0.0, 1.0);
  return std::unique_ptr<ConstantRegression>(new ConstantRegression(beta, gof, n));
}

double ConstantRegression::Predict(const std::vector<double>& /*x*/) const { return beta_; }

std::string ConstantRegression::ToString() const {
  return "g(x) = " + FormatDouble(beta_);
}

Result<std::unique_ptr<LinearRegression>> LinearRegression::Fit(
    const std::vector<std::vector<double>>& X, const std::vector<double>& y) {
  const size_t n = y.size();
  if (n == 0) {
    return Status::InvalidArgument("linear regression requires at least one sample");
  }
  if (X.size() != n) {
    return Status::InvalidArgument("design matrix has " + std::to_string(X.size()) +
                                   " rows, response has " + std::to_string(n));
  }
  const size_t p = X[0].size();
  for (const auto& row : X) {
    if (row.size() != p) {
      return Status::InvalidArgument("inconsistent design-matrix row widths");
    }
  }
  const size_t k = p + 1;  // intercept + slopes

  // Normal equations: (Z^T Z) beta = Z^T y with Z = [1 | X].
  std::vector<std::vector<double>> ZtZ(k, std::vector<double>(k, 0.0));
  std::vector<double> Zty(k, 0.0);
  std::vector<double> z(k);
  for (size_t i = 0; i < n; ++i) {
    z[0] = 1.0;
    for (size_t j = 0; j < p; ++j) z[j + 1] = X[i][j];
    for (size_t a = 0; a < k; ++a) {
      Zty[a] += z[a] * y[i];
      for (size_t b = a; b < k; ++b) ZtZ[a][b] += z[a] * z[b];
    }
  }
  for (size_t a = 0; a < k; ++a) {
    for (size_t b = 0; b < a; ++b) ZtZ[a][b] = ZtZ[b][a];
  }
  std::vector<double> coef = SolveLinearSystem(std::move(ZtZ), std::move(Zty));

  // R-squared on the training data.
  const double y_mean = Mean(y);
  double ss_res = 0.0;
  double ss_tot = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double pred = coef[0];
    for (size_t j = 0; j < p; ++j) pred += coef[j + 1] * X[i][j];
    ss_res += (y[i] - pred) * (y[i] - pred);
    ss_tot += (y[i] - y_mean) * (y[i] - y_mean);
  }
  double gof;
  constexpr double kExactTol = 1e-18;
  if (ss_tot <= kExactTol) {
    gof = ss_res <= 1e-12 ? 1.0 : 0.0;
  } else {
    gof = 1.0 - ss_res / ss_tot;
  }
  // Ridge damping can leave a vanishing residual on exact fits; snap to 1.
  if (ss_res <= 1e-12 * std::max(1.0, ss_tot)) gof = 1.0;
  gof = std::clamp(gof, 0.0, 1.0);
  return std::unique_ptr<LinearRegression>(new LinearRegression(std::move(coef), gof, n));
}

double LinearRegression::Predict(const std::vector<double>& x) const {
  double pred = coef_[0];
  const size_t p = coef_.size() - 1;
  for (size_t j = 0; j < p && j < x.size(); ++j) pred += coef_[j + 1] * x[j];
  return pred;
}

std::string LinearRegression::ToString() const {
  std::string out = "g(x) = " + FormatDouble(coef_[0]);
  for (size_t j = 1; j < coef_.size(); ++j) {
    out += (coef_[j] < 0 ? " - " : " + ") + FormatDouble(std::fabs(coef_[j])) + "*x" +
           std::to_string(j);
  }
  return out;
}

Result<std::unique_ptr<RegressionModel>> FitRegression(
    ModelType type, const std::vector<std::vector<double>>& X,
    const std::vector<double>& y) {
  switch (type) {
    case ModelType::kConst: {
      auto fitted = ConstantRegression::Fit(y);
      if (!fitted.ok()) return fitted.status();
      return std::unique_ptr<RegressionModel>(std::move(fitted).ValueOrDie());
    }
    case ModelType::kLinear: {
      auto fitted = LinearRegression::Fit(X, y);
      if (!fitted.ok()) return fitted.status();
      return std::unique_ptr<RegressionModel>(std::move(fitted).ValueOrDie());
    }
  }
  return Status::InvalidArgument("unknown model type");
}

}  // namespace cape
