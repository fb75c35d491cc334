#ifndef CAPE_STATS_REGRESSION_H_
#define CAPE_STATS_REGRESSION_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"

namespace cape {

/// Regression model types used by ARPs (Section 2.1): constant regression
/// (GoF = Pearson chi-square p-value) and linear regression (GoF = R²).
enum class ModelType : int { kConst = 0, kLinear = 1 };

const char* ModelTypeToString(ModelType type);

/// A fitted regression model g : X -> Y together with its goodness of fit.
///
/// GoF is normalized to [0,1] with GoF = 1 iff the model predicts every
/// training point exactly, matching the paper's requirement in Section 2.1.
class RegressionModel {
 public:
  virtual ~RegressionModel() = default;

  virtual ModelType type() const = 0;

  /// Predicted aggregate value at predictor point `x` (one entry per
  /// predictor variable; constant models ignore x).
  virtual double Predict(const std::vector<double>& x) const = 0;

  /// Goodness of fit in [0,1] computed on the training data.
  virtual double goodness_of_fit() const = 0;

  /// Number of training samples the model was fitted on.
  virtual size_t num_samples() const = 0;

  /// Human-readable form, e.g. "g(x) = 2.5" or "g(x) = 1.2*x1 + 3.4".
  virtual std::string ToString() const = 0;
};

/// g(x) = beta (the training mean). GoF is the p-value of the Pearson
/// chi-square statistic on mean-normalized observations,
/// sum(((y_i - beta)/beta)^2), with n-1 degrees of freedom (Section 2.1
/// cites Pearson 1900; normalization makes the measure scale-free — see
/// DESIGN.md). When the mean is exactly zero the normalization is undefined
/// and GoF falls back to 1/(1 + RMSE/(|beta|+1)); both variants equal 1 iff
/// the fit is exact.
class ConstantRegression final : public RegressionModel {
 public:
  /// Fits on the dependent values alone (predictors are irrelevant).
  static Result<std::unique_ptr<ConstantRegression>> Fit(const std::vector<double>& y);

  /// Reconstructs a fitted model from its parameters (pattern_io.h
  /// deserialization); not a fitting entry point.
  static std::unique_ptr<ConstantRegression> FromParams(double beta, double gof, size_t n) {
    return std::unique_ptr<ConstantRegression>(new ConstantRegression(beta, gof, n));
  }

  ModelType type() const override { return ModelType::kConst; }
  double Predict(const std::vector<double>& x) const override;
  double goodness_of_fit() const override { return gof_; }
  size_t num_samples() const override { return n_; }
  std::string ToString() const override;

  double beta() const { return beta_; }

 private:
  ConstantRegression(double beta, double gof, size_t n) : beta_(beta), gof_(gof), n_(n) {}

  double beta_;
  double gof_;
  size_t n_;
};

/// Ordinary least squares g(x) = b0 + b1*x1 + ... + bp*xp, fitted via the
/// normal equations (p is small: pattern predictor sets are tiny). GoF is
/// R² = 1 - SS_res/SS_tot clamped to [0,1]; when SS_tot = 0 (constant y)
/// R² is 1 for an exact fit and 0 otherwise.
class LinearRegression final : public RegressionModel {
 public:
  /// Fits on design matrix X (n rows, each with p predictor values) and
  /// response y (n values). Requires n >= 1, consistent row widths, and a
  /// non-singular normal system (degenerate systems are solved in the
  /// least-norm sense via ridge damping).
  static Result<std::unique_ptr<LinearRegression>> Fit(
      const std::vector<std::vector<double>>& X, const std::vector<double>& y);

  /// Reconstructs a fitted model from its parameters (pattern_io.h
  /// deserialization); coef[0] is the intercept. Not a fitting entry point.
  static std::unique_ptr<LinearRegression> FromParams(std::vector<double> coef, double gof,
                                                      size_t n) {
    return std::unique_ptr<LinearRegression>(
        new LinearRegression(std::move(coef), gof, n));
  }

  ModelType type() const override { return ModelType::kLinear; }
  double Predict(const std::vector<double>& x) const override;
  double goodness_of_fit() const override { return gof_; }
  size_t num_samples() const override { return n_; }
  std::string ToString() const override;

  /// coefficients()[0] is the intercept; [i] the slope of predictor i-1.
  const std::vector<double>& coefficients() const { return coef_; }

 private:
  LinearRegression(std::vector<double> coef, double gof, size_t n)
      : coef_(std::move(coef)), gof_(gof), n_(n) {}

  std::vector<double> coef_;
  double gof_;
  size_t n_;
};

/// Fits a model of the requested type. For kConst, X may be empty.
Result<std::unique_ptr<RegressionModel>> FitRegression(
    ModelType type, const std::vector<std::vector<double>>& X,
    const std::vector<double>& y);

}  // namespace cape

#endif  // CAPE_STATS_REGRESSION_H_
