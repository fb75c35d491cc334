#ifndef CAPE_STATS_DESCRIPTIVE_H_
#define CAPE_STATS_DESCRIPTIVE_H_

#include <cstddef>
#include <vector>

namespace cape {

/// Single-pass numerically-stable accumulator (Welford) for mean/variance.
class RunningStats {
 public:
  void Add(double x) {
    ++n_;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    if (n_ == 1 || x < min_) min_ = x;
    if (n_ == 1 || x > max_) max_ = x;
  }

  size_t count() const { return n_; }
  double mean() const { return n_ == 0 ? 0.0 : mean_; }
  /// Population variance (divide by n).
  double variance() const { return n_ == 0 ? 0.0 : m2_ / static_cast<double>(n_); }
  /// Sample variance (divide by n-1); 0 when n < 2.
  double sample_variance() const {
    return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
  }
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

double Mean(const std::vector<double>& xs);
double Variance(const std::vector<double>& xs);
double StdDev(const std::vector<double>& xs);
/// Median (average of middle two for even n); 0 for empty input.
double Median(std::vector<double> xs);

}  // namespace cape

#endif  // CAPE_STATS_DESCRIPTIVE_H_
