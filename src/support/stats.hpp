#pragma once

#include <cstddef>
#include <vector>

namespace beepmis::support {

/// Single-pass running statistics (Welford's algorithm): numerically stable
/// mean/variance plus min/max, without storing samples.
class RunningStats {
 public:
  void add(double x) noexcept;
  void merge(const RunningStats& other) noexcept;

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Unbiased sample variance; 0 for fewer than two samples.
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Stores all samples; supports exact order statistics. Used by the
/// experiment harness where sample counts are small (tens to thousands).
class SampleSet {
 public:
  void add(double x);
  std::size_t count() const noexcept { return xs_.size(); }
  double mean() const noexcept;
  double stddev() const noexcept;
  double min() const;
  double max() const;
  /// Exact q-quantile (q in [0,1]) by linear interpolation between order
  /// statistics. Requires at least one sample.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  const std::vector<double>& samples() const noexcept { return xs_; }

 private:
  mutable std::vector<double> xs_;
  mutable bool sorted_ = false;
  void ensure_sorted() const;
};

}  // namespace beepmis::support
