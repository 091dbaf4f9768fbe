#pragma once

#include <cstddef>
#include <string>
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

/// Fixed-width histogram over [lo, hi) with overflow/underflow buckets.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);
  void add(double x) noexcept;
  std::size_t count_at(std::size_t i) const { return counts_.at(i); }
  std::size_t underflow() const noexcept { return underflow_; }
  std::size_t overflow() const noexcept { return overflow_; }
  std::size_t total() const noexcept { return total_; }
  double bucket_lo(std::size_t i) const;
  /// Render as a fixed-width ASCII bar chart, one bucket per line.
  std::string ascii(std::size_t bar_width = 50) const;

 private:
  double lo_, hi_, width_;
  std::vector<std::size_t> counts_;
  std::size_t underflow_ = 0, overflow_ = 0, total_ = 0;
};

}  // namespace beepmis::support
