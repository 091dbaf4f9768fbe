#include "src/support/stats.hpp"

#include <algorithm>
#include <cmath>

#include "src/support/check.hpp"

namespace beepmis::support {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double nt = na + nb;
  mean_ += delta * nb / nt;
  m2_ += other.m2_ + delta * delta * na * nb / nt;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

double RunningStats::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

void SampleSet::add(double x) {
  xs_.push_back(x);
  sorted_ = false;
}

void SampleSet::ensure_sorted() const {
  if (!sorted_) {
    std::sort(xs_.begin(), xs_.end());
    sorted_ = true;
  }
}

double SampleSet::mean() const noexcept {
  if (xs_.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs_) s += x;
  return s / static_cast<double>(xs_.size());
}

double SampleSet::stddev() const noexcept {
  if (xs_.size() < 2) return 0.0;
  const double m = mean();
  double s = 0.0;
  for (double x : xs_) s += (x - m) * (x - m);
  return std::sqrt(s / static_cast<double>(xs_.size() - 1));
}

double SampleSet::min() const {
  BEEPMIS_CHECK(!xs_.empty(), "min of empty sample set");
  ensure_sorted();
  return xs_.front();
}

double SampleSet::max() const {
  BEEPMIS_CHECK(!xs_.empty(), "max of empty sample set");
  ensure_sorted();
  return xs_.back();
}

double SampleSet::quantile(double q) const {
  BEEPMIS_CHECK(!xs_.empty(), "quantile of empty sample set");
  BEEPMIS_CHECK(q >= 0.0 && q <= 1.0, "quantile q outside [0,1]");
  ensure_sorted();
  if (xs_.size() == 1) return xs_[0];
  const double pos = q * static_cast<double>(xs_.size() - 1);
  const auto i = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(i);
  if (i + 1 >= xs_.size()) return xs_.back();
  return xs_[i] * (1.0 - frac) + xs_[i + 1] * frac;
}

}  // namespace beepmis::support
