#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>

#include "src/obs/digest.hpp"

namespace beepmis::obs {

/// Monotone event counter. O(1), no allocation after registration.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) noexcept { value_ += delta; }
  std::uint64_t value() const noexcept { return value_; }

  /// Shard fold: counts add.
  void merge(const Counter& other) noexcept { value_ += other.value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-written scalar (sizes, rates, benchmark readings).
class Gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  void add(double v) noexcept { value_ += v; }
  double value() const noexcept { return value_; }

  /// Shard fold: last writer wins. Coordinators merge shards in ascending
  /// seed order, so the surviving value is the highest-seed replica's —
  /// exactly what serial execution would have left behind.
  void merge(const Gauge& other) noexcept { value_ = other.value_; }

 private:
  double value_ = 0.0;
};

/// Log-scale (power-of-two) histogram of non-negative integer samples:
/// bucket 0 holds the value 0 and bucket i >= 1 holds [2^{i-1}, 2^i).
/// 65 buckets cover the full uint64 range; record() is a bit_width plus
/// three increments — cheap enough for per-round hot loops.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;

  void record(std::uint64_t v) noexcept {
    buckets_[bucket_index(v)] += 1;
    ++count_;
    sum_ += v;
  }

  /// Index of the bucket that holds `v` (== bit width of v).
  static unsigned bucket_index(std::uint64_t v) noexcept {
    return static_cast<unsigned>(std::bit_width(v));
  }
  /// Inclusive upper bound of bucket i: 0 for bucket 0, 2^i - 1 otherwise.
  static std::uint64_t bucket_upper_bound(unsigned i) noexcept {
    return i == 0 ? 0 : (i >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << i) - 1);
  }

  std::uint64_t count() const noexcept { return count_; }
  std::uint64_t sum() const noexcept { return sum_; }
  double mean() const noexcept {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  const std::array<std::uint64_t, kBuckets>& buckets() const noexcept {
    return buckets_;
  }

  /// Shard fold: bucket-wise addition — exact and order-independent.
  void merge(const Histogram& other) noexcept {
    for (std::size_t i = 0; i < kBuckets; ++i)
      buckets_[i] += other.buckets_[i];
    count_ += other.count_;
    sum_ += other.sum_;
  }

  /// Exact [lo, hi] value bounds of the bucket holding the q-th order
  /// statistic (q in [0,1]). The true quantile is guaranteed to lie in the
  /// returned range — a pow2 envelope, as tight as the bucketing allows.
  /// Requires at least one recorded sample. Pair with obs::Digest when a
  /// point estimate (p50/p95/p99) is needed instead of an envelope.
  std::pair<std::uint64_t, std::uint64_t> quantile_bounds(double q) const;

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
};

/// Aggregate of a named code region's durations, fed by obs::ScopedTimer.
/// Keeps O(1) summary stats plus a log-scale distribution of nanoseconds.
class TimerStat {
 public:
  void record_ns(std::uint64_t ns) noexcept {
    ++count_;
    total_ns_ += ns;
    if (ns > max_ns_) max_ns_ = ns;
    hist_.record(ns);
  }

  /// Shard fold: counts and totals add, max is the max, and the duration
  /// distribution merges bucket-wise.
  void merge(const TimerStat& other) noexcept {
    count_ += other.count_;
    total_ns_ += other.total_ns_;
    if (other.max_ns_ > max_ns_) max_ns_ = other.max_ns_;
    hist_.merge(other.hist_);
  }

  std::uint64_t count() const noexcept { return count_; }
  std::uint64_t total_ns() const noexcept { return total_ns_; }
  std::uint64_t max_ns() const noexcept { return max_ns_; }
  const Histogram& histogram() const noexcept { return hist_; }

 private:
  std::uint64_t count_ = 0;
  std::uint64_t total_ns_ = 0;
  std::uint64_t max_ns_ = 0;
  Histogram hist_;
};

/// Central named-metric registry. Registration (the first lookup of a name)
/// allocates the map node; the returned reference is stable for the
/// registry's lifetime (std::map nodes never move), so hot loops register
/// once and then touch plain integers. Not thread-safe by design — the
/// sharding story is one *private* registry per worker task, folded into
/// the coordinator's registry with merge() in a deterministic order after
/// the parallel section (see docs/architecture.md); a registry is never
/// touched from two threads at once.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  Histogram& histogram(const std::string& name) { return histograms_[name]; }
  TimerStat& timer(const std::string& name) { return timers_[name]; }
  Digest& digest(const std::string& name) { return digests_[name]; }

  /// Folds every metric of `other` into this registry, creating names that
  /// do not exist yet. Deterministic given the merge order: counters,
  /// histograms and timers add (order-independent); gauges are last-writer
  /// (the later merge wins); digests fold in order (exact sample replay
  /// while the shard fits its head buffer — see Digest::merge). Callers
  /// merge worker shards in ascending seed order so the result is
  /// bit-identical to serial execution for any thread count.
  void merge(const MetricsRegistry& other);

  bool empty() const noexcept {
    return counters_.empty() && gauges_.empty() && histograms_.empty() &&
           timers_.empty() && digests_.empty();
  }

  const std::map<std::string, Counter>& counters() const noexcept {
    return counters_;
  }
  const std::map<std::string, Gauge>& gauges() const noexcept {
    return gauges_;
  }
  const std::map<std::string, Histogram>& histograms() const noexcept {
    return histograms_;
  }
  const std::map<std::string, TimerStat>& timers() const noexcept {
    return timers_;
  }
  const std::map<std::string, Digest>& digests() const noexcept {
    return digests_;
  }

  /// Dumps the whole registry as one JSON object:
  ///   {"counters": {...}, "gauges": {...},
  ///    "histograms": {name: {count, sum, buckets: [{le, count}, ...]}},
  ///    "timers": {name: {count, total_ns, max_ns, mean_ns}},
  ///    "digests": {name: {count, min, max, mean, p50, p90, p95, p99}}}
  /// Empty histogram buckets are omitted; bucket `le` is the inclusive
  /// upper bound of the bucket's value range.
  void write_json(std::ostream& os) const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
  std::map<std::string, TimerStat> timers_;
  std::map<std::string, Digest> digests_;
};

}  // namespace beepmis::obs
