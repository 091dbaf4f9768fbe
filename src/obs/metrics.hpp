#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

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

/// Aggregate of a named code region's durations, fed by obs::ScopedTimer.
/// Keeps O(1) summary stats: count, total and max nanoseconds.
class TimerStat {
 public:
  void record_ns(std::uint64_t ns) noexcept {
    ++count_;
    total_ns_ += ns;
    if (ns > max_ns_) max_ns_ = ns;
  }

  /// Shard fold: counts and totals add, max is the max.
  void merge(const TimerStat& other) noexcept {
    count_ += other.count_;
    total_ns_ += other.total_ns_;
    if (other.max_ns_ > max_ns_) max_ns_ = other.max_ns_;
  }

  std::uint64_t count() const noexcept { return count_; }
  std::uint64_t total_ns() const noexcept { return total_ns_; }
  std::uint64_t max_ns() const noexcept { return max_ns_; }

 private:
  std::uint64_t count_ = 0;
  std::uint64_t total_ns_ = 0;
  std::uint64_t max_ns_ = 0;
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
  TimerStat& timer(const std::string& name) { return timers_[name]; }
  Digest& digest(const std::string& name) { return digests_[name]; }

  /// Folds every metric of `other` into this registry, creating names that
  /// do not exist yet. Deterministic given the merge order: counters
  /// and timers add (order-independent); gauges are last-writer
  /// (the later merge wins); digests fold in order (exact sample replay
  /// while the shard fits its head buffer — see Digest::merge). Callers
  /// merge worker shards in ascending seed order so the result is
  /// bit-identical to serial execution for any thread count.
  void merge(const MetricsRegistry& other);

  bool empty() const noexcept {
    return counters_.empty() && gauges_.empty() && timers_.empty() &&
           digests_.empty();
  }

  const std::map<std::string, Counter>& counters() const noexcept {
    return counters_;
  }
  const std::map<std::string, Gauge>& gauges() const noexcept {
    return gauges_;
  }
  const std::map<std::string, TimerStat>& timers() const noexcept {
    return timers_;
  }
  const std::map<std::string, Digest>& digests() const noexcept {
    return digests_;
  }

  /// Dumps the whole registry as one JSON object:
  ///   {"counters": {...}, "gauges": {...},
  ///    "timers": {name: {count, total_ns, max_ns, mean_ns}},
  ///    "digests": {name: {count, min, max, mean, p50, p90, p95, p99}}}
  void write_json(std::ostream& os) const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, TimerStat> timers_;
  std::map<std::string, Digest> digests_;
};

}  // namespace beepmis::obs
