#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/json_parse.hpp"

namespace beepmis::obs {

/// Fixed phase order of a sample's timing block, matching the sharded
/// kernel's barrier phases (core::kShardPhaseKeys — duplicated here because
/// obs cannot depend on core; tests pin the two lists against each other).
inline constexpr std::size_t kTimeSeriesPhases = 6;
inline constexpr const char* kTimeSeriesPhaseKeys[kTimeSeriesPhases] = {
    "decide", "stamp", "update", "apply", "settle", "fold"};

/// One periodic sample of a long run. The first four fields are pure
/// functions of (graph, config) — byte-identical for any thread or shard
/// count — while everything below them is wall-clock measurement; the
/// beepmis.timeseries.v1 document keeps that split explicit by nesting the
/// measured fields under a per-sample "timing" object, which the canonical
/// projection (timeseries_write_canonical) strips for determinism diffs.
struct TimeSeriesSample {
  std::uint64_t round = 0;
  std::uint64_t active = 0;  ///< unsettled vertices entering the round
  std::uint64_t beeps = 0;   ///< beeping vertices this round (all channels)
  std::uint64_t mis = 0;     ///< settled MIS members, |I_t|

  // Timing block: means per round over the sampling window.
  double round_ms = 0.0;     ///< wall ms per round
  double imbalance = 0.0;    ///< max/mean shard busy (0 = no shard telemetry)
  double barrier_ms = 0.0;   ///< idle-at-barrier ms per round
  std::array<double, kTimeSeriesPhases> phase_ms{};  ///< per-phase wall ms
  bool has_phases = false;   ///< shard telemetry contributed this window
};

/// Ring-buffered periodic sampler behind `beepmis_cli --timeseries-out`: a
/// fixed-capacity ring of samples (allocated once in the constructor — the
/// hot path never allocates), recording every `every`-th round and
/// overwriting the oldest sample when full, the tracer's drop-and-count
/// convention. write_json emits the strict-validated beepmis.timeseries.v1
/// document; everything it contains except each sample's "timing" object is
/// deterministic, so CI diffs the canonical projection across shard counts.
class TimeSeries {
 public:
  /// `capacity` bounds memory (samples kept; oldest overwritten beyond it),
  /// `every` is the sampling cadence in rounds (0 disables — due() is then
  /// never true).
  explicit TimeSeries(std::size_t capacity, std::uint64_t every);

  std::uint64_t every() const noexcept { return every_; }
  /// True when `round` (1-based, the engine's post-step round index) is a
  /// sampling point.
  bool due(std::uint64_t round) const noexcept {
    return every_ != 0 && round % every_ == 0;
  }

  /// Appends one sample: ring write, no allocation.
  void record(const TimeSeriesSample& sample);

  std::uint64_t recorded() const noexcept { return recorded_; }
  std::uint64_t dropped() const noexcept {
    return recorded_ > ring_.size() ? recorded_ - ring_.size() : 0;
  }

  /// Adds a context key/value (algorithm, family, n, seed, shards — the
  /// report keys its tables off these). Last write per key wins.
  void set_context(const std::string& key, const std::string& value);

  /// Writes the beepmis.timeseries.v1 document (one JSON object + newline).
  void write_json(std::ostream& os) const;

 private:
  std::vector<TimeSeriesSample> ring_;
  std::size_t head_ = 0;  ///< next write position
  std::uint64_t recorded_ = 0;
  std::uint64_t every_;
  std::vector<std::pair<std::string, std::string>> context_;
};

/// Strict beepmis.timeseries.v1 validation: schema tag; cadence, capacity
/// and counts that are integers in [0, 2^53] (every and capacity >= 1) and
/// add up (samples.size() == min(recorded, capacity), dropped == recorded -
/// samples.size()); a context object; and per-sample shape (increasing
/// rounds and active/beeps/mis integers in [0, 2^53], plus a "timing"
/// object with round_ms/imbalance/barrier_ms and a phase_ms object).
/// Returns false with a description in `error` (if non-null) on the first
/// violation.
bool timeseries_validate(const JsonValue& doc, std::string* error = nullptr);

/// Writes the deterministic projection of a valid timeseries.v1 document:
/// the same document minus every sample's "timing" object. Two runs of the
/// same (graph, config) produce byte-identical projections for any
/// --shard-threads value — the determinism gates diff exactly this.
bool timeseries_write_canonical(const JsonValue& doc, std::ostream& os,
                                std::string* error = nullptr);

}  // namespace beepmis::obs
