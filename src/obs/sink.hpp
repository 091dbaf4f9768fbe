#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/json_parse.hpp"

namespace beepmis::obs {

/// One per-round telemetry record: |I_t|, |S_t|, |PM_t|, the per-channel
/// beep and heard counts, and the Lemma 3.1 census. Producers
/// (beep::Simulation, core::FastMisEngine, core::FastMisEngine2) fill the
/// communication fields; the running algorithm fills the state-census
/// fields via BeepingAlgorithm::fill_round_event (engines compute them
/// directly from their settlement bookkeeping).
///
/// `lemma31_violations` belongs to the paper's Algorithm 1 analysis
/// machinery (Lemma 3.1: ℓ_t(v) > 0 ∨ μ_t(v) > 0) and is only computed when
/// the observer asks for analysis (wants_analysis()), because it costs
/// O(n + m) per round. It is defined as 0 for Algorithm 2. `has_analysis`
/// records whether that field is meaningful in this event.
struct RoundEvent {
  std::uint64_t round = 0;       ///< 1-based: round just executed
  std::uint32_t beeps_ch1 = 0;   ///< nodes that beeped on channel 1
  std::uint32_t beeps_ch2 = 0;   ///< nodes that beeped on channel 2
  std::uint32_t heard_ch1 = 0;   ///< nodes that heard ≥1 beep on channel 1
  std::uint32_t heard_ch2 = 0;   ///< nodes that heard ≥1 beep on channel 2
  std::uint32_t heard_any = 0;   ///< nodes that heard on any channel
  std::uint32_t prominent = 0;   ///< |PM_t| (Alg 1: ℓ ≤ 0; Alg 2: ℓ = 0)
  std::uint32_t stable = 0;      ///< |S_t| = |I_t ∪ N(I_t)|
  std::uint32_t mis = 0;         ///< |I_t|
  std::uint32_t active = 0;      ///< n − |S_t| (unsettled vertices)
  std::uint32_t lemma31_violations = 0;  ///< Alg 1 analysis, 0 otherwise
  bool has_analysis = false;     ///< lemma31_violations was computed

  friend bool operator==(const RoundEvent&, const RoundEvent&) = default;
};

/// Receiver of per-round events. Attach to a beep::Simulation
/// (add_observer) or a fast engine (set_observer); the producer calls
/// on_round exactly once per executed round, after state updates.
class RoundObserver {
 public:
  virtual ~RoundObserver() = default;

  virtual void on_round(const RoundEvent& event) = 0;

  /// Return true to make producers pay for the O(n + m) analysis fields
  /// (currently lemma31_violations). Default: cheap events only.
  virtual bool wants_analysis() const { return false; }
};

/// Streams events as JSON Lines: one self-contained JSON object per round,
/// newline-terminated, no trailing commas — each line parses independently,
/// so partial files from interrupted runs stay usable. Formatting is a
/// single snprintf into a stack buffer (no allocation per event).
///
/// Thread-safety: each event is formatted outside the lock, then appended
/// under a mutex as one whole-line write, so concurrent producers can share
/// a sink without ever interleaving records. Lines from different threads
/// arrive in whatever order the threads run, though — deterministic
/// pipelines buffer per task (BufferedSink) and flush from the coordinator
/// instead of sharing the sink, keeping the mutex as the safety net for
/// ad-hoc concurrent use.
class JsonlSink final : public RoundObserver {
 public:
  /// The sink borrows `os`; the caller keeps it alive and open.
  explicit JsonlSink(std::ostream& os, bool with_analysis = false)
      : os_(&os), with_analysis_(with_analysis) {}

  void on_round(const RoundEvent& event) override;
  bool wants_analysis() const override { return with_analysis_; }

  std::uint64_t lines_written() const noexcept {
    std::lock_guard<std::mutex> lock(mu_);
    return lines_;
  }

 private:
  std::ostream* os_;
  bool with_analysis_;
  std::uint64_t lines_ = 0;  // guarded by mu_
  mutable std::mutex mu_;    // guards os_ writes and lines_
};

/// Checks one parsed JsonlSink line for the fields beepmis_report reads:
/// "round" is an integer in [0, 2^53], and so is "active" when present.
bool event_validate(const JsonValue& line, std::string* error);

/// Per-task event buffer for deterministic parallel runs: each worker task
/// records its replica's events privately, and the coordinator flushes the
/// buffers downstream in ascending seed order after the parallel section —
/// so one replica's JSONL records are always contiguous and the combined
/// stream is byte-identical to a serial run for any thread count.
/// wants_analysis() forwards the downstream's preference so producers pay
/// for the O(n + m) analysis census exactly when the final consumer asks.
class BufferedSink final : public RoundObserver {
 public:
  explicit BufferedSink(RoundObserver* downstream = nullptr)
      : downstream_(downstream) {}

  void on_round(const RoundEvent& event) override {
    events_.push_back(event);
  }
  bool wants_analysis() const override {
    return downstream_ != nullptr && downstream_->wants_analysis();
  }

  /// Replays the buffered events into the downstream observer, in order,
  /// then clears the buffer. No-op without a downstream.
  void flush() {
    if (downstream_ != nullptr)
      for (const RoundEvent& e : events_) downstream_->on_round(e);
    events_.clear();
  }

  const std::vector<RoundEvent>& events() const noexcept { return events_; }
  std::size_t size() const noexcept { return events_.size(); }

 private:
  RoundObserver* downstream_;
  std::vector<RoundEvent> events_;
};

/// Fans one event stream out to several observers. core::Engine exposes a
/// single set_observer slot; compose with this when a run needs an event
/// sink, a progress meter and a trace collector at once.
class TeeObserver final : public RoundObserver {
 public:
  void add(RoundObserver* observer) {
    if (observer != nullptr) observers_.push_back(observer);
  }
  bool empty() const noexcept { return observers_.empty(); }

  void on_round(const RoundEvent& event) override {
    for (RoundObserver* o : observers_) o->on_round(event);
  }
  bool wants_analysis() const override {
    for (const RoundObserver* o : observers_)
      if (o->wants_analysis()) return true;
    return false;
  }

 private:
  std::vector<RoundObserver*> observers_;
};

/// Buffers events in memory — for tests and for post-run aggregation.
class MemorySink final : public RoundObserver {
 public:
  explicit MemorySink(bool with_analysis = false)
      : with_analysis_(with_analysis) {}

  void on_round(const RoundEvent& event) override {
    events_.push_back(event);
  }
  bool wants_analysis() const override { return with_analysis_; }

  const std::vector<RoundEvent>& events() const noexcept { return events_; }
  void clear() { events_.clear(); }

 private:
  std::vector<RoundEvent> events_;
  bool with_analysis_;
};

}  // namespace beepmis::obs
