#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/sink.hpp"

namespace beepmis::obs {

/// What counts as "something is wrong" for a self-stabilizing MIS run. All
/// thresholds are in terms of the per-round event stream, so detection is
/// O(1) per round on top of whatever the producer already pays.
struct AnomalyConfig {
  /// Vertex count of the instance (beep-storm threshold is relative to it).
  std::uint32_t n = 0;

  /// The variant's expected stabilization horizon — O(log n) rounds w.h.p.
  /// per Thm 2.1/2.2/Cor 2.3; callers typically pass
  /// exp::default_round_budget(n). 0 disables the stall and Lemma 3.1
  /// checks.
  std::uint64_t expected_rounds = 0;

  /// Both horizons below count rounds from the start of the current
  /// unsettled stretch: the round after the last settled (active == 0)
  /// event, or the start of the run, or the last reset(). A fault wave that
  /// re-stabilizes within the budget therefore never looks like a stall,
  /// however late in the run it lands.
  ///
  /// Stall: still-unstabilized (active > 0) past
  /// stall_multiple × expected_rounds.
  double stall_multiple = 2.0;

  /// Lemma 3.1 persistence: lemma31_violations > 0 for this many consecutive
  /// analysis-bearing rounds after expected_rounds have elapsed. Requires
  /// check_lemma31 (the producer then pays O(n + m) per round for the
  /// census). 0 disables.
  std::uint64_t lemma_window = 64;
  bool check_lemma31 = false;

  /// Beep storm: heard_any ≥ storm_fraction × n for storm_window consecutive
  /// rounds. A healthy run quiets down as vertices settle; a saturated
  /// channel that never decays indicates livelock or mis-wired feedback.
  /// storm_window 0 disables.
  double storm_fraction = 0.95;
  std::uint64_t storm_window = 64;
};

/// The first three fire from the event stream via AnomalyDetector; the
/// Invariant* kinds are latched externally by obs::InvariantMonitor when a
/// settlement probe catches the matching invariant broken.
enum class AnomalyKind {
  Stall,
  Lemma31Persistence,
  BeepStorm,
  InvariantIndependence,
  InvariantMaximality,
  InvariantLevelRange,
};
inline constexpr std::size_t kAnomalyKinds = 6;
std::string anomaly_kind_name(AnomalyKind kind);

/// Latched per-kind anomaly detection over a round-event stream. Each kind
/// fires exactly once per arm (a stall that persists for 10⁶ rounds is one
/// anomaly, not 10⁶); reset() re-arms everything for the next run.
class AnomalyDetector {
 public:
  explicit AnomalyDetector(const AnomalyConfig& config) : config_(config) {}

  /// Feeds one event; returns the kinds that newly fired on it (usually
  /// empty, never reports a kind twice between resets).
  std::vector<AnomalyKind> observe(const RoundEvent& event);

  /// Latches an externally detected kind (the Invariant* anomalies, which
  /// no event-stream rule can fire). Returns true when newly latched.
  bool latch_external(AnomalyKind kind);

  void reset();
  bool fired(AnomalyKind kind) const {
    return fired_[static_cast<std::size_t>(kind)];
  }
  const AnomalyConfig& config() const noexcept { return config_; }
  /// Rounds into an unsettled stretch beyond which it counts as stalled.
  std::uint64_t stall_threshold() const noexcept {
    return static_cast<std::uint64_t>(
        config_.stall_multiple * static_cast<double>(config_.expected_rounds));
  }

 private:
  AnomalyConfig config_;
  bool fired_[kAnomalyKinds] = {};
  std::uint64_t settled_round_ = 0;  // last active == 0 round, or the start
  std::uint64_t lemma_run_ = 0;
  std::uint64_t storm_run_ = 0;
};

/// Identity block reproduced verbatim in the dump so it is self-contained:
/// everything needed to rerun the scenario that misbehaved.
struct FlightContext {
  std::string tool;
  std::uint64_t seed = 0;
  std::string graph_name;
  std::string family;
  std::uint64_t n = 0;
  std::uint64_t m = 0;
  std::uint64_t max_degree = 0;
  std::string algorithm;
  std::string init_policy;
  std::string engine;
  std::vector<std::pair<std::string, std::string>> extra;

  void add_extra(std::string key, std::string value) {
    extra.emplace_back(std::move(key), std::move(value));
  }
};

/// Black-box flight recorder: a RoundObserver keeping the last
/// `ring_capacity` events plus (optionally) periodic per-node level
/// snapshots, and watching the stream through an AnomalyDetector. When an
/// anomaly fires it writes a self-contained "beepmis.dump.v1" JSON document
/// — run identity, detector configuration, the event ring, the level
/// snapshots, and the levels at dump time — to the configured path, so a
/// mis-behaving 10⁶-round soak leaves a post-mortem instead of a shrug.
/// Attach via core::Engine::set_observer (compose with TeeObserver for
/// additional sinks); beepmis_cli exposes it as --flight-recorder and
/// beepmis_soak arms it on every scenario.
class FlightRecorder final : public RoundObserver {
 public:
  /// Returns the current per-vertex levels; wired by the attach site (the
  /// obs layer cannot see core::Engine). Optional — without it dumps just
  /// omit snapshots and final levels.
  using LevelProbe = std::function<std::vector<std::int32_t>()>;

  FlightRecorder(std::size_t ring_capacity, const AnomalyConfig& anomaly,
                 FlightContext context);

  void set_level_probe(LevelProbe probe) { probe_ = std::move(probe); }
  /// Take a level snapshot every `rounds` rounds (0 = off). The last
  /// kMaxSnapshots are retained.
  void set_snapshot_every(std::uint64_t rounds) { snapshot_every_ = rounds; }
  /// Auto-write the dump to this file whenever an anomaly fires (the file is
  /// rewritten per fire, so it always holds the complete anomaly list).
  void set_dump_path(std::string path) { dump_path_ = std::move(path); }

  void on_round(const RoundEvent& event) override;
  bool wants_analysis() const override { return detector_.config().check_lemma31; }

  struct Anomaly {
    AnomalyKind kind;
    std::uint64_t round;
  };
  const std::vector<Anomaly>& anomalies() const noexcept { return anomalies_; }
  const AnomalyDetector& detector() const noexcept { return detector_; }
  /// Latches an externally detected anomaly (once per kind between resets)
  /// and auto-dumps like a stream-detected one. The invariant monitor's
  /// bridge into the black box.
  void latch(AnomalyKind kind, std::uint64_t round);
  /// Events currently in the ring, oldest first.
  std::vector<RoundEvent> ring() const;

  /// Writes the "beepmis.dump.v1" document (also usable for a manual dump
  /// of a healthy run).
  void write_dump(std::ostream& os) const;
  /// True once an auto-dump file has been written.
  bool dumped() const noexcept { return dumped_; }

  /// Clears ring, snapshots and anomaly state for the next run (context and
  /// configuration are retained).
  void reset();

  static constexpr std::size_t kMaxSnapshots = 8;

 private:
  void snapshot(std::uint64_t round);
  void auto_dump();

  FlightContext context_;
  AnomalyDetector detector_;
  std::vector<RoundEvent> ring_;   // fixed capacity, circular
  std::size_t ring_head_ = 0;      // next write slot
  std::size_t ring_size_ = 0;
  std::uint64_t snapshot_every_ = 0;
  struct Snapshot {
    std::uint64_t round;
    std::vector<std::int32_t> levels;
  };
  std::vector<Snapshot> snapshots_;
  std::vector<Anomaly> anomalies_;
  LevelProbe probe_;
  std::string dump_path_;
  bool dumped_ = false;
};

struct JsonValue;  // see json_parse.hpp (kept an incomplete type here)

/// Validates the FlightContext identity block shared by "beepmis.dump.v1"
/// and "beepmis.recovery.v1" documents: tool/seed, the graph sub-object
/// (n, m, max_degree), algorithm/init/engine strings and the extra map.
bool flight_context_validate(const JsonValue& context, std::string* error);

/// Strict structural validation of a parsed "beepmis.dump.v1" document —
/// the shared path used by beepmis_trace_check and the tests (mirrors
/// obs::recovery_validate). Returns false with
/// `error` set on any malformed field; fills the optional counts for
/// one-line reports.
bool dump_validate(const JsonValue& doc, std::string* error,
                   std::size_t* anomaly_count = nullptr,
                   std::size_t* ring_count = nullptr);

}  // namespace beepmis::obs
