#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "src/obs/digest.hpp"
#include "src/obs/flight.hpp"
#include "src/obs/json_parse.hpp"
#include "src/obs/sink.hpp"

namespace beepmis::obs {

/// One look at the engine's settlement view, as produced by an
/// InvariantProbe (core::make_invariant_probe builds one over any
/// core::Engine; the obs layer cannot see the engine itself, mirroring
/// FlightRecorder::LevelProbe). Every probe packs the levels into n-bit
/// words in one O(n) scan, which also yields the level-range verdict. The
/// settlement checks (independence, maximality) run only when settled:
/// the probe keeps the bits of its last settled check, so a settled check
/// adds an O(n/64) word diff and scan plus O(|N²(changed)|) row work
/// around the vertices whose level bits changed. Its first settled check,
/// and one after a change too large to patch, walks the candidates' rows
/// in full, O(n + m).
struct InvariantProbeResult {
  /// Engine claims S_t = V (every vertex settled as member or dominated).
  bool stabilized = false;
  /// No two claimed MIS members are adjacent. Checked only when settled.
  bool independent = true;
  /// Every non-member has a member neighbor. Checked only when settled —
  /// mid-convergence the set is legitimately not maximal.
  bool maximal = true;
  /// Every level lies in the variant's admissible range
  /// [member_level(v), lmax(v)] ([-lmax, lmax] for Algorithm 1, [0, lmax]
  /// for Algorithm 2). Holds at every round of a correct execution.
  bool levels_in_range = true;
};

/// `claims_stabilized` says the event being judged claims S_t = V
/// (active == 0). The probe is *settled* when that claim holds or the engine
/// reports `stabilized` — the only cases in which InvariantMonitor and
/// RecoveryTracker read `independent`/`maximal`; otherwise both keep their
/// passing defaults and the probe costs only the O(n) level pack.
using InvariantProbe =
    std::function<InvariantProbeResult(bool claims_stabilized)>;

/// The three online invariants the monitor watches. Violations latch into
/// the FlightRecorder as the matching AnomalyKind::Invariant* anomalies.
/// The three safety properties the monitor latches. Independence cannot
/// fail on a correct verifier: I_t is derived from the levels (a member sits
/// at its member level with every neighbour at its cap), every engine
/// requires ℓmax(v) ≥ 2, and the member level (−ℓmax under Algorithm 1, 0
/// under Algorithm 2) is never the cap, so no level assignment puts two
/// members side by side. An Independence latch therefore reports a fault
/// in the verifier's own packed bookkeeping; it stays as a safety check.
enum class InvariantKind { Independence, Maximality, LevelRange };
std::string invariant_kind_name(InvariantKind kind);

struct InvariantViolation {
  InvariantKind kind;
  std::uint64_t round;
};

struct InvariantConfig {
  /// Probe the level-range invariant every `cadence` rounds (0 = only at
  /// stabilization edges). A mid-convergence cadence probe is the O(n)
  /// level pack; the settlement checks run once per stabilization edge
  /// whatever the cadence, each an O(n) scan plus O(|N²(changed)|) row
  /// work since the previous edge (O(n + m) at the first). CI bounds the
  /// total at Monitor/NoSink ≤ 1.35 on BM_FastEngineRun_*/10240.
  std::uint64_t cadence = 64;
};

class RecoveryTracker;

/// Online MIS-invariant monitor: consumes the per-round event stream and a
/// configurable-cadence settlement probe, and checks the paper's safety
/// properties while the run executes. Independence and maximality are
/// checked exactly when the stream claims stabilization (active == 0 — the
/// settlement view asserts S_t = V there, so an invalid MIS is a genuine
/// safety violation, never a transient); level-range sanity is additionally
/// checked every `cadence` rounds, since admissible levels are invariant at
/// every round. Each kind latches at most once per reset (mirroring
/// AnomalyDetector), is forwarded to an attached FlightRecorder as an
/// invariant anomaly (triggering its post-mortem dump), and is reported to
/// an attached RecoveryTracker so breakage opens or poisons a recovery
/// epoch. The attached tracker also receives every probe taken at an event
/// claiming stabilization, so closing an epoch on that event costs no
/// second probe. Attach before the tracker in a TeeObserver so violations
/// latch (and the probe is shared) ahead of epoch classification.
class InvariantMonitor final : public RoundObserver {
 public:
  explicit InvariantMonitor(const InvariantConfig& config)
      : config_(config) {}

  void set_probe(InvariantProbe probe) { probe_ = std::move(probe); }
  /// Latch violations into `flight` as Invariant* anomalies (may be null).
  void set_flight_recorder(FlightRecorder* flight) { flight_ = flight; }
  /// Notify `tracker` of each latched violation (may be null).
  void set_recovery_tracker(RecoveryTracker* tracker) { tracker_ = tracker; }

  void on_round(const RoundEvent& event) override;

  const InvariantConfig& config() const noexcept { return config_; }
  const std::vector<InvariantViolation>& violations() const noexcept {
    return violations_;
  }
  /// Probes executed so far — what the cadence/overhead contract bounds.
  std::uint64_t probe_count() const noexcept { return probes_; }

  void reset();

 private:
  void check(std::uint64_t round, bool claims_stabilized);
  void latch(InvariantKind kind, std::uint64_t round);

  InvariantConfig config_;
  InvariantProbe probe_;
  FlightRecorder* flight_ = nullptr;
  RecoveryTracker* tracker_ = nullptr;
  std::vector<InvariantViolation> violations_;
  bool latched_[3] = {false, false, false};
  std::uint64_t probes_ = 0;
  std::uint32_t last_active_ = 0;
  bool saw_event_ = false;
};

/// How one recovery epoch ended. The vocabulary of FIJ-style fault
/// campaigns: a corruption the settlement masked entirely, a re-
/// stabilization within the expected bound, a stall (re-stabilization late
/// or never), or a safety violation (the engine claimed a stabilized
/// configuration that is not a valid MIS / left the admissible level range).
enum class RecoveryOutcome { Masked, Recovered, Stall, SafetyViolation };
std::string recovery_outcome_name(RecoveryOutcome outcome);

/// One fault-onset → re-stabilization segment of a run.
struct RecoveryEpoch {
  std::uint64_t ordinal = 0;      ///< epoch number within the run, from 0
  std::string cause;              ///< "corrupt-random", "corrupt-nodes", ...
  std::uint64_t faults = 0;       ///< nodes corrupted at onset
  std::uint64_t onset_round = 0;  ///< engine round when the fault landed
  std::uint64_t end_round = 0;    ///< round the run re-stabilized (or stopped)
  std::uint64_t recovery_rounds = 0;  ///< end_round - onset_round
  RecoveryOutcome outcome = RecoveryOutcome::Recovered;
};

struct RecoveryConfig {
  /// Re-stabilization within this many rounds classifies as recovered-
  /// within-bound; later (or never) is a stall. Callers typically pass
  /// exp::default_recovery_bound(n) — the Thm 2.1/2.2 O(log n) w.h.p.
  /// horizon with generous constants. 0 accepts any finite recovery.
  std::uint64_t recovery_bound = 0;
};

/// Mergeable cross-run aggregate of recovery epochs — the shape that folds
/// through the deterministic merge() machinery: counters add, the rounds
/// digest merges with exact replay of small shards, so a parallel soak
/// folding per-scenario summaries in draw order produces the same bytes at
/// every --threads value.
struct RecoverySummary {
  std::uint64_t epochs = 0;
  std::uint64_t masked = 0;
  std::uint64_t recovered = 0;
  std::uint64_t stalls = 0;
  std::uint64_t safety_violations = 0;
  /// Invariant violations reported by an attached monitor.
  std::uint64_t invariant_violations = 0;
  Digest recovery_rounds;  ///< one sample per closed epoch

  void merge(const RecoverySummary& other);
};

/// Segments a run into recovery epochs. Fault injection sites open an
/// epoch via on_fault (core::corrupt_* / beep::FaultInjector take an
/// optional tracker and call it for you); an attached InvariantMonitor
/// opens one on detected breakage via on_violation. The epoch closes on
/// the first event that claims stabilization again (active == 0), or at
/// finalize() when the run stops — a corruption that never produced an
/// event (the settlement absorbed it) closes as masked. Classification at
/// close: any violation signaled during the epoch, or a failed probe on a
/// claimed-stabilized close, is a safety violation; an epoch that never
/// unsettled is masked; re-stabilization within recovery_bound is
/// recovered; everything else is a stall.
class RecoveryTracker final : public RoundObserver {
 public:
  explicit RecoveryTracker(const RecoveryConfig& config) : config_(config) {}

  void set_probe(InvariantProbe probe) { probe_ = std::move(probe); }

  /// Opens a recovery epoch (folds into the open one under compound
  /// faults). `round` is the engine round at injection.
  void on_fault(std::uint64_t round, const char* cause, std::uint64_t faults);
  /// Invariant breakage: poisons the open epoch, or opens one with cause
  /// "invariant-violation". Called by InvariantMonitor.
  void on_violation(std::uint64_t round);
  /// A settled probe the InvariantMonitor took at the event of `round`
  /// (claiming stabilization). Closing an epoch on that event judges this
  /// result instead of probing again; on_fault discards it.
  void share_probe(std::uint64_t round, const InvariantProbeResult& result);

  void on_round(const RoundEvent& event) override;

  /// Closes any still-open epoch at the end of the run (`round` = final
  /// engine round). Probes once to distinguish a masked fault (still
  /// stabilized, never unsettled) from a stall. The probe claims nothing,
  /// so when it finds the engine settled it judges it with a full check
  /// (core::make_invariant_probe), never a patch of an earlier snapshot.
  void finalize(std::uint64_t round);

  const RecoveryConfig& config() const noexcept { return config_; }
  const std::vector<RecoveryEpoch>& epochs() const noexcept { return epochs_; }
  bool epoch_open() const noexcept { return open_; }
  /// Aggregate of everything closed so far (call after finalize()).
  RecoverySummary summary() const;

  void reset();

 private:
  void close(std::uint64_t round, bool stabilized,
             const InvariantProbeResult* probed);

  RecoveryConfig config_;
  InvariantProbe probe_;
  std::optional<InvariantProbeResult> shared_;  // see share_probe
  std::uint64_t shared_round_ = 0;
  std::vector<RecoveryEpoch> epochs_;
  std::uint64_t violations_ = 0;  // signals received via on_violation
  bool open_ = false;
  std::string cause_;
  std::uint64_t faults_ = 0;
  std::uint64_t onset_round_ = 0;
  bool saw_active_ = false;
  bool violated_ = false;
};

/// Everything the "beepmis.recovery.v1" document records. The context block
/// reuses the flight-recorder identity shape, so the artifact is
/// self-contained (rerunnable) like a dump. `epochs` and `violations` may
/// be empty for folded multi-run artifacts (soak), where only the summary
/// survives aggregation.
struct RecoveryReport {
  FlightContext context;
  RecoveryConfig config;
  bool monitor = false;             ///< was the invariant monitor armed
  std::uint64_t monitor_cadence = 0;
  std::vector<RecoveryEpoch> epochs;
  std::vector<InvariantViolation> violations;
  RecoverySummary summary;
};

/// Writes the "beepmis.recovery.v1" document. Deterministic: no wall-clock,
/// thread-count or host data — the CI gates diff these artifacts
/// byte-for-byte across kernels and --threads values.
void write_recovery_json(std::ostream& os, const RecoveryReport& report);

/// Strict structural validation of a parsed "beepmis.recovery.v1" document
/// — the shared path used by beepmis_trace_check, beepmis_report and the
/// tests. Returns false with `error` set on any malformed field; fills the
/// optional counts for one-line reports.
bool recovery_validate(const JsonValue& doc, std::string* error,
                       std::size_t* epoch_count = nullptr,
                       std::size_t* violation_count = nullptr);

}  // namespace beepmis::obs
