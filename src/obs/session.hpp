#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/flight.hpp"
#include "src/obs/manifest.hpp"
#include "src/obs/recovery.hpp"
#include "src/support/args.hpp"

namespace beepmis::obs {

/// Opens `path`, lets `write` fill it and flushes. Prints "wrote <path>
/// <note>" to `notices`, or reports "cannot open|write <what> file: <path>"
/// on stderr and returns false.
bool write_artifact(const std::string& path, const char* what,
                    const std::function<void(std::ostream&)>& write,
                    std::FILE* notices, const std::string& note = "");

/// What one engine's observer stack arms.
struct ObserverOptions {
  std::string dump_path;  ///< arms the flight recorder when non-empty
  std::size_t ring_capacity = 256;
  AnomalyConfig anomaly;
  bool monitor = false;  ///< the invariant monitor; implies `track`
  std::uint64_t monitor_every = 64;
  bool track = false;  ///< the recovery tracker
  RecoveryConfig recovery;
};

/// One engine's observers: optional flight recorder → invariant monitor →
/// recovery tracker behind one tee, always in that order, so a violation
/// latches into the flight recorder (whose ring already holds the event)
/// before the tracker classifies the epoch that event closes. Tools add
/// their own sinks to tee() afterwards.
class ObserverStack {
 public:
  ObserverStack(const ObserverOptions& options, FlightContext context,
                FlightRecorder::LevelProbe levels, InvariantProbe invariants);
  ObserverStack(const ObserverStack&) = delete;  // the tee points into it
  ObserverStack& operator=(const ObserverStack&) = delete;

  TeeObserver& tee() noexcept { return tee_; }
  FlightRecorder* flight() const noexcept { return flight_.get(); }
  InvariantMonitor* monitor() const noexcept { return monitor_.get(); }
  RecoveryTracker* tracker() const noexcept { return tracker_.get(); }

  /// Closes the tracker's open epoch at the run's final round.
  void finalize(std::uint64_t round);
  /// The run's recovery.v1 content; requires the tracker.
  RecoveryReport report() const;

 private:
  FlightContext context_;
  std::unique_ptr<FlightRecorder> flight_;
  std::unique_ptr<InvariantMonitor> monitor_;
  std::unique_ptr<RecoveryTracker> tracker_;
  TeeObserver tee_;
};

/// The observability of one beepmis_cli or beepmis_soak invocation: the
/// flags both tools take, the tracing session, and the run.v1,
/// recovery.v1 and trace.v2 artifacts.
class Session {
 public:
  using Context = std::vector<std::pair<std::string, std::string>>;

  /// Registers the shared flags on `args`, which must outlive the session
  /// and be parsed before any other call. `tool` names the tool in every
  /// artifact.
  Session(support::ArgParser& args, std::string tool);

  /// Options for one engine of `n` vertices. The caller supplies the round
  /// horizons, which the obs layer cannot compute.
  ObserverOptions observers(std::uint64_t n, std::uint64_t expected_rounds,
                            std::uint64_t recovery_bound) const;

  /// Starts tracing, recording "tool" then `context`.
  void start(const Context& context);

  /// Stops tracing and writes every requested artifact, filling in the
  /// manifest's tool, wall time and trace drops and the recovery report's
  /// monitor settings. `recovery` may be null. The run.v1
  /// and recovery.v1 notices go to `notices`, all others to stderr. A
  /// failed artifact does not stop the others. Returns 0, or 2 if any
  /// failed.
  int finish(RunManifest manifest, const MetricsRegistry& metrics,
             const RecoveryReport* recovery, std::FILE* notices);

 private:
  const support::ArgParser& args_;
  std::string tool_;
  std::chrono::steady_clock::time_point started_;
};

}  // namespace beepmis::obs
