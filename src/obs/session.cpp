#include "src/obs/session.hpp"

#include <algorithm>
#include <fstream>

#include "src/obs/trace.hpp"

namespace beepmis::obs {

namespace {

// Fixed tracing cadences. trace.v2 records counter_every, so every trace
// still states it.
constexpr std::size_t kTraceCapacity = 65536;  // records per thread ring
constexpr std::uint64_t kTraceCounterEvery = 16;  // rounds per counter sample

}  // namespace

bool write_artifact(const std::string& path, const char* what,
                    const std::function<void(std::ostream&)>& write,
                    std::FILE* notices, const std::string& note) {
  std::ofstream out(path);
  if (out) write(out);
  if (!out.flush()) {
    std::fprintf(stderr, "cannot %s %s file: %s\n",
                 out.is_open() ? "write" : "open", what, path.c_str());
    return false;
  }
  std::fprintf(notices, "wrote %s%s\n", path.c_str(), note.c_str());
  return true;
}

ObserverStack::ObserverStack(const ObserverOptions& options,
                             FlightContext context,
                             FlightRecorder::LevelProbe levels,
                             InvariantProbe invariants)
    : context_(std::move(context)) {
  if (!options.dump_path.empty()) {
    flight_ = std::make_unique<FlightRecorder>(options.ring_capacity,
                                               options.anomaly, context_);
    flight_->set_dump_path(options.dump_path);
    flight_->set_snapshot_every(
        std::max<std::uint64_t>(1, options.anomaly.expected_rounds / 8));
    flight_->set_level_probe(std::move(levels));
  }
  if (options.track || options.monitor) {
    tracker_ = std::make_unique<RecoveryTracker>(options.recovery);
    tracker_->set_probe(invariants);
  }
  if (options.monitor) {
    monitor_ = std::make_unique<InvariantMonitor>(
        InvariantConfig{options.monitor_every});
    monitor_->set_probe(std::move(invariants));
    monitor_->set_flight_recorder(flight_.get());
    monitor_->set_recovery_tracker(tracker_.get());
  }
  // The order the class documents; add() skips what is not armed.
  tee_.add(flight_.get());
  tee_.add(monitor_.get());
  tee_.add(tracker_.get());
}

void ObserverStack::finalize(std::uint64_t round) {
  if (tracker_) tracker_->finalize(round);
}

RecoveryReport ObserverStack::report() const {
  RecoveryReport report;
  report.context = context_;
  report.config = tracker_->config();
  if (monitor_) report.violations = monitor_->violations();
  report.epochs = tracker_->epochs();
  report.summary = tracker_->summary();
  return report;
}

Session::Session(support::ArgParser& args, std::string tool)
    : args_(args),
      tool_(std::move(tool)),
      started_(std::chrono::steady_clock::now()) {
  args.add_option("metrics-out", "",
                  "write the beepmis.run.v1 manifest + metrics here at exit");
  args.add_flag("monitor",
                "arm the online invariant monitor: MIS independence and "
                "maximality at stabilization, level range periodically");
  args.add_option("monitor-every", "64",
                  "level-range probe cadence in rounds for --monitor (each "
                  "probe is O(n); the independence/maximality check runs "
                  "once per stabilization edge, in full the first time, "
                  "then only around the vertices whose levels changed; "
                  "0 = stabilization edges only)");
  args.add_option("recovery-out", "",
                  "write the deterministic beepmis.recovery.v1 fault → "
                  "re-stabilization epochs here (implies recovery tracking)");
  args.add_option("anomaly-stall-multiple", "2.0",
                  "flight-recorder stall threshold as a multiple of the "
                  "expected O(log n) rounds");
  args.add_option("anomaly-storm-fraction", "0.95",
                  "flight-recorder beep-storm threshold: fraction of n "
                  "hearing per round");
  args.add_option("anomaly-storm-window", "64",
                  "flight-recorder beep-storm window in rounds (0 = off)");
  args.add_option("trace-out", "",
                  "write the beepmis.trace.v2 span trace here: Chrome "
                  "trace-event JSON that ui.perfetto.dev opens directly");
}

ObserverOptions Session::observers(std::uint64_t n,
                                   std::uint64_t expected_rounds,
                                   std::uint64_t recovery_bound) const {
  ObserverOptions o;
  o.anomaly.n = static_cast<std::uint32_t>(n);
  o.anomaly.expected_rounds = expected_rounds;
  o.anomaly.stall_multiple = args_.get_double("anomaly-stall-multiple");
  o.anomaly.storm_fraction = args_.get_double("anomaly-storm-fraction");
  o.anomaly.storm_window =
      static_cast<std::uint64_t>(args_.get_int("anomaly-storm-window"));
  o.monitor = args_.flag("monitor");
  o.monitor_every = static_cast<std::uint64_t>(args_.get_int("monitor-every"));
  o.track = !args_.get("recovery-out").empty();
  o.recovery.recovery_bound = recovery_bound;
  return o;
}

void Session::start(const Context& context) {
  if (args_.get("trace-out").empty()) return;
  Tracer& tracer = Tracer::instance();
  tracer.clear_context();
  tracer.set_context("tool", tool_);
  for (const auto& [k, v] : context) tracer.set_context(k, v);
  tracer.enable(kTraceCapacity, kTraceCounterEvery);
  Tracer::set_thread_label("main");
}

int Session::finish(RunManifest manifest, const MetricsRegistry& metrics,
                    const RecoveryReport* recovery, std::FILE* notices) {
  const std::string& trace_path = args_.get("trace-out");
  Tracer& tracer = Tracer::instance();
  if (!trace_path.empty()) tracer.disable();
  bool ok = true;

  if (const std::string& path = args_.get("recovery-out");
      !path.empty() && recovery != nullptr) {
    RecoveryReport report = *recovery;
    report.monitor = args_.flag("monitor");
    if (report.monitor)
      report.monitor_cadence =
          static_cast<std::uint64_t>(args_.get_int("monitor-every"));
    const auto write = [&](std::ostream& os) {
      write_recovery_json(os, report);
    };
    if (!write_artifact(path, "recovery", write, notices)) ok = false;
  }

  if (const std::string& path = args_.get("metrics-out"); !path.empty()) {
    manifest.tool = tool_;
    manifest.wall_ms = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - started_)
                           .count();
    if (!trace_path.empty()) manifest.trace_dropped = tracer.dropped_spans();
    const auto write = [&](std::ostream& os) {
      write_run_json(os, manifest, &metrics);
    };
    if (!write_artifact(path, "metrics", write, notices)) ok = false;
  }

  // The trace notice always goes to stderr, so stdout is byte-identical
  // with tracing on or off.
  if (!trace_path.empty() &&
      !write_artifact(
          trace_path, "trace",
          [&](std::ostream& os) { tracer.write_json(os); }, stderr,
          " (trace-dropped=" + std::to_string(tracer.dropped_spans()) + ")"))
    ok = false;
  return ok ? 0 : 2;
}

}  // namespace beepmis::obs
