#include "src/obs/recovery.hpp"

#include <ostream>
#include <utility>

#include "src/obs/json.hpp"

namespace beepmis::obs {

std::string invariant_kind_name(InvariantKind kind) {
  switch (kind) {
    case InvariantKind::Independence: return "independence";
    case InvariantKind::Maximality: return "maximality";
    case InvariantKind::LevelRange: return "level-range";
  }
  return "?";
}

namespace {

AnomalyKind anomaly_for(InvariantKind kind) {
  switch (kind) {
    case InvariantKind::Independence:
      return AnomalyKind::InvariantIndependence;
    case InvariantKind::Maximality: return AnomalyKind::InvariantMaximality;
    case InvariantKind::LevelRange: return AnomalyKind::InvariantLevelRange;
  }
  return AnomalyKind::InvariantLevelRange;
}

}  // namespace

void InvariantMonitor::on_round(const RoundEvent& event) {
  // Settlement edge: the stream (re)claims S_t = V on this event. The first
  // event of a run counts as an edge when it already claims stabilization.
  const bool edge =
      event.active == 0 && (!saw_event_ || last_active_ != 0);
  const bool cadence_due =
      config_.cadence > 0 && event.round % config_.cadence == 0;
  saw_event_ = true;
  last_active_ = event.active;
  if (!probe_ || (!edge && !cadence_due)) return;
  check(event.round, event.active == 0);
}

void InvariantMonitor::check(std::uint64_t round, bool claims_stabilized) {
  ++probes_;
  const InvariantProbeResult r = probe_(claims_stabilized);
  // Admissible levels are invariant at every round of a correct execution:
  // the state space of Algorithms 1 and 2 (arXiv 2405.04266, Section 2).
  if (!r.levels_in_range) latch(InvariantKind::LevelRange, round);
  // Independence/maximality are asserted by the settlement view only once
  // it claims S_t = V — where Theorems 2.1 and 2.2 and Corollary 2.3 make
  // I_t an MIS; mid-convergence both are legitimately in flux, so checking
  // them earlier would manufacture spurious violations.
  if (claims_stabilized || r.stabilized) {
    if (!r.independent) latch(InvariantKind::Independence, round);
    if (!r.maximal) latch(InvariantKind::Maximality, round);
  }
  if (claims_stabilized && tracker_ != nullptr) tracker_->share_probe(round, r);
}

void InvariantMonitor::latch(InvariantKind kind, std::uint64_t round) {
  bool& latched = latched_[static_cast<std::size_t>(kind)];
  if (latched) return;
  latched = true;
  violations_.push_back({kind, round});
  if (flight_ != nullptr) flight_->latch(anomaly_for(kind), round);
  if (tracker_ != nullptr) tracker_->on_violation(round);
}

void InvariantMonitor::reset() {
  violations_.clear();
  for (bool& l : latched_) l = false;
  probes_ = 0;
  last_active_ = 0;
  saw_event_ = false;
}

std::string recovery_outcome_name(RecoveryOutcome outcome) {
  switch (outcome) {
    case RecoveryOutcome::Masked: return "masked";
    case RecoveryOutcome::Recovered: return "recovered-within-bound";
    case RecoveryOutcome::Stall: return "stall";
    case RecoveryOutcome::SafetyViolation: return "safety-violation";
  }
  return "?";
}

void RecoverySummary::merge(const RecoverySummary& other) {
  epochs += other.epochs;
  masked += other.masked;
  recovered += other.recovered;
  stalls += other.stalls;
  safety_violations += other.safety_violations;
  invariant_violations += other.invariant_violations;
  recovery_rounds.merge(other.recovery_rounds);
}

void RecoveryTracker::on_fault(std::uint64_t round, const char* cause,
                               std::uint64_t faults) {
  // The fault changed the state any shared probe looked at.
  shared_.reset();
  if (open_) {
    // A fault landing inside an unfinished recovery compounds the open
    // epoch instead of starting a new one — recovery time is then measured
    // from the first onset, which is what a campaign wants to bound.
    faults_ += faults;
    return;
  }
  open_ = true;
  cause_ = cause;
  faults_ = faults;
  onset_round_ = round;
  saw_active_ = false;
  violated_ = false;
}

void RecoveryTracker::on_violation(std::uint64_t round) {
  ++violations_;
  if (!open_) {
    open_ = true;
    cause_ = "invariant-violation";
    faults_ = 0;
    onset_round_ = round;
    saw_active_ = false;
  }
  violated_ = true;
}

void RecoveryTracker::share_probe(std::uint64_t round,
                                  const InvariantProbeResult& result) {
  shared_ = result;
  shared_round_ = round;
}

void RecoveryTracker::on_round(const RoundEvent& event) {
  if (!open_) return;
  if (event.active > 0) {
    saw_active_ = true;
    return;
  }
  close(event.round, /*stabilized=*/true,
        shared_ && shared_round_ == event.round ? &*shared_ : nullptr);
}

void RecoveryTracker::finalize(std::uint64_t round) {
  if (!open_) return;
  // No stabilization event closed the epoch. Either the corruption was
  // absorbed by the settled configuration (no round ever executed — the
  // probe still reports stabilized: a masked fault) or the run stopped
  // with the budget exhausted (a stall).
  if (!probe_) {
    close(round, /*stabilized=*/false, nullptr);
    return;
  }
  const InvariantProbeResult r = probe_(/*claims_stabilized=*/false);
  close(round, r.stabilized, &r);
}

void RecoveryTracker::close(std::uint64_t round, bool stabilized,
                            const InvariantProbeResult* probed) {
  RecoveryEpoch ep;
  ep.ordinal = epochs_.size();
  ep.cause = cause_;
  ep.faults = faults_;
  ep.onset_round = onset_round_;
  ep.end_round = round;
  ep.recovery_rounds = round - onset_round_;

  bool safety = violated_;
  if (!safety && stabilized && (probed != nullptr || probe_)) {
    const InvariantProbeResult r =
        probed != nullptr ? *probed : probe_(/*claims_stabilized=*/true);
    safety = !r.independent || !r.maximal || !r.levels_in_range;
  }
  // A stabilized epoch must end on an MIS with in-range levels (the same
  // Theorem 2.1/2.2, Corollary 2.3 and Section 2 facts the monitor checks).
  // recovery_bound budgets those theorems' w.h.p. stabilization time, so
  // overrunning it is a stall, not a safety violation.
  if (safety) {
    ep.outcome = RecoveryOutcome::SafetyViolation;
  } else if (!stabilized) {
    ep.outcome = RecoveryOutcome::Stall;
  } else if (!saw_active_) {
    ep.outcome = RecoveryOutcome::Masked;
  } else if (config_.recovery_bound == 0 ||
             ep.recovery_rounds <= config_.recovery_bound) {
    ep.outcome = RecoveryOutcome::Recovered;
  } else {
    ep.outcome = RecoveryOutcome::Stall;
  }
  epochs_.push_back(std::move(ep));
  open_ = false;
}

RecoverySummary RecoveryTracker::summary() const {
  RecoverySummary s;
  s.epochs = epochs_.size();
  for (const RecoveryEpoch& ep : epochs_) {
    switch (ep.outcome) {
      case RecoveryOutcome::Masked: ++s.masked; break;
      case RecoveryOutcome::Recovered: ++s.recovered; break;
      case RecoveryOutcome::Stall: ++s.stalls; break;
      case RecoveryOutcome::SafetyViolation: ++s.safety_violations; break;
    }
    s.recovery_rounds.add(static_cast<double>(ep.recovery_rounds));
  }
  s.invariant_violations = violations_;
  return s;
}

void RecoveryTracker::reset() {
  shared_.reset();
  epochs_.clear();
  violations_ = 0;
  open_ = false;
  cause_.clear();
  faults_ = 0;
  onset_round_ = 0;
  saw_active_ = false;
  violated_ = false;
}

void write_recovery_json(std::ostream& os, const RecoveryReport& report) {
  JsonWriter w(os);
  w.begin_object();
  w.field("schema", "beepmis.recovery.v1");

  const FlightContext& ctx = report.context;
  w.key("context").begin_object();
  w.field("tool", ctx.tool);
  w.field("seed", ctx.seed);
  w.key("graph").begin_object();
  w.field("name", ctx.graph_name);
  w.field("family", ctx.family);
  w.field("n", ctx.n);
  w.field("m", ctx.m);
  w.field("max_degree", ctx.max_degree);
  w.end_object();
  w.field("algorithm", ctx.algorithm);
  w.field("init", ctx.init_policy);
  w.field("engine", ctx.engine);
  w.key("extra").begin_object();
  for (const auto& [k, v] : ctx.extra) w.field(k, v);
  w.end_object();
  w.end_object();

  w.key("config").begin_object();
  w.field("recovery_bound", report.config.recovery_bound);
  w.field("monitor", report.monitor);
  w.field("monitor_cadence", report.monitor_cadence);
  w.end_object();

  w.key("epochs").begin_array();
  for (const RecoveryEpoch& ep : report.epochs) {
    w.begin_object();
    w.field("ordinal", ep.ordinal);
    w.field("cause", ep.cause);
    w.field("faults", ep.faults);
    w.field("onset_round", ep.onset_round);
    w.field("end_round", ep.end_round);
    w.field("recovery_rounds", ep.recovery_rounds);
    w.field("outcome", recovery_outcome_name(ep.outcome));
    w.end_object();
  }
  w.end_array();

  w.key("violations").begin_array();
  for (const InvariantViolation& v : report.violations) {
    w.begin_object();
    w.field("kind", invariant_kind_name(v.kind));
    w.field("round", v.round);
    w.end_object();
  }
  w.end_array();

  const RecoverySummary& s = report.summary;
  w.key("summary").begin_object();
  w.field("epochs", s.epochs);
  w.field("masked", s.masked);
  w.field("recovered", s.recovered);
  w.field("stall", s.stalls);
  w.field("safety_violation", s.safety_violations);
  w.field("invariant_violations", s.invariant_violations);
  w.key("recovery_rounds").begin_object();
  w.field("count", static_cast<std::uint64_t>(s.recovery_rounds.count()));
  w.field("mean", s.recovery_rounds.mean());
  if (s.recovery_rounds.count() > 0) {
    w.field("min", s.recovery_rounds.min());
    w.field("max", s.recovery_rounds.max());
    w.field("p50", s.recovery_rounds.quantile(0.50));
    w.field("p95", s.recovery_rounds.quantile(0.95));
    w.field("p99", s.recovery_rounds.quantile(0.99));
  }
  w.end_object();
  w.end_object();

  w.end_object();
  os << '\n';
}

namespace {

bool is_number(const JsonValue& v) {
  return v.type == JsonValue::Type::Number;
}

bool known_outcome(const std::string& name) {
  for (RecoveryOutcome o :
       {RecoveryOutcome::Masked, RecoveryOutcome::Recovered,
        RecoveryOutcome::Stall, RecoveryOutcome::SafetyViolation}) {
    if (recovery_outcome_name(o) == name) return true;
  }
  return false;
}

bool known_invariant(const std::string& name) {
  for (InvariantKind k :
       {InvariantKind::Independence, InvariantKind::Maximality,
        InvariantKind::LevelRange}) {
    if (invariant_kind_name(k) == name) return true;
  }
  return false;
}

}  // namespace

bool recovery_validate(const JsonValue& doc, std::string* error,
                       std::size_t* epoch_count,
                       std::size_t* violation_count) {
  std::string scratch;
  if (error == nullptr) error = &scratch;
  if (!doc.is_object() ||
      doc.get("schema").as_string() != "beepmis.recovery.v1") {
    *error = "not a beepmis.recovery.v1 document";
    return false;
  }
  if (!flight_context_validate(doc.get("context"), error)) return false;

  const JsonValue& config = doc.get("config");
  if (!config.is_object() || !is_number(config.get("recovery_bound")) ||
      !is_number(config.get("monitor_cadence")) ||
      config.get("monitor").type != JsonValue::Type::Bool) {
    *error = "config: expected {recovery_bound, monitor, monitor_cadence}";
    return false;
  }

  const JsonValue& epochs = doc.get("epochs");
  if (!epochs.is_array()) {
    *error = "\"epochs\" is not an array";
    return false;
  }
  for (std::size_t i = 0; i < epochs.array.size(); ++i) {
    const JsonValue& ep = epochs.array[i];
    const std::string where = "epochs[" + std::to_string(i) + "]";
    if (!ep.is_object() || !is_number(ep.get("ordinal")) ||
        !is_number(ep.get("faults")) || !is_number(ep.get("onset_round")) ||
        !is_number(ep.get("end_round")) ||
        !is_number(ep.get("recovery_rounds"))) {
      *error = where + ": missing numeric field";
      return false;
    }
    if (ep.get("cause").as_string().empty()) {
      *error = where + ": missing \"cause\"";
      return false;
    }
    if (!known_outcome(ep.get("outcome").as_string())) {
      *error = where + ": unknown outcome";
      return false;
    }
    const double onset = ep.get("onset_round").as_number();
    const double end = ep.get("end_round").as_number();
    if (end < onset ||
        ep.get("recovery_rounds").as_number() != end - onset) {
      *error = where + ": recovery_rounds != end_round - onset_round";
      return false;
    }
  }

  const JsonValue& violations = doc.get("violations");
  if (!violations.is_array()) {
    *error = "\"violations\" is not an array";
    return false;
  }
  for (std::size_t i = 0; i < violations.array.size(); ++i) {
    const JsonValue& v = violations.array[i];
    const std::string where = "violations[" + std::to_string(i) + "]";
    if (!v.is_object() || !known_invariant(v.get("kind").as_string())) {
      *error = where + ": unknown invariant kind";
      return false;
    }
    if (!is_number(v.get("round"))) {
      *error = where + ": missing numeric \"round\"";
      return false;
    }
  }

  const JsonValue& summary = doc.get("summary");
  if (!summary.is_object()) {
    *error = "\"summary\" is not an object";
    return false;
  }
  for (const char* field : {"epochs", "masked", "recovered", "stall",
                            "safety_violation", "invariant_violations"}) {
    if (!is_number(summary.get(field))) {
      *error = std::string("summary: missing numeric \"") + field + "\"";
      return false;
    }
  }
  const double total = summary.get("epochs").as_number();
  const double by_outcome = summary.get("masked").as_number() +
                            summary.get("recovered").as_number() +
                            summary.get("stall").as_number() +
                            summary.get("safety_violation").as_number();
  if (total != by_outcome) {
    *error = "summary: outcome counts do not sum to epochs";
    return false;
  }
  // Single-run artifacts carry the per-epoch list; folded multi-run ones
  // (soak) keep only the summary — the list, when present, must agree.
  if (!epochs.array.empty() &&
      static_cast<double>(epochs.array.size()) != total) {
    *error = "epochs array disagrees with summary.epochs";
    return false;
  }
  if (!violations.array.empty() &&
      static_cast<double>(violations.array.size()) !=
          summary.get("invariant_violations").as_number()) {
    *error = "violations array disagrees with summary.invariant_violations";
    return false;
  }

  const JsonValue& digest = summary.get("recovery_rounds");
  if (!digest.is_object() || !is_number(digest.get("count")) ||
      !is_number(digest.get("mean"))) {
    *error = "summary.recovery_rounds: expected {count, mean, ...}";
    return false;
  }
  if (digest.get("count").as_number() != total) {
    *error = "summary.recovery_rounds.count != summary.epochs";
    return false;
  }
  if (digest.get("count").as_number() > 0) {
    for (const char* field : {"min", "max", "p50", "p95", "p99"}) {
      if (!is_number(digest.get(field))) {
        *error =
            std::string("summary.recovery_rounds: missing \"") + field + "\"";
        return false;
      }
    }
    if (digest.get("min").as_number() > digest.get("max").as_number()) {
      *error = "summary.recovery_rounds: min > max";
      return false;
    }
  }

  if (epoch_count != nullptr)
    *epoch_count = static_cast<std::size_t>(total);
  if (violation_count != nullptr)
    *violation_count = static_cast<std::size_t>(
        summary.get("invariant_violations").as_number());
  return true;
}

}  // namespace beepmis::obs
