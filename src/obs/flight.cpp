#include "src/obs/flight.hpp"

#include <cmath>
#include <fstream>
#include <ostream>

#include "src/obs/json.hpp"
#include "src/obs/json_parse.hpp"
#include "src/obs/trace.hpp"
#include "src/support/check.hpp"

namespace beepmis::obs {

std::string anomaly_kind_name(AnomalyKind kind) {
  switch (kind) {
    case AnomalyKind::Stall: return "stall";
    case AnomalyKind::Lemma31Persistence: return "lemma31-persistence";
    case AnomalyKind::BeepStorm: return "beep-storm";
    case AnomalyKind::InvariantIndependence: return "invariant-independence";
    case AnomalyKind::InvariantMaximality: return "invariant-maximality";
    case AnomalyKind::InvariantLevelRange: return "invariant-level-range";
  }
  return "?";
}

std::vector<AnomalyKind> AnomalyDetector::observe(const RoundEvent& e) {
  std::vector<AnomalyKind> fired_now;
  const auto fire = [&](AnomalyKind kind) {
    bool& latch = fired_[static_cast<std::size_t>(kind)];
    if (!latch) {
      latch = true;
      fired_now.push_back(kind);
    }
  };

  if (e.active == 0) {
    settled_round_ = e.round;
    lemma_run_ = 0;
  }
  const std::uint64_t unsettled_for =
      e.round > settled_round_ ? e.round - settled_round_ : 0;

  if (config_.expected_rounds > 0 && e.active > 0 &&
      unsettled_for > stall_threshold()) {
    fire(AnomalyKind::Stall);
  }

  if (config_.check_lemma31 && config_.lemma_window > 0 &&
      config_.expected_rounds > 0 && e.has_analysis &&
      unsettled_for > config_.expected_rounds) {
    lemma_run_ = e.lemma31_violations > 0 ? lemma_run_ + 1 : 0;
    if (lemma_run_ >= config_.lemma_window) fire(AnomalyKind::Lemma31Persistence);
  }

  if (config_.storm_window > 0 && config_.n > 0) {
    const bool saturated =
        static_cast<double>(e.heard_any) >=
        config_.storm_fraction * static_cast<double>(config_.n);
    storm_run_ = saturated ? storm_run_ + 1 : 0;
    if (storm_run_ >= config_.storm_window) fire(AnomalyKind::BeepStorm);
  }

  return fired_now;
}

bool AnomalyDetector::latch_external(AnomalyKind kind) {
  bool& latch = fired_[static_cast<std::size_t>(kind)];
  if (latch) return false;
  latch = true;
  return true;
}

void AnomalyDetector::reset() {
  for (bool& f : fired_) f = false;
  settled_round_ = 0;
  lemma_run_ = 0;
  storm_run_ = 0;
}

FlightRecorder::FlightRecorder(std::size_t ring_capacity,
                               const AnomalyConfig& anomaly,
                               FlightContext context)
    : context_(std::move(context)), detector_(anomaly) {
  BEEPMIS_CHECK(ring_capacity > 0, "flight recorder needs a non-empty ring");
  ring_.resize(ring_capacity);
}

void FlightRecorder::on_round(const RoundEvent& e) {
  ring_[ring_head_] = e;
  ring_head_ = (ring_head_ + 1) % ring_.size();
  if (ring_size_ < ring_.size()) ++ring_size_;

  if (snapshot_every_ > 0 && probe_ && e.round % snapshot_every_ == 0)
    snapshot(e.round);

  const auto fired = detector_.observe(e);
  for (AnomalyKind kind : fired) anomalies_.push_back({kind, e.round});
  if (!fired.empty() && !dump_path_.empty()) auto_dump();
}

void FlightRecorder::latch(AnomalyKind kind, std::uint64_t round) {
  if (!detector_.latch_external(kind)) return;
  anomalies_.push_back({kind, round});
  if (!dump_path_.empty()) auto_dump();
}

void FlightRecorder::snapshot(std::uint64_t round) {
  if (snapshots_.size() == kMaxSnapshots)
    snapshots_.erase(snapshots_.begin());
  snapshots_.push_back({round, probe_()});
}

std::vector<RoundEvent> FlightRecorder::ring() const {
  std::vector<RoundEvent> out;
  out.reserve(ring_size_);
  const std::size_t start =
      ring_size_ < ring_.size() ? 0 : ring_head_;  // oldest element
  for (std::size_t i = 0; i < ring_size_; ++i)
    out.push_back(ring_[(start + i) % ring_.size()]);
  return out;
}

namespace {

void write_event(JsonWriter& w, const RoundEvent& e) {
  w.begin_object();
  w.field("round", e.round);
  w.field("beeps_ch1", static_cast<std::uint64_t>(e.beeps_ch1));
  w.field("beeps_ch2", static_cast<std::uint64_t>(e.beeps_ch2));
  w.field("heard_ch1", static_cast<std::uint64_t>(e.heard_ch1));
  w.field("heard_ch2", static_cast<std::uint64_t>(e.heard_ch2));
  w.field("heard_any", static_cast<std::uint64_t>(e.heard_any));
  w.field("prominent", static_cast<std::uint64_t>(e.prominent));
  w.field("stable", static_cast<std::uint64_t>(e.stable));
  w.field("mis", static_cast<std::uint64_t>(e.mis));
  w.field("active", static_cast<std::uint64_t>(e.active));
  if (e.has_analysis)
    w.field("lemma31_violations",
            static_cast<std::uint64_t>(e.lemma31_violations));
  w.end_object();
}

void write_levels(JsonWriter& w, const std::vector<std::int32_t>& levels) {
  w.begin_array();
  for (std::int32_t l : levels) w.value(static_cast<std::int64_t>(l));
  w.end_array();
}

}  // namespace

void FlightRecorder::write_dump(std::ostream& os) const {
  JsonWriter w(os);
  w.begin_object();
  w.field("schema", "beepmis.dump.v1");

  w.key("context").begin_object();
  w.field("tool", context_.tool);
  w.field("seed", context_.seed);
  w.key("graph").begin_object();
  w.field("name", context_.graph_name);
  w.field("family", context_.family);
  w.field("n", context_.n);
  w.field("m", context_.m);
  w.field("max_degree", context_.max_degree);
  w.end_object();
  w.field("algorithm", context_.algorithm);
  w.field("init", context_.init_policy);
  w.field("engine", context_.engine);
  w.key("extra").begin_object();
  for (const auto& [k, v] : context_.extra) w.field(k, v);
  w.end_object();
  w.end_object();

  const AnomalyConfig& c = detector_.config();
  w.key("config").begin_object();
  w.field("ring_capacity", static_cast<std::uint64_t>(ring_.size()));
  w.field("n", static_cast<std::uint64_t>(c.n));
  w.field("expected_rounds", c.expected_rounds);
  w.field("stall_multiple", c.stall_multiple);
  w.field("lemma_window", c.lemma_window);
  w.field("check_lemma31", c.check_lemma31);
  w.field("storm_fraction", c.storm_fraction);
  w.field("storm_window", c.storm_window);
  w.end_object();

  w.key("anomalies").begin_array();
  for (const Anomaly& a : anomalies_) {
    w.begin_object();
    w.field("kind", anomaly_kind_name(a.kind));
    w.field("round", a.round);
    w.end_object();
  }
  w.end_array();

  w.key("ring").begin_array();
  for (const RoundEvent& e : ring()) write_event(w, e);
  w.end_array();

  w.key("snapshots").begin_array();
  for (const Snapshot& s : snapshots_) {
    w.begin_object();
    w.field("round", s.round);
    w.key("levels");
    write_levels(w, s.levels);
    w.end_object();
  }
  w.end_array();

  w.key("final_levels");
  if (probe_) {
    write_levels(w, probe_());
  } else {
    w.begin_array().end_array();
  }

  // With a tracing session live, attach the dumping thread's most recent
  // trace records — the span/counter timeline immediately preceding the
  // anomaly, in the Chrome event shape of beepmis.trace.v2.
  if (Tracer::active()) {
    std::uint64_t tid = 0;
    w.key("trace_tail").begin_array();
    for (const TraceRecord& r : Tracer::instance().thread_tail(256, &tid))
      trace_write_event(w, r, tid);
    w.end_array();
  }

  w.end_object();
  os << '\n';
}

void FlightRecorder::auto_dump() {
  std::ofstream out(dump_path_);
  if (!out) return;  // best-effort: a failed dump must not kill the run
  write_dump(out);
  dumped_ = true;
}

void FlightRecorder::reset() {
  ring_head_ = 0;
  ring_size_ = 0;
  snapshots_.clear();
  anomalies_.clear();
  detector_.reset();
}

namespace {

bool is_number(const JsonValue& v) {
  return v.type == JsonValue::Type::Number;
}

bool known_anomaly_kind(const std::string& name) {
  for (std::size_t i = 0; i < kAnomalyKinds; ++i)
    if (anomaly_kind_name(static_cast<AnomalyKind>(i)) == name) return true;
  return false;
}

bool check_number_fields(const JsonValue& obj, const char* const* fields,
                         std::size_t count, const std::string& where,
                         std::string* error) {
  for (std::size_t i = 0; i < count; ++i) {
    if (!is_number(obj.get(fields[i]))) {
      *error = where + ": missing numeric \"" + fields[i] + "\"";
      return false;
    }
  }
  return true;
}

}  // namespace

bool flight_context_validate(const JsonValue& context, std::string* error) {
  if (!context.is_object()) {
    *error = "\"context\" is not an object";
    return false;
  }
  if (context.get("tool").as_string().empty()) {
    *error = "context: missing \"tool\"";
    return false;
  }
  if (!is_number(context.get("seed"))) {
    *error = "context: missing numeric \"seed\"";
    return false;
  }
  const JsonValue& graph = context.get("graph");
  if (!graph.is_object()) {
    *error = "context: \"graph\" is not an object";
    return false;
  }
  static const char* const graph_fields[] = {"n", "m", "max_degree"};
  if (!check_number_fields(graph, graph_fields, 3, "context.graph", error))
    return false;
  for (const char* field : {"algorithm", "init", "engine"}) {
    if (context.get(field).type != JsonValue::Type::String) {
      *error = std::string("context: missing string \"") + field + "\"";
      return false;
    }
  }
  if (!context.get("extra").is_object()) {
    *error = "context: \"extra\" is not an object";
    return false;
  }
  return true;
}

bool dump_validate(const JsonValue& doc, std::string* error,
                   std::size_t* anomaly_count, std::size_t* ring_count) {
  std::string scratch;
  if (error == nullptr) error = &scratch;
  if (!doc.is_object() ||
      doc.get("schema").as_string() != "beepmis.dump.v1") {
    *error = "not a beepmis.dump.v1 document";
    return false;
  }
  if (!flight_context_validate(doc.get("context"), error)) return false;
  const std::uint64_t n =
      static_cast<std::uint64_t>(doc.get("context").get("graph").get("n").as_number(0.0));

  const JsonValue& config = doc.get("config");
  if (!config.is_object()) {
    *error = "\"config\" is not an object";
    return false;
  }
  static const char* const config_fields[] = {
      "ring_capacity", "n",              "expected_rounds",
      "stall_multiple", "lemma_window",  "storm_fraction",
      "storm_window"};
  if (!check_number_fields(config, config_fields, 7, "config", error))
    return false;
  if (config.get("ring_capacity").as_number(0.0) < 1.0) {
    *error = "config: ring_capacity < 1";
    return false;
  }
  if (config.get("check_lemma31").type != JsonValue::Type::Bool) {
    *error = "config: missing boolean \"check_lemma31\"";
    return false;
  }

  const JsonValue& anomalies = doc.get("anomalies");
  if (!anomalies.is_array()) {
    *error = "\"anomalies\" is not an array";
    return false;
  }
  for (std::size_t i = 0; i < anomalies.array.size(); ++i) {
    const JsonValue& a = anomalies.array[i];
    const std::string where = "anomalies[" + std::to_string(i) + "]";
    if (!a.is_object() || !known_anomaly_kind(a.get("kind").as_string())) {
      *error = where + ": unknown anomaly kind";
      return false;
    }
    if (!is_number(a.get("round"))) {
      *error = where + ": missing numeric \"round\"";
      return false;
    }
  }

  const JsonValue& ring = doc.get("ring");
  if (!ring.is_array()) {
    *error = "\"ring\" is not an array";
    return false;
  }
  static const char* const event_fields[] = {
      "round",     "beeps_ch1", "beeps_ch2", "heard_ch1", "heard_ch2",
      "heard_any", "prominent", "stable",    "mis",       "active"};
  for (std::size_t i = 0; i < ring.array.size(); ++i) {
    if (!check_number_fields(ring.array[i], event_fields, 10,
                             "ring[" + std::to_string(i) + "]", error))
      return false;
  }

  const JsonValue& snapshots = doc.get("snapshots");
  if (!snapshots.is_array()) {
    *error = "\"snapshots\" is not an array";
    return false;
  }
  for (std::size_t i = 0; i < snapshots.array.size(); ++i) {
    const JsonValue& s = snapshots.array[i];
    const std::string where = "snapshots[" + std::to_string(i) + "]";
    if (!s.is_object() || !is_number(s.get("round")) ||
        !s.get("levels").is_array()) {
      *error = where + ": expected {round, levels[]}";
      return false;
    }
    if (s.get("levels").array.size() != n) {
      *error = where + ": levels length != context.graph.n";
      return false;
    }
    for (const JsonValue& l : s.get("levels").array) {
      if (!is_number(l)) {
        *error = where + ": non-numeric level";
        return false;
      }
    }
  }

  const JsonValue& final_levels = doc.get("final_levels");
  if (!final_levels.is_array()) {
    *error = "\"final_levels\" is not an array";
    return false;
  }
  if (!final_levels.array.empty() && final_levels.array.size() != n) {
    *error = "\"final_levels\" length != context.graph.n";
    return false;
  }
  if (doc.has("trace_tail")) {
    const JsonValue& tail = doc.get("trace_tail");
    if (!tail.is_array()) {
      *error = "\"trace_tail\" is not an array";
      return false;
    }
    for (std::size_t i = 0; i < tail.array.size(); ++i)
      if (!trace_event_validate(tail.array[i],
                                "trace_tail[" + std::to_string(i) + "]",
                                error))
        return false;
  }

  if (anomaly_count != nullptr) *anomaly_count = anomalies.array.size();
  if (ring_count != nullptr) *ring_count = ring.array.size();
  return true;
}

}  // namespace beepmis::obs
