#include "src/obs/timeseries.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "src/obs/json.hpp"

namespace beepmis::obs {
namespace {

bool fail(std::string* error, std::string msg) {
  if (error != nullptr) *error = std::move(msg);
  return false;
}

bool require_number(const JsonValue& v, const char* what, std::string* error) {
  if (v.type == JsonValue::Type::Number) return true;
  return fail(error, std::string("timeseries.v1: \"") + what +
                         "\" must be a number");
}

/// A count or round: a non-negative integer no larger than 2^53, the range
/// a double holds exactly, so the uint64 conversion is defined and exact.
bool require_count(const JsonValue& v, const char* what, std::string* error,
                   std::uint64_t* out) {
  if (!json_is_count(v))
    return fail(error, std::string("timeseries.v1: \"") + what +
                           "\" must be an integer in [0, 2^53]");
  *out = static_cast<std::uint64_t>(v.number);
  return true;
}

/// Shared shape check: every rule timeseries_validate enforces, walked in
/// document order so validate and the canonical writer agree on what a
/// well-formed document is.
bool check_document(const JsonValue& doc, std::string* error) {
  if (!doc.is_object() ||
      doc.get("schema").as_string() != "beepmis.timeseries.v1")
    return fail(error, "not a beepmis.timeseries.v1 document");
  std::uint64_t every = 0, capacity = 0, recorded = 0, dropped = 0;
  if (!require_count(doc.get("every"), "every", error, &every) ||
      !require_count(doc.get("capacity"), "capacity", error, &capacity) ||
      !require_count(doc.get("recorded"), "recorded", error, &recorded) ||
      !require_count(doc.get("dropped"), "dropped", error, &dropped))
    return false;
  if (every < 1) return fail(error, "timeseries.v1: \"every\" must be >= 1");
  if (capacity < 1)
    return fail(error, "timeseries.v1: \"capacity\" must be >= 1");
  if (!doc.get("context").is_object())
    return fail(error, "timeseries.v1: \"context\" must be an object");
  const JsonValue& samples = doc.get("samples");
  if (!samples.is_array())
    return fail(error, "timeseries.v1: \"samples\" must be an array");
  // The ring keeps the newest min(recorded, capacity) samples and counts
  // the rest as dropped.
  const std::uint64_t kept = samples.array.size();
  if (kept != std::min(recorded, capacity))
    return fail(error,
                "timeseries.v1: sample count must be min(recorded, capacity)");
  if (dropped != recorded - kept)
    return fail(error,
                "timeseries.v1: \"dropped\" must be recorded - samples");
  std::uint64_t prev_round = 0;
  for (std::size_t i = 0; i < samples.array.size(); ++i) {
    const JsonValue& s = samples.array[i];
    if (!s.is_object())
      return fail(error, "timeseries.v1: sample must be an object");
    std::uint64_t round = 0, count = 0;
    if (!require_count(s.get("round"), "round", error, &round)) return false;
    for (const char* k : {"active", "beeps", "mis"})
      if (!require_count(s.get(k), k, error, &count)) return false;
    if (i > 0 && round <= prev_round)
      return fail(error, "timeseries.v1: sample rounds must be increasing");
    prev_round = round;
    const JsonValue& timing = s.get("timing");
    if (!timing.is_object())
      return fail(error,
                  "timeseries.v1: sample \"timing\" must be an object");
    for (const char* k : {"round_ms", "imbalance", "barrier_ms"})
      if (!require_number(timing.get(k), k, error)) return false;
    const JsonValue& phases = timing.get("phase_ms");
    if (!phases.is_object())
      return fail(error, "timeseries.v1: \"phase_ms\" must be an object");
    for (const auto& [key, value] : phases.object)
      if (value.type != JsonValue::Type::Number)
        return fail(error, "timeseries.v1: phase_ms." + key +
                               " must be a number");
  }
  return true;
}

}  // namespace

TimeSeries::TimeSeries(std::size_t capacity, std::uint64_t every)
    : every_(every) {
  ring_.resize(std::max<std::size_t>(capacity, 1));
}

void TimeSeries::record(const TimeSeriesSample& sample) {
  ring_[head_] = sample;
  head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
  ++recorded_;
}

void TimeSeries::set_context(const std::string& key,
                             const std::string& value) {
  for (auto& kv : context_) {
    if (kv.first == key) {
      kv.second = value;
      return;
    }
  }
  context_.emplace_back(key, value);
}

void TimeSeries::write_json(std::ostream& os) const {
  const std::size_t cap = ring_.size();
  const bool wrapped = recorded_ > cap;
  const std::size_t have =
      wrapped ? cap : static_cast<std::size_t>(recorded_);
  const std::size_t first = wrapped ? head_ : 0;

  JsonWriter w(os);
  w.begin_object();
  w.field("schema", "beepmis.timeseries.v1");
  w.field("every", every_);
  w.field("capacity", static_cast<std::uint64_t>(cap));
  w.field("recorded", recorded_);
  w.field("dropped", dropped());
  w.key("context").begin_object();
  for (const auto& [k, v] : context_) w.field(k, v);
  w.end_object();
  w.key("samples").begin_array();
  for (std::size_t i = 0; i < have; ++i) {
    const TimeSeriesSample& s = ring_[(first + i) % cap];
    w.begin_object();
    w.field("round", s.round);
    w.field("active", s.active);
    w.field("beeps", s.beeps);
    w.field("mis", s.mis);
    w.key("timing").begin_object();
    w.field("round_ms", s.round_ms);
    w.field("imbalance", s.imbalance);
    w.field("barrier_ms", s.barrier_ms);
    w.key("phase_ms").begin_object();
    if (s.has_phases)
      for (std::size_t p = 0; p < kTimeSeriesPhases; ++p)
        w.field(kTimeSeriesPhaseKeys[p], s.phase_ms[p]);
    w.end_object();
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
}

bool timeseries_validate(const JsonValue& doc, std::string* error) {
  return check_document(doc, error);
}

bool timeseries_write_canonical(const JsonValue& doc, std::ostream& os,
                                std::string* error) {
  if (!check_document(doc, error)) return false;
  JsonWriter w(os);
  w.begin_object();
  w.field("schema", "beepmis.timeseries.v1");
  w.field("every",
          static_cast<std::uint64_t>(doc.get("every").as_number()));
  w.field("capacity",
          static_cast<std::uint64_t>(doc.get("capacity").as_number()));
  w.field("recorded",
          static_cast<std::uint64_t>(doc.get("recorded").as_number()));
  w.field("dropped",
          static_cast<std::uint64_t>(doc.get("dropped").as_number()));
  // Context minus the shard-provenance keys: the shard/worker count is the
  // one legitimate difference between otherwise identical runs (the same
  // convention as CI's sweep gate stripping the sweep.v1 "kernel" field).
  w.key("context").begin_object();
  for (const auto& [k, v] : doc.get("context").object)
    if (k != "shards" && k != "shard_threads") w.field(k, v.as_string());
  w.end_object();
  w.key("samples").begin_array();
  for (const JsonValue& s : doc.get("samples").array) {
    w.begin_object();
    for (const char* k : {"round", "active", "beeps", "mis"})
      w.field(k, static_cast<std::uint64_t>(s.get(k).as_number()));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
  return true;
}

}  // namespace beepmis::obs
