// trace_check — validator/converter for span-trace and profile artifacts.
//
// Accepts any of the artifact shapes and auto-detects which one it got:
//   * "beepmis.trace.v1" documents (Tracer::write_json output): validated
//     structurally, summarized, and optionally converted to Chrome
//     trace_event JSON with --chrome-out.
//   * Chrome trace_event JSON ({"traceEvents": [...]}, the form
//     trace_export_chrome emits): every event is checked for the fields the
//     Perfetto / chrome://tracing importers require, so CI can assert that a
//     converted trace will actually open in ui.perfetto.dev.
//   * "beepmis.profile.v1" documents (PerfSession::write_json output):
//     validated through obs::profile_validate — the same path the tests
//     use — and summarized, including the unavailable-host form
//     ("available": false with no spans), which is valid by design.
//   * "beepmis.dump.v1" documents (FlightRecorder::write_dump output):
//     validated through obs::dump_validate and summarized.
//   * "beepmis.recovery.v1" documents (obs::write_recovery_json output):
//     validated through obs::recovery_validate and summarized, including
//     the summary-only folded form soak writes (empty epoch/violation
//     arrays), which is valid by design.
//   * "beepmis.timeseries.v1" documents (TimeSeries::write_json output):
//     validated through obs::timeseries_validate and summarized;
//     --canonical-out writes the deterministic projection (samples minus
//     their "timing" objects, context minus shard provenance) that the CI
//     determinism gates diff across --shard-threads values.
//
// Exit status: 0 valid, 1 invalid artifact, 2 usage/I-O error.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "src/obs/flight.hpp"
#include "src/obs/json_parse.hpp"
#include "src/obs/perf.hpp"
#include "src/obs/recovery.hpp"
#include "src/obs/timeseries.hpp"
#include "src/obs/trace.hpp"
#include "src/support/args.hpp"

namespace {

using beepmis::obs::JsonValue;

int fail(const std::string& what) {
  std::fprintf(stderr, "trace_check: %s\n", what.c_str());
  return 1;
}

/// Validates one Chrome trace_event record against what the Perfetto JSON
/// importer needs. `where` names the event for error messages.
bool check_chrome_event(const JsonValue& ev, const std::string& where,
                        std::string* error) {
  if (!ev.is_object()) {
    *error = where + ": event is not an object";
    return false;
  }
  const std::string ph = ev.get("ph").as_string("");
  if (ph.empty()) {
    *error = where + ": missing \"ph\"";
    return false;
  }
  const std::string name = ev.get("name").as_string("");
  if (name.empty()) {
    *error = where + ": missing \"name\"";
    return false;
  }
  // process_* metadata is process-scoped and legitimately has no tid.
  const bool process_scoped = ph == "M" && name.rfind("process_", 0) == 0;
  if (!ev.has("pid") || (!process_scoped && !ev.has("tid"))) {
    *error = where + ": missing pid/tid";
    return false;
  }
  if (ph == "M") {
    // Metadata records carry their payload in args (e.g. thread_name).
    if (!ev.get("args").is_object()) {
      *error = where + ": metadata record without args";
      return false;
    }
    return true;
  }
  if (!ev.has("ts")) {
    *error = where + ": missing \"ts\"";
    return false;
  }
  if (ph == "X") {
    if (!ev.has("dur")) {
      *error = where + ": complete event without \"dur\"";
      return false;
    }
    return true;
  }
  if (ph == "C") {
    if (!ev.get("args").is_object() || !ev.get("args").has("value")) {
      *error = where + ": counter event without args.value";
      return false;
    }
    return true;
  }
  if (ph == "i") return true;  // instant: ph/ts/name suffice
  *error = where + ": unknown phase \"" + ph + "\"";
  return false;
}

int check_chrome(const JsonValue& doc) {
  const JsonValue& events = doc.get("traceEvents");
  if (!events.is_array()) return fail("\"traceEvents\" is not an array");
  std::size_t metadata = 0, spans = 0, counters = 0, instants = 0;
  for (std::size_t i = 0; i < events.array.size(); ++i) {
    std::string error;
    if (!check_chrome_event(events.array[i], "traceEvents[" + std::to_string(i) + "]",
                            &error))
      return fail(error);
    const std::string ph = events.array[i].get("ph").as_string("");
    if (ph == "M") ++metadata;
    else if (ph == "X") ++spans;
    else if (ph == "C") ++counters;
    else ++instants;
  }
  std::printf(
      "valid chrome trace: %zu events (%zu metadata, %zu spans, "
      "%zu counters, %zu instants)\n",
      events.array.size(), metadata, spans, counters, instants);
  return 0;
}

int check_trace_v1(const JsonValue& doc, const std::string& chrome_out) {
  // trace_export_chrome performs the structural validation (schema, thread
  // tracks, event shapes); converting into a throwaway buffer doubles as the
  // validity check even when no --chrome-out was requested.
  std::ostringstream chrome;
  std::string error;
  if (!beepmis::obs::trace_export_chrome(doc, chrome, &error))
    return fail(error);

  std::size_t events = 0;
  const JsonValue& threads = doc.get("threads");
  for (const JsonValue& t : threads.array)
    events += t.get("events").array.size();
  std::printf(
      "valid beepmis.trace.v1: %zu threads, %zu events, dropped_total=%llu\n",
      threads.array.size(), events,
      static_cast<unsigned long long>(
          doc.get("dropped_total").as_number(0.0)));

  if (!chrome_out.empty()) {
    std::ofstream out(chrome_out);
    if (!out) {
      std::fprintf(stderr, "cannot open: %s\n", chrome_out.c_str());
      return 2;
    }
    out << chrome.str();
    std::printf("wrote %s\n", chrome_out.c_str());
  }
  return 0;
}

int check_dump_v1(const JsonValue& doc) {
  std::string error;
  std::size_t anomalies = 0, ring = 0;
  if (!beepmis::obs::dump_validate(doc, &error, &anomalies, &ring))
    return fail(error);
  std::printf(
      "valid beepmis.dump.v1: %zu anomalies, %zu ring events, tool=%s n=%llu\n",
      anomalies, ring, doc.get("context").get("tool").as_string("").c_str(),
      static_cast<unsigned long long>(
          doc.get("context").get("graph").get("n").as_number(0.0)));
  return 0;
}

int check_recovery_v1(const JsonValue& doc) {
  std::string error;
  std::size_t epochs = 0, violations = 0;
  if (!beepmis::obs::recovery_validate(doc, &error, &epochs, &violations))
    return fail(error);
  std::printf(
      "valid beepmis.recovery.v1: %zu epochs (%zu recorded), "
      "%zu violations (%zu recorded), tool=%s\n",
      epochs, doc.get("epochs").array.size(), violations,
      doc.get("violations").array.size(),
      doc.get("context").get("tool").as_string("").c_str());
  return 0;
}

int check_profile_v1(const JsonValue& doc) {
  std::string error;
  std::size_t spans = 0, counters = 0;
  if (!beepmis::obs::profile_validate(doc, &error, &spans, &counters))
    return fail(error);
  const bool available = doc.get("available").boolean;
  std::printf(
      "valid beepmis.profile.v1: available=%s, %zu counters, %zu spans, "
      "sample_every=%llu\n",
      available ? "true" : "false", counters, spans,
      static_cast<unsigned long long>(
          doc.get("sample_every").as_number(0.0)));
  return 0;
}

int check_timeseries_v1(const JsonValue& doc,
                        const std::string& canonical_out) {
  std::string error;
  if (!beepmis::obs::timeseries_validate(doc, &error)) return fail(error);
  std::printf(
      "valid beepmis.timeseries.v1: %zu samples, every=%llu, "
      "recorded=%llu, dropped=%llu\n",
      doc.get("samples").array.size(),
      static_cast<unsigned long long>(doc.get("every").as_number(0.0)),
      static_cast<unsigned long long>(doc.get("recorded").as_number(0.0)),
      static_cast<unsigned long long>(doc.get("dropped").as_number(0.0)));
  if (!canonical_out.empty()) {
    std::ofstream out(canonical_out);
    if (!out) {
      std::fprintf(stderr, "cannot open: %s\n", canonical_out.c_str());
      return 2;
    }
    if (!beepmis::obs::timeseries_write_canonical(doc, out, &error))
      return fail(error);
    std::printf("wrote %s\n", canonical_out.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  beepmis::support::ArgParser args(
      "trace_check — validate beepmis.trace.v1 / beepmis.profile.v1 / "
      "beepmis.dump.v1 / beepmis.recovery.v1 / beepmis.timeseries.v1 / "
      "Chrome trace_event artifacts");
  args.add_option("in", "", "artifact file to validate (required)");
  args.add_option("chrome-out", "",
                  "also convert a trace.v1 input to Chrome trace_event JSON "
                  "at this path");
  args.add_option("canonical-out", "",
                  "for timeseries.v1 inputs: also write the deterministic "
                  "projection (samples minus their timing, context minus "
                  "shard provenance) here — the form the CI determinism "
                  "gates diff across shard counts");
  std::string error;
  if (!args.parse(argc, argv, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  const std::string path = args.get("in");
  if (path.empty()) {
    std::fprintf(stderr, "trace_check: --in is required\n");
    return 2;
  }

  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open: %s\n", path.c_str());
    return 2;
  }
  std::ostringstream body;
  body << in.rdbuf();

  JsonValue doc;
  if (!beepmis::obs::json_parse(body.str(), &doc, &error))
    return fail("parse error: " + error);
  if (!doc.is_object()) return fail("top level is not an object");

  const std::string schema = doc.get("schema").as_string("");
  if (schema == "beepmis.trace.v1")
    return check_trace_v1(doc, args.get("chrome-out"));
  if (schema == "beepmis.profile.v1") return check_profile_v1(doc);
  if (schema == "beepmis.dump.v1") return check_dump_v1(doc);
  if (schema == "beepmis.recovery.v1") return check_recovery_v1(doc);
  if (schema == "beepmis.timeseries.v1")
    return check_timeseries_v1(doc, args.get("canonical-out"));
  if (doc.has("traceEvents")) return check_chrome(doc);
  return fail(
      "neither a beepmis.trace.v1/profile.v1/dump.v1/recovery.v1/"
      "timeseries.v1 document nor a chrome trace");
}
