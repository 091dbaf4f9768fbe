// trace_check — validator for beepmis's span-trace and other artifacts.
//
// Accepts any of the artifact shapes and auto-detects which one it got:
//   * "beepmis.trace.v2" documents (Tracer::write_json output, Chrome
//     trace-event JSON): validated through obs::trace_validate — every
//     event carries the fields the Perfetto / chrome://tracing importers
//     require, so a trace that passes opens in ui.perfetto.dev — and
//     summarized.
//   * "beepmis.dump.v1" documents (FlightRecorder::write_dump output):
//     validated through obs::dump_validate and summarized.
//   * "beepmis.recovery.v1" documents (obs::write_recovery_json output):
//     validated through obs::recovery_validate and summarized, including
//     the summary-only folded form soak writes (empty epoch/violation
//     arrays), which is valid by design.
//
// Any other schema is rejected as unrecognised.
//
// Exit status: 0 valid, 1 invalid artifact, 2 usage/I-O error.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "src/obs/flight.hpp"
#include "src/obs/json_parse.hpp"
#include "src/obs/recovery.hpp"
#include "src/obs/trace.hpp"
#include "src/support/args.hpp"

namespace {

using beepmis::obs::JsonValue;

int fail(const std::string& what) {
  std::fprintf(stderr, "trace_check: %s\n", what.c_str());
  return 1;
}

int check_trace_v2(const JsonValue& doc) {
  std::string error;
  std::size_t tracks = 0, events = 0;
  if (!beepmis::obs::trace_validate(doc, &error, &tracks, &events))
    return fail(error);
  std::printf(
      "valid beepmis.trace.v2: %zu tracks, %zu events, dropped_total=%llu\n",
      tracks, events,
      static_cast<unsigned long long>(
          doc.get("dropped_total").as_number(0.0)));
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

}  // namespace

int main(int argc, char** argv) {
  beepmis::support::ArgParser args(
      "trace_check — validate beepmis.trace.v2 / beepmis.dump.v1 / "
      "beepmis.recovery.v1 artifacts");
  args.add_option("in", "", "artifact file to validate (required)");
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
  if (schema == "beepmis.trace.v2") return check_trace_v2(doc);
  if (schema == "beepmis.dump.v1") return check_dump_v1(doc);
  if (schema == "beepmis.recovery.v1") return check_recovery_v1(doc);
  return fail("not a beepmis.trace.v2/dump.v1/recovery.v1 document");
}
