/// beepmis_report — aggregates run artifacts into one report.
///
/// Inputs (any mix, via repeated/comma-separated --in): "beepmis.run.v1"
/// manifests (CLI runs, soak summaries, BENCH_micro.json bench captures),
/// "beepmis.dump.v1" flight-recorder dumps, "beepmis.trace.v2" span traces,
/// and raw JSONL round-event files. File kind is auto-detected from content.
/// Sharded-kernel traces feed the per-(algorithm, family, n, shards)
/// phase-breakdown and load-imbalance tables, and their `engine.round` spans
/// get a wall-time-per-round growth fit next to the Thm 2.1/2.2 round-count
/// fits.
///
/// Output: a markdown report (stdout or --out) with stabilization
/// percentiles per (algorithm, family, n), the fast-vs-reference speedup
/// table, observer overheads, and flight-recorder anomalies; plus an
/// optional "beepmis.report.v1" JSON document (--json-out).
///
/// CI gating: with --baseline OLD.json, every shared *.cpu_ns benchmark —
/// and the *.real_ns of every shared "/real_time" benchmark, whose cpu_ns
/// counts only the main thread — is compared against the baseline capture
/// and the tool exits 2 when any grew by more than --tolerance (fractional,
/// default 0.10 = +10%). A dirty-tree manifest on either side of the
/// comparison draws a loud stderr warning — such numbers may not correspond
/// to any commit.

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/json_parse.hpp"
#include "src/obs/report.hpp"
#include "src/support/args.hpp"

namespace {

using namespace beepmis;

/// Splits a comma-separated --in value ("" yields nothing).
std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream in(csv);
  while (std::getline(in, item, ','))
    if (!item.empty()) out.push_back(item);
  return out;
}

bool load_json_file(const std::string& path, obs::JsonValue* doc,
                    std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = path + ": cannot open";
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string parse_error;
  if (!obs::json_parse(buf.str(), doc, &parse_error)) {
    *error = path + ": " + parse_error;
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  support::ArgParser args(
      "beepmis_report: aggregate manifests, event streams and bench "
      "captures into a markdown/JSON report with optional baseline gating");
  args.add_option("in", "",
                  "comma-separated input files (manifests, dumps, JSONL "
                  "event streams; kind auto-detected)");
  args.add_option("baseline", "",
                  "beepmis.run.v1 bench capture to compare *.cpu_ns and "
                  "/real_time *.real_ns gauges against");
  args.add_option("tolerance", "0.10",
                  "fractional regression tolerance for --baseline gating");
  args.add_option("out", "", "write the markdown report here (default: stdout)");
  args.add_option("json-out", "", "also write a beepmis.report.v1 JSON file");
  args.add_flag("quiet", "suppress the markdown report on stdout");

  std::string error;
  if (!args.parse(argc, argv, &error)) {
    std::cerr << error << '\n';
    return 1;
  }

  const std::vector<std::string> inputs = split_list(args.get("in"));
  if (inputs.empty() && args.get("baseline").empty()) {
    std::cerr << "beepmis_report: no inputs (use --in FILE[,FILE...])\n";
    return 1;
  }

  obs::ReportBuilder builder;
  for (const std::string& path : inputs) {
    if (!obs::report_ingest_file(builder, path, &error)) {
      std::cerr << "beepmis_report: " << error << '\n';
      return 1;
    }
  }

  // Loud, but not fatal (mirrors the dirty-tree warning): a trace that
  // overflowed its ring dropped its oldest spans, so its quantiles describe
  // the end of the run only.
  if (!builder.dropped_sources().empty()) {
    std::cerr << "beepmis_report: WARNING: "
              << builder.dropped_sources().size()
              << " trace input(s) dropped spans (ring overflow; trace a "
                 "shorter run):";
    for (const auto& [s, d] : builder.dropped_sources())
      std::cerr << ' ' << s << " (" << d << ")";
    std::cerr << '\n';
  }

  const double tolerance = args.get_double("tolerance");
  bool gated = false;
  if (!args.get("baseline").empty()) {
    obs::JsonValue doc;
    if (!load_json_file(args.get("baseline"), &doc, &error) ||
        !builder.set_baseline(doc, args.get("baseline"), &error)) {
      std::cerr << "beepmis_report: " << error << '\n';
      return 1;
    }
    gated = true;
    // Loud, but not fatal: a dirty manifest means the numbers may not
    // correspond to any commit, so a "regression" (or a pass) against it
    // proves nothing about the code under review.
    if (builder.baseline_dirty()) {
      std::cerr << "beepmis_report: WARNING: baseline "
                << args.get("baseline")
                << " was captured from a dirty working tree; regenerate it "
                   "from a clean checkout before trusting this gate\n";
    }
    if (!builder.dirty_sources().empty()) {
      std::cerr << "beepmis_report: WARNING: "
                << builder.dirty_sources().size()
                << " current-side input(s) were captured from a dirty "
                   "working tree:";
      for (const auto& s : builder.dirty_sources()) std::cerr << ' ' << s;
      std::cerr << '\n';
    }
  }

  if (!args.get("out").empty()) {
    std::ofstream out(args.get("out"));
    if (!out) {
      std::cerr << "beepmis_report: cannot write " << args.get("out") << '\n';
      return 1;
    }
    builder.write_markdown(out, tolerance);
  }
  if (!args.get("json-out").empty()) {
    std::ofstream out(args.get("json-out"));
    if (!out) {
      std::cerr << "beepmis_report: cannot write " << args.get("json-out")
                << '\n';
      return 1;
    }
    builder.write_json(out, tolerance);
  }
  if (args.get("out").empty() && !args.flag("quiet"))
    builder.write_markdown(std::cout, tolerance);

  if (gated) {
    const auto regs = builder.regressions(tolerance);
    if (!regs.empty()) {
      std::cerr << "beepmis_report: " << regs.size()
                << " benchmark regression(s) beyond tolerance\n";
      for (const auto& d : regs)
        std::cerr << "  " << d.name << ": ratio " << d.ratio << '\n';
      return 2;
    }
  }
  return 0;
}
