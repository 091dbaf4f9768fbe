#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/metrics.hpp"

namespace beepmis::obs {

/// Reproducibility header for one tool invocation (CLI run, bench, soak):
/// everything needed to regenerate the result from the artifact alone —
/// seed, graph identity, algorithm configuration, build description, and
/// wall-clock timing. Serialized as the "manifest" section of the run JSON
/// (schema "beepmis.run.v1") next to a MetricsRegistry dump.
struct RunManifest {
  std::string tool;          ///< e.g. "beepmis_cli"
  std::uint64_t seed = 0;    ///< master seed (runs are pure functions of it)

  // Graph identity. `family` is the generator name ("er-avg8", ...) or
  // "file" for loaded topologies; n/m/max_degree are the instance's actuals.
  std::string graph_name;
  std::string family;
  std::uint64_t n = 0;
  std::uint64_t m = 0;
  std::uint64_t max_degree = 0;

  // Algorithm configuration.
  std::string algorithm;     ///< variant/baseline name, e.g. "V1-global-delta"
  std::string init_policy;   ///< initial-configuration policy name
  std::int64_t c1 = 0;       ///< lmax constant (0 = paper default)

  double wall_ms = 0.0;      ///< total invocation wall-clock time

  // Observability self-description: how much telemetry the run itself lost
  // or lacked, surfaced in the artifact rather than only on stderr.
  /// Tracing-session ring overwrites (Tracer::dropped_spans at export); 0
  /// when tracing was off or nothing fell off the rings.
  std::uint64_t trace_dropped = 0;

  /// Free-form string key/values (results, tool-specific knobs). Serialized
  /// under "extra" in declaration order.
  std::vector<std::pair<std::string, std::string>> extra;

  void add_extra(std::string key, std::string value) {
    extra.emplace_back(std::move(key), std::move(value));
  }
};

/// Compile-time build description: compiler version, build type
/// (BEEPMIS_BUILD_TYPE compile definition), NDEBUG state.
std::string build_compiler();
std::string build_type();
bool build_assertions_enabled();

/// Git provenance captured at configure time (BEEPMIS_GIT_SHA /
/// BEEPMIS_GIT_DIRTY compile definitions): the short commit hash the binary
/// was built from (empty when unavailable) and whether the working tree had
/// uncommitted changes. Lets beepmis_report label baselines with the exact
/// code revision that produced them.
std::string build_git_sha();
bool build_git_dirty();

/// Current UTC time as ISO-8601 ("2026-08-07T12:34:56Z").
std::string timestamp_utc();

/// Peak resident set size of this process in bytes (VmHWM from
/// /proc/self/status); 0 where the kernel does not expose it (non-Linux) —
/// write_run_json then records "peak_rss": "unavailable" instead of a size.
std::uint64_t peak_rss_bytes();

/// Writes the full run document:
///   {"schema": "beepmis.run.v1", "tool": ..., "timestamp": ...,
///    "seed": ..., "graph": {...}, "algorithm": {...}, "build": {...},
///    "timing": {"wall_ms": ...},
///    "obs": {"trace_dropped": ..., "peak_rss_bytes": ...},
///    "extra": {...}, "metrics": {...}}
/// `metrics` may be null, in which case the "metrics" member is an empty
/// object. The output is a single JSON document followed by a newline.
void write_run_json(std::ostream& os, const RunManifest& manifest,
                    const MetricsRegistry* metrics);

}  // namespace beepmis::obs
