#include "src/obs/manifest.hpp"

#include <cstdio>
#include <cstring>
#include <ctime>
#include <ostream>

#include "src/obs/json.hpp"

namespace beepmis::obs {

std::uint64_t peak_rss_bytes() {
#if defined(__linux__)
  // VmHWM ("high water mark") is the process's peak resident set; reading it
  // at manifest-finalize time captures the whole run's footprint. The field
  // is kilobytes per proc(5).
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::uint64_t kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      if (std::sscanf(line + 6, "%llu",
                      reinterpret_cast<unsigned long long*>(&kb)) != 1)
        kb = 0;
      break;
    }
  }
  std::fclose(f);
  return kb * 1024;
#else
  return 0;
#endif
}

std::string build_compiler() {
#if defined(__clang__)
  return std::string("clang ") + __VERSION__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string build_type() {
#ifdef BEEPMIS_BUILD_TYPE
  return BEEPMIS_BUILD_TYPE;
#else
  return "unknown";
#endif
}

bool build_assertions_enabled() {
#ifdef NDEBUG
  return false;
#else
  return true;
#endif
}

std::string build_git_sha() {
#ifdef BEEPMIS_GIT_SHA
  return BEEPMIS_GIT_SHA;
#else
  return "";
#endif
}

bool build_git_dirty() {
#if defined(BEEPMIS_GIT_DIRTY) && BEEPMIS_GIT_DIRTY
  return true;
#else
  return false;
#endif
}

std::string timestamp_utc() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

void write_run_json(std::ostream& os, const RunManifest& m,
                    const MetricsRegistry* metrics) {
  JsonWriter w(os);
  w.begin_object();
  w.field("schema", "beepmis.run.v1");
  w.field("tool", m.tool);
  w.field("timestamp", timestamp_utc());
  w.field("seed", m.seed);

  w.key("graph").begin_object();
  w.field("name", m.graph_name);
  w.field("family", m.family);
  w.field("n", m.n);
  w.field("m", m.m);
  w.field("max_degree", m.max_degree);
  w.end_object();

  w.key("algorithm").begin_object();
  w.field("name", m.algorithm);
  w.field("init", m.init_policy);
  w.field("c1", m.c1);
  w.end_object();

  w.key("build").begin_object();
  w.field("compiler", build_compiler());
  w.field("build_type", build_type());
  w.field("assertions", build_assertions_enabled());
  w.field("git_sha", build_git_sha());
  w.field("git_dirty", build_git_dirty());
  w.end_object();

  w.key("timing").begin_object();
  w.field("wall_ms", m.wall_ms);
  w.end_object();

  w.key("obs").begin_object();
  w.field("trace_dropped", m.trace_dropped);
  // Peak RSS sampled here, at finalize, so it covers the whole run; the
  // string form marks a host that does not expose it.
  if (const std::uint64_t rss = peak_rss_bytes(); rss != 0)
    w.field("peak_rss_bytes", rss);
  else
    w.field("peak_rss", "unavailable");
  w.end_object();

  w.key("extra").begin_object();
  for (const auto& [k, v] : m.extra) w.field(k, v);
  w.end_object();

  w.key("metrics");
  if (metrics != nullptr) {
    metrics->write_json(os);  // nested document, emitted in place
  } else {
    w.begin_object().end_object();
  }

  w.end_object();
  os << '\n';
}

}  // namespace beepmis::obs
