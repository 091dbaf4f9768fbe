#include "src/obs/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>

#include "src/obs/flight.hpp"
#include "src/obs/json.hpp"
#include "src/obs/manifest.hpp"
#include "src/obs/perf.hpp"
#include "src/obs/recovery.hpp"
#include "src/obs/trace.hpp"
#include "src/support/fit.hpp"

namespace beepmis::obs {

namespace {

constexpr std::string_view kStabSuffix = ".rounds_to_stabilize";
constexpr std::string_view kInstrSuffix = ".instructions";
constexpr std::string_view kCpuSuffix = ".cpu_ns";
constexpr std::string_view kRealSuffix = ".real_ns";
/// Benchmarks registered with UseRealTime() carry this name suffix; their
/// cpu_ns counts only the main thread, so they are gated on real_ns too.
constexpr std::string_view kRealTimeName = "/real_time";

/// Context values in profile and trace documents are strings (set_context is
/// string->string); tolerate a raw number anyway.
std::uint64_t context_u64(const JsonValue& ctx, const char* key) {
  const JsonValue& v = ctx.get(key);
  const auto n = static_cast<std::uint64_t>(v.as_number(0.0));
  if (n != 0) return n;
  return std::strtoull(v.as_string("0").c_str(), nullptr, 10);
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Splits a bench capture's gauges into the gated maps, keyed by the
/// benchmark name: every cpu_ns, the real_ns of real-time benchmarks, and
/// the instruction counts.
void read_bench_gauges(const JsonValue& doc,
                       std::map<std::string, double>* cpu_ns,
                       std::map<std::string, double>* real_ns,
                       std::map<std::string, double>* instr) {
  for (const auto& [name, g] : doc.get("metrics").get("gauges").object) {
    if (ends_with(name, kCpuSuffix)) {
      (*cpu_ns)[name.substr(0, name.size() - kCpuSuffix.size())] =
          g.as_number();
    } else if (ends_with(name, kRealSuffix)) {
      const std::string bench =
          name.substr(0, name.size() - kRealSuffix.size());
      if (ends_with(bench, kRealTimeName)) (*real_ns)[bench] = g.as_number();
    } else if (ends_with(name, kInstrSuffix)) {
      (*instr)[name.substr(0, name.size() - kInstrSuffix.size())] =
          g.as_number();
    }
  }
}

/// current/baseline pairs of one gated metric, in benchmark-name order.
void append_deltas(const std::map<std::string, double>& current,
                   const std::map<std::string, double>& baseline,
                   const char* metric,
                   std::vector<ReportBuilder::BenchDelta>* out) {
  for (const auto& [name, now] : current) {
    const auto it = baseline.find(name);
    if (it == baseline.end() || it->second <= 0.0) continue;
    out->push_back({name, metric, it->second, now, now / it->second});
  }
}

/// The deltas above `tolerance`, worst first.
std::vector<ReportBuilder::BenchDelta> over_tolerance(
    std::vector<ReportBuilder::BenchDelta> deltas, double tolerance) {
  std::erase_if(deltas,
                [&](const auto& d) { return d.ratio <= 1.0 + tolerance; });
  std::sort(deltas.begin(), deltas.end(),
            [](const auto& a, const auto& b) { return a.ratio > b.ratio; });
  return deltas;
}

std::string fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, v);
  return buf;
}

}  // namespace

void ReportBuilder::merge_summary(const StabKey& key, std::uint64_t count,
                                  double mean, double p50, double p95,
                                  double p99, double lo, double hi) {
  if (count == 0) return;
  StabAccum& a = stab_[key];
  const auto w = static_cast<double>(count);
  a.count += count;
  a.weighted_mean += w * mean;
  a.weighted_p50 += w * p50;
  a.weighted_p95 += w * p95;
  a.weighted_p99 += w * p99;
  a.min = a.any ? std::min(a.min, lo) : lo;
  a.max = a.any ? std::max(a.max, hi) : hi;
  a.any = true;
}

void ReportBuilder::merge_sample(const StabKey& key, double rounds) {
  merge_summary(key, 1, rounds, rounds, rounds, rounds, rounds, rounds);
}

void ReportBuilder::accumulate_stabilization(const JsonValue& doc) {
  const StabKey key{doc.get("algorithm").get("name").as_string("?"),
                    doc.get("graph").get("family").as_string("?"),
                    static_cast<std::uint64_t>(
                        doc.get("graph").get("n").as_number(0.0))};

  const JsonValue& metrics = doc.get("metrics");
  for (const auto& [name, d] : metrics.get("digests").object) {
    if (!ends_with(name, kStabSuffix)) continue;
    const auto count =
        static_cast<std::uint64_t>(d.get("count").as_number(0.0));
    if (count == 0) continue;
    merge_summary(key, count, d.get("mean").as_number(),
                  d.get("p50").as_number(), d.get("p95").as_number(),
                  d.get("p99").as_number(), d.get("min").as_number(),
                  d.get("max").as_number());
  }
}

bool ReportBuilder::add_document(const JsonValue& doc,
                                 const std::string& source,
                                 std::string* error) {
  const std::string schema = doc.get("schema").as_string();
  if (schema == "beepmis.run.v1") {
    sources_.push_back(source);
    const JsonValue& dirty = doc.get("build").get("git_dirty");
    if (dirty.type == JsonValue::Type::Bool && dirty.boolean)
      dirty_sources_.push_back(source);
    accumulate_stabilization(doc);
    read_bench_gauges(doc, &current_cpu_ns_, &current_real_ns_,
                      &current_instr_);
    return true;
  }
  if (schema == "beepmis.profile.v1") {
    std::string verror;
    if (!profile_validate(doc, &verror)) {
      if (error != nullptr) *error = source + ": " + verror;
      return false;
    }
    sources_.push_back(source);
    // An unavailable profile validates with an empty span set — it is
    // listed as ingested but contributes no row.
    if (doc.get("spans").object.empty()) return true;
    const JsonValue& ctx = doc.get("context");
    const StabKey key{ctx.get("algorithm").as_string("?"),
                      ctx.get("family").as_string("?"),
                      context_u64(ctx, "n")};
    ProfileAccum& acc = profile_[key];
    acc.m = std::max(acc.m, context_u64(ctx, "m"));
    for (const auto& [span_name, span] : doc.get("spans").object) {
      for (const auto& [cname, st] : span.object) {
        CounterSum& cs = acc.spans[span_name][cname];
        cs.sum += st.get("sum").as_number(0.0);
        cs.count +=
            static_cast<std::uint64_t>(st.get("count").as_number(0.0));
      }
    }
    return true;
  }
  if (schema == "beepmis.recovery.v1") {
    std::string verror;
    if (!recovery_validate(doc, &verror)) {
      if (error != nullptr) *error = source + ": " + verror;
      return false;
    }
    sources_.push_back(source);
    const JsonValue& ctx = doc.get("context");
    const StabKey key{ctx.get("algorithm").as_string("?"),
                      ctx.get("graph").get("family").as_string("?"),
                      static_cast<std::uint64_t>(
                          ctx.get("graph").get("n").as_number(0.0))};
    const JsonValue& s = doc.get("summary");
    RecoveryAccum& a = recovery_[key];
    const auto count =
        static_cast<std::uint64_t>(s.get("epochs").as_number(0.0));
    a.epochs += count;
    a.masked += static_cast<std::uint64_t>(s.get("masked").as_number(0.0));
    a.recovered +=
        static_cast<std::uint64_t>(s.get("recovered").as_number(0.0));
    a.stalls += static_cast<std::uint64_t>(s.get("stall").as_number(0.0));
    a.safety_violations += static_cast<std::uint64_t>(
        s.get("safety_violation").as_number(0.0));
    a.invariant_violations += static_cast<std::uint64_t>(
        s.get("invariant_violations").as_number(0.0));
    const JsonValue& d = s.get("recovery_rounds");
    if (count > 0) {
      const auto w = static_cast<double>(count);
      a.weighted_mean += w * d.get("mean").as_number(0.0);
      a.weighted_p50 += w * d.get("p50").as_number(0.0);
      a.weighted_p95 += w * d.get("p95").as_number(0.0);
      a.max = a.any ? std::max(a.max, d.get("max").as_number(0.0))
                    : d.get("max").as_number(0.0);
      a.any = true;
    }
    return true;
  }
  if (schema == "beepmis.sweep.v1") {
    sources_.push_back(source);
    const std::string algorithm = doc.get("algorithm").as_string("?");
    const std::string family = doc.get("family").as_string("?");
    for (const JsonValue& pt : doc.get("points").array) {
      const auto n = static_cast<std::uint64_t>(pt.get("n").as_number(0.0));
      const auto runs =
          static_cast<std::uint64_t>(pt.get("runs").as_number(0.0));
      if (n == 0 || runs == 0) continue;
      // Sweep quantiles are exact per-point digests, so they join the
      // stabilization table at full fidelity (p90 has no column and is
      // dropped).
      merge_summary({algorithm, family, n}, runs,
                    pt.get("mean").as_number(), pt.get("p50").as_number(),
                    pt.get("p95").as_number(), pt.get("p99").as_number(),
                    pt.get("min").as_number(), pt.get("max").as_number());
      SweepSample& s = sweep_[{algorithm, family}][n];
      s.weighted_p50 +=
          static_cast<double>(runs) * pt.get("p50").as_number();
      s.runs += runs;
    }
    return true;
  }
  if (schema == "beepmis.dump.v1") {
    std::string verror;
    if (!dump_validate(doc, &verror)) {
      if (error != nullptr) *error = source + ": " + verror;
      return false;
    }
    sources_.push_back(source);
    for (const JsonValue& a : doc.get("anomalies").array) {
      dump_anomalies_.push_back({source, a.get("kind").as_string("?"),
                                 static_cast<std::uint64_t>(
                                     a.get("round").as_number(0.0))});
    }
    return true;
  }
  if (schema == "beepmis.trace.v2") {
    std::string verror;
    if (!trace_validate(doc, &verror)) {
      if (error != nullptr) *error = source + ": " + verror;
      return false;
    }
    sources_.push_back(source);
    const auto dropped = static_cast<std::uint64_t>(
        doc.get("dropped_total").as_number(0.0));
    if (dropped > 0) dropped_sources_.emplace_back(source, dropped);
    // Every complete ("X") event feeds the per-span duration digest in ns;
    // the trace's context block keys the cell next to the stabilization
    // rows.
    const JsonValue& ctx = doc.get("otherData");
    const std::string algorithm = ctx.get("algorithm").as_string("?");
    const std::string family = ctx.get("family").as_string("?");
    const std::uint64_t n = context_u64(ctx, "n");
    const PhaseKey shard_key{algorithm, family, n, context_u64(ctx, "shards")};
    for (const JsonValue& ev : doc.get("traceEvents").array) {
      const std::string ph = ev.get("ph").as_string();
      const std::string name = ev.get("name").as_string("?");
      if (ph == "C") {
        // Per-round shard counters feed the imbalance digests.
        const double value = ev.get("args").get("value").as_number(0.0);
        if (name == "shard.imbalance")
          shard_[shard_key].imbalance.add(value);
        else if (name == "shard.barrier_wait_ms")
          shard_[shard_key].barrier_ms.add(value);
        continue;
      }
      if (ph != "X") continue;
      const auto dur_ns = static_cast<double>(
          std::llround(ev.get("dur").as_number(0.0) * 1000.0));
      spans_[{algorithm, family, n, name}].add(dur_ns);
      // "shard.<phase>" spans additionally feed the phase-breakdown
      // table, which (unlike the span table) is keyed by shard count.
      for (std::size_t p = 0; p < kTimeSeriesPhases; ++p)
        if (name == std::string("shard.") + kTimeSeriesPhaseKeys[p])
          shard_[shard_key].phase_ns[p].add(dur_ns);
    }
    return true;
  }
  if (schema == "beepmis.timeseries.v1") {
    std::string verror;
    if (!timeseries_validate(doc, &verror)) {
      if (error != nullptr) *error = source + ": " + verror;
      return false;
    }
    sources_.push_back(source);
    const JsonValue& ctx = doc.get("context");
    const std::string algorithm = ctx.get("algorithm").as_string("?");
    const std::string family = ctx.get("family").as_string("?");
    const std::uint64_t n = context_u64(ctx, "n");
    const std::uint64_t shards = context_u64(ctx, "shards");
    ShardAccum& acc = shard_[{algorithm, family, n, shards}];
    RoundMsSample& curve = round_ms_[{algorithm, family}][n];
    for (const JsonValue& s : doc.get("samples").array) {
      const JsonValue& timing = s.get("timing");
      const double round_ms = timing.get("round_ms").as_number(0.0);
      if (round_ms > 0.0) {
        curve.sum += round_ms;
        curve.count += 1;
      }
      const double imbalance = timing.get("imbalance").as_number(0.0);
      if (imbalance > 0.0) {
        acc.imbalance.add(imbalance);
        acc.barrier_ms.add(timing.get("barrier_ms").as_number(0.0));
      }
    }
    return true;
  }
  if (error != nullptr)
    *error = source + ": unrecognized schema \"" + schema + "\"";
  return false;
}

std::size_t ReportBuilder::add_events(std::string_view jsonl,
                                      const std::string& source) {
  sources_.push_back(source);
  std::size_t events = 0;
  std::uint64_t last_round = 0;
  double stabilized_at = -1.0;
  std::size_t begin = 0;
  while (begin < jsonl.size()) {
    const std::size_t end = jsonl.find('\n', begin);
    if (end == std::string_view::npos) break;  // incomplete trailing line
    const std::string_view line = jsonl.substr(begin, end - begin);
    begin = end + 1;
    if (line.empty()) continue;
    JsonValue v;
    if (!json_parse(line, &v) || !v.is_object()) continue;
    ++events;
    last_round = static_cast<std::uint64_t>(v.get("round").as_number(0.0));
    if (stabilized_at < 0.0 && v.has("active") &&
        v.get("active").as_number(1.0) == 0.0) {
      stabilized_at = v.get("round").as_number();
    }
  }
  if (events > 0) {
    // One sample per stream: the stabilization round, or the stream length
    // as a lower bound if the run never settled on record.
    merge_sample({"(events)", source, 0},
                 stabilized_at >= 0.0 ? stabilized_at
                                      : static_cast<double>(last_round));
  }
  return events;
}

bool ReportBuilder::set_baseline(const JsonValue& doc,
                                 const std::string& source,
                                 std::string* error) {
  if (doc.get("schema").as_string() != "beepmis.run.v1") {
    if (error != nullptr)
      *error = source + ": baseline must be a beepmis.run.v1 capture";
    return false;
  }
  baseline_cpu_ns_.clear();
  baseline_real_ns_.clear();
  baseline_instr_.clear();
  read_bench_gauges(doc, &baseline_cpu_ns_, &baseline_real_ns_,
                    &baseline_instr_);
  if (baseline_cpu_ns_.empty()) {
    if (error != nullptr)
      *error = source + ": baseline has no *.cpu_ns gauges";
    return false;
  }
  const JsonValue& build = doc.get("build");
  baseline_label_ = source;
  baseline_dirty_ = build.get("git_dirty").type == JsonValue::Type::Bool &&
                    build.get("git_dirty").boolean;
  const std::string sha = build.get("git_sha").as_string();
  if (!sha.empty()) {
    baseline_label_ += " @ " + sha;
    if (baseline_dirty_) baseline_label_ += "-dirty";
  }
  const std::string ts = doc.get("timestamp").as_string();
  if (!ts.empty()) baseline_label_ += " (" + ts + ")";
  have_baseline_ = true;
  return true;
}

std::vector<ReportBuilder::BenchDelta> ReportBuilder::bench_deltas() const {
  std::vector<BenchDelta> out;
  if (!have_baseline_) return out;
  append_deltas(current_cpu_ns_, baseline_cpu_ns_, "cpu_ns", &out);
  append_deltas(current_real_ns_, baseline_real_ns_, "real_ns", &out);
  std::stable_sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.name < b.name;
  });
  return out;
}

std::vector<ReportBuilder::BenchDelta> ReportBuilder::regressions(
    double tolerance) const {
  return over_tolerance(bench_deltas(), tolerance);
}

std::vector<ReportBuilder::BenchDelta> ReportBuilder::instruction_deltas()
    const {
  std::vector<BenchDelta> out;
  if (have_baseline_)
    append_deltas(current_instr_, baseline_instr_, "instructions", &out);
  return out;
}

std::vector<ReportBuilder::BenchDelta> ReportBuilder::instruction_regressions(
    double tolerance) const {
  return over_tolerance(instruction_deltas(), tolerance);
}

std::vector<ReportBuilder::StabRow> ReportBuilder::stabilization_rows()
    const {
  std::vector<StabRow> out;
  for (const auto& [key, a] : stab_) {
    const auto w = static_cast<double>(a.count);
    out.push_back({std::get<0>(key), std::get<1>(key), std::get<2>(key),
                   a.count, a.weighted_mean / w, a.weighted_p50 / w,
                   a.weighted_p95 / w, a.weighted_p99 / w, a.min, a.max});
  }
  return out;
}

std::vector<ReportBuilder::GrowthFitRow> ReportBuilder::growth_fit_rows()
    const {
  std::vector<GrowthFitRow> out;
  for (const auto& [key, curve] : sweep_) {
    std::vector<double> ns, ys;
    for (const auto& [n, s] : curve) {
      if (n < 3 || s.runs == 0) continue;  // regressors need log log n > 0
      ns.push_back(static_cast<double>(n));
      ys.push_back(s.weighted_p50 / static_cast<double>(s.runs));
    }
    // A two-point "fit" matches every model exactly; demand three sizes
    // before claiming any asymptotic shape.
    if (ns.size() < 3) continue;
    const auto ranked = support::rank_growth_models(ns, ys);
    for (std::size_t i = 0; i < ranked.size(); ++i) {
      const auto& [model, fit] = ranked[i];
      out.push_back({key.first, key.second,
                     support::growth_model_name(model), fit.slope,
                     fit.intercept, fit.r2, fit.rmse,
                     static_cast<std::uint64_t>(ns.size()), i == 0});
    }
  }
  return out;
}

std::vector<ReportBuilder::RecoveryRow> ReportBuilder::recovery_rows()
    const {
  std::vector<RecoveryRow> out;
  for (const auto& [key, a] : recovery_) {
    RecoveryRow r;
    r.algorithm = std::get<0>(key);
    r.family = std::get<1>(key);
    r.n = std::get<2>(key);
    r.epochs = a.epochs;
    r.masked = a.masked;
    r.recovered = a.recovered;
    r.stalls = a.stalls;
    r.safety_violations = a.safety_violations;
    r.invariant_violations = a.invariant_violations;
    if (a.epochs > 0) {
      const auto w = static_cast<double>(a.epochs);
      r.mean = a.weighted_mean / w;
      r.p50 = a.weighted_p50 / w;
      r.p95 = a.weighted_p95 / w;
      r.max = a.max;
    }
    out.push_back(std::move(r));
  }
  return out;
}

std::vector<ReportBuilder::Speedup> ReportBuilder::speedups() const {
  // Pair "BM_EngineRun/<variant>_fast/<n>" with its _reference sibling.
  std::vector<Speedup> out;
  constexpr std::string_view kPrefix = "BM_EngineRun/";
  for (const auto& [name, fast_ns] : current_cpu_ns_) {
    if (name.rfind(kPrefix, 0) != 0) continue;
    const std::string tail = name.substr(kPrefix.size());
    const std::size_t slash = tail.find('/');
    if (slash == std::string::npos) continue;
    const std::string run = tail.substr(0, slash);   // "v1_fast"
    const std::string size = tail.substr(slash + 1);  // "1024"
    constexpr std::string_view kFast = "_fast";
    if (!ends_with(run, kFast)) continue;
    const std::string variant = run.substr(0, run.size() - kFast.size());
    const auto ref = current_cpu_ns_.find(std::string(kPrefix) + variant +
                                          "_reference/" + size);
    if (ref == current_cpu_ns_.end() || fast_ns <= 0.0) continue;
    out.push_back({variant,
                   static_cast<std::uint64_t>(std::strtoull(
                       size.c_str(), nullptr, 10)),
                   fast_ns, ref->second, ref->second / fast_ns});
  }
  return out;
}

std::vector<ReportBuilder::KernelSpeedup> ReportBuilder::kernel_speedups()
    const {
  // Pair "BM_FastEngineKernel/<kernel>/<n>" with the scalar oracle at the
  // same n. The scalar row itself is omitted (speedup 1.00x by definition).
  std::vector<KernelSpeedup> out;
  constexpr std::string_view kPrefix = "BM_FastEngineKernel/";
  for (const auto& [name, cpu_ns] : current_cpu_ns_) {
    if (name.rfind(kPrefix, 0) != 0) continue;
    const std::string tail = name.substr(kPrefix.size());
    const std::size_t slash = tail.find('/');
    if (slash == std::string::npos) continue;
    const std::string kernel = tail.substr(0, slash);
    if (kernel == "scalar") continue;
    const std::string size = tail.substr(slash + 1);
    const auto scalar =
        current_cpu_ns_.find(std::string(kPrefix) + "scalar/" + size);
    if (scalar == current_cpu_ns_.end() || cpu_ns <= 0.0) continue;
    out.push_back({kernel,
                   static_cast<std::uint64_t>(std::strtoull(
                       size.c_str(), nullptr, 10)),
                   cpu_ns, scalar->second, scalar->second / cpu_ns});
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.n != b.n ? a.n < b.n : a.kernel < b.kernel;
  });
  return out;
}

std::vector<ReportBuilder::Overhead> ReportBuilder::overheads() const {
  // "BM_FastEngineRun_<tag>/<n>" relative to the NoSink run of the same n.
  std::vector<Overhead> out;
  constexpr std::string_view kPrefix = "BM_FastEngineRun_";
  for (const auto& [name, instrumented_ns] : current_cpu_ns_) {
    if (name.rfind(kPrefix, 0) != 0) continue;
    const std::string tail = name.substr(kPrefix.size());
    const std::size_t slash = tail.find('/');
    if (slash == std::string::npos) continue;
    const std::string tag = tail.substr(0, slash);
    if (tag == "NoSink") continue;
    const std::string size = tail.substr(slash + 1);
    const auto bare =
        current_cpu_ns_.find(std::string(kPrefix) + "NoSink/" + size);
    if (bare == current_cpu_ns_.end() || bare->second <= 0.0) continue;
    out.push_back({tag,
                   static_cast<std::uint64_t>(std::strtoull(
                       size.c_str(), nullptr, 10)),
                   instrumented_ns / bare->second - 1.0});
  }
  return out;
}

std::vector<ReportBuilder::SpanRow> ReportBuilder::span_rows() const {
  std::vector<SpanRow> out;
  for (const auto& [key, d] : spans_) {
    if (d.count() == 0) continue;
    out.push_back({std::get<0>(key), std::get<1>(key), std::get<2>(key),
                   std::get<3>(key), d.count(), d.mean(), d.median(),
                   d.quantile(0.95), d.max()});
  }
  return out;
}

std::vector<ReportBuilder::GrowthFitRow> ReportBuilder::round_ms_fit_rows()
    const {
  std::vector<GrowthFitRow> out;
  for (const auto& [key, curve] : round_ms_) {
    std::vector<double> ns, ys;
    for (const auto& [n, s] : curve) {
      if (n < 3 || s.count == 0) continue;  // regressors need log log n > 0
      ns.push_back(static_cast<double>(n));
      ys.push_back(s.sum / static_cast<double>(s.count));
    }
    // Same rule as the round-count fits: a two-point curve matches every
    // model exactly, so demand three sizes before claiming a shape.
    if (ns.size() < 3) continue;
    const auto ranked = support::rank_growth_models(ns, ys);
    for (std::size_t i = 0; i < ranked.size(); ++i) {
      const auto& [model, fit] = ranked[i];
      out.push_back({key.first, key.second,
                     support::growth_model_name(model), fit.slope,
                     fit.intercept, fit.r2, fit.rmse,
                     static_cast<std::uint64_t>(ns.size()), i == 0});
    }
  }
  return out;
}

std::vector<ReportBuilder::PhaseRow> ReportBuilder::phase_rows() const {
  std::vector<PhaseRow> out;
  for (const auto& [key, acc] : shard_) {
    PhaseRow r;
    r.algorithm = std::get<0>(key);
    r.family = std::get<1>(key);
    r.n = std::get<2>(key);
    r.shards = std::get<3>(key);
    bool any = false;
    for (std::size_t p = 0; p < kTimeSeriesPhases; ++p) {
      if (acc.phase_ns[p].count() == 0) continue;
      r.mean_ns[p] = acc.phase_ns[p].mean();
      any = true;
    }
    if (!any) continue;  // imbalance-only cell (timeseries input)
    // One decide span per round; settle/fold record two spans per round,
    // which the mean already absorbs per occurrence.
    r.rounds = acc.phase_ns[0].count();
    out.push_back(std::move(r));
  }
  return out;
}

std::vector<ReportBuilder::ImbalanceRow> ReportBuilder::imbalance_rows()
    const {
  std::vector<ImbalanceRow> out;
  for (const auto& [key, acc] : shard_) {
    if (acc.imbalance.count() == 0) continue;
    ImbalanceRow r;
    r.algorithm = std::get<0>(key);
    r.family = std::get<1>(key);
    r.n = std::get<2>(key);
    r.shards = std::get<3>(key);
    r.samples = acc.imbalance.count();
    r.mean = acc.imbalance.mean();
    r.p95 = acc.imbalance.quantile(0.95);
    r.max = acc.imbalance.max();
    r.barrier_ms_mean =
        acc.barrier_ms.count() > 0 ? acc.barrier_ms.mean() : 0.0;
    out.push_back(std::move(r));
  }
  return out;
}

std::vector<ReportBuilder::ProfileRow> ReportBuilder::profile_rows() const {
  std::vector<ProfileRow> out;
  for (const auto& [key, acc] : profile_) {
    ProfileRow r;
    r.algorithm = std::get<0>(key);
    r.family = std::get<1>(key);
    r.n = std::get<2>(key);

    // Ratio columns divide sums aggregated over every span (sampled work
    // is sampled work wherever it was bracketed).
    std::map<std::string, CounterSum> total;
    for (const auto& [sname, counters] : acc.spans)
      for (const auto& [cname, cs] : counters) {
        total[cname].sum += cs.sum;
        total[cname].count += cs.count;
      }
    const auto sum_of = [&total](const char* cname) {
      const auto it = total.find(cname);
      return it == total.end() ? 0.0 : it->second.sum;
    };
    if (sum_of("cycles") > 0.0 && sum_of("instructions") > 0.0)
      r.ipc = sum_of("instructions") / sum_of("cycles");
    if (sum_of("branches") > 0.0)
      r.branch_miss_rate = sum_of("branch_misses") / sum_of("branches");

    // Normalized columns come from the per-round samples specifically —
    // each "engine.round" sample brackets exactly one round.
    const auto round_it = acc.spans.find("engine.round");
    if (round_it != acc.spans.end()) {
      const auto mean_of = [&round_it](const char* cname) {
        const auto it = round_it->second.find(cname);
        return it == round_it->second.end() || it->second.count == 0
                   ? -1.0
                   : it->second.sum / static_cast<double>(it->second.count);
      };
      const auto any = round_it->second.begin();
      if (any != round_it->second.end()) r.samples = any->second.count;
      r.instr_per_round = mean_of("instructions");
      r.task_clock_per_round_ns = mean_of("task_clock_ns");
      const double miss = mean_of("cache_misses");
      if (miss >= 0.0 && acc.m > 0)
        r.cache_miss_per_edge = miss / static_cast<double>(acc.m);
    }
    out.push_back(std::move(r));
  }
  return out;
}

void ReportBuilder::write_markdown(std::ostream& os,
                                   double tolerance) const {
  os << "# beepmis report\n\n";
  os << "Generated " << timestamp_utc() << " from " << sources_.size()
     << " input(s):\n\n";
  for (const std::string& s : sources_) os << "- `" << s << "`\n";
  os << '\n';

  if (!dirty_sources_.empty()) {
    os << "> **Warning:** " << dirty_sources_.size()
       << " input(s) were captured from a dirty working tree — their "
          "numbers may not correspond to any commit:";
    for (const std::string& s : dirty_sources_) os << " `" << s << "`";
    os << "\n\n";
  }

  if (!dropped_sources_.empty()) {
    os << "> **Warning:** " << dropped_sources_.size()
       << " trace input(s) overflowed their ring and dropped spans — "
          "their quantiles are biased toward the end of the run (the "
          "ring keeps each thread's newest records; trace a shorter "
          "run):";
    for (const auto& [s, d] : dropped_sources_)
      os << " `" << s << "` (" << d << " dropped)";
    os << "\n\n";
  }

  const auto stab = stabilization_rows();
  os << "## Stabilization (rounds)\n\n";
  if (stab.empty()) {
    os << "No `*.rounds_to_stabilize` data in the inputs.\n\n";
  } else {
    os << "| algorithm | family | n | runs | mean | p50 | p95 | p99 | max "
          "|\n";
    os << "|---|---|---:|---:|---:|---:|---:|---:|---:|\n";
    for (const StabRow& r : stab) {
      os << "| " << r.algorithm << " | " << r.family << " | " << r.n
         << " | " << r.count << " | " << fmt("%.1f", r.mean) << " | "
         << fmt("%.1f", r.p50) << " | " << fmt("%.1f", r.p95) << " | "
         << fmt("%.1f", r.p99) << " | " << fmt("%.1f", r.max) << " |\n";
    }
    os << "\n";
  }

  const auto fits = growth_fit_rows();
  if (!fits.empty()) {
    os << "## Growth-model fits (sweep p50)\n\n";
    os << "Thm 2.1 predicts O(log n) stabilization from scratch; Thm 2.2 "
          "predicts O(log n log log n) from adversarial states. `*` marks "
          "the best-R² model per (algorithm, family) curve.\n\n";
    os << "| algorithm | family | model | slope | intercept | R² | "
          "rmse | sizes |\n";
    os << "|---|---|---|---:|---:|---:|---:|---:|\n";
    for (const GrowthFitRow& r : fits) {
      os << "| " << r.algorithm << " | " << r.family << " | " << r.model
         << (r.best ? " `*`" : "") << " | " << fmt("%.3f", r.slope) << " | "
         << fmt("%.2f", r.intercept) << " | " << fmt("%.4f", r.r2) << " | "
         << fmt("%.2f", r.rmse) << " | " << r.sizes << " |\n";
    }
    os << '\n';
  }

  const auto recovery = recovery_rows();
  if (!recovery.empty()) {
    os << "## Recovery epochs (fault -> re-stabilization)\n\n";
    os << "| algorithm | family | n | epochs | masked | recovered | stall | "
          "safety | violations | mean | p50 | p95 | max |\n";
    os << "|---|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|"
          "---:|\n";
    for (const RecoveryRow& r : recovery) {
      os << "| " << r.algorithm << " | " << r.family << " | " << r.n
         << " | " << r.epochs << " | " << r.masked << " | " << r.recovered
         << " | " << r.stalls << " | " << r.safety_violations << " | "
         << r.invariant_violations << " | " << fmt("%.1f", r.mean) << " | "
         << fmt("%.1f", r.p50) << " | " << fmt("%.1f", r.p95) << " | "
         << fmt("%.1f", r.max) << " |\n";
    }
    os << "\n(Recovery rounds per epoch from `beepmis.recovery.v1` inputs; "
          "`stall`/`safety` > 0 deserve investigation.)\n\n";
  }

  const auto speed = speedups();
  if (!speed.empty()) {
    os << "## Fast vs reference engine\n\n";
    os << "| variant | n | fast cpu_ns | reference cpu_ns | speedup |\n";
    os << "|---|---:|---:|---:|---:|\n";
    for (const Speedup& s : speed) {
      os << "| " << s.variant << " | " << s.n << " | "
         << fmt("%.0f", s.fast_cpu_ns) << " | "
         << fmt("%.0f", s.reference_cpu_ns) << " | "
         << fmt("%.2fx", s.speedup) << " |\n";
    }
    os << '\n';
  }

  const auto kernels = kernel_speedups();
  if (!kernels.empty()) {
    os << "## Round kernels vs scalar oracle\n\n";
    os << "| kernel | n | cpu_ns | scalar cpu_ns | speedup |\n";
    os << "|---|---:|---:|---:|---:|\n";
    for (const KernelSpeedup& k : kernels) {
      os << "| " << k.kernel << " | " << k.n << " | "
         << fmt("%.0f", k.cpu_ns) << " | " << fmt("%.0f", k.scalar_cpu_ns)
         << " | " << fmt("%.2fx", k.speedup) << " |\n";
    }
    os << '\n';
  }

  const auto over = overheads();
  if (!over.empty()) {
    os << "## Instrumentation overhead (vs NoSink)\n\n";
    os << "| observer | n | overhead |\n|---|---:|---:|\n";
    for (const Overhead& o : over) {
      os << "| " << o.tag << " | " << o.n << " | "
         << fmt("%+.2f%%", o.overhead * 100.0) << " |\n";
    }
    os << '\n';
  }

  const auto spans = span_rows();
  if (!spans.empty()) {
    os << "## Trace spans (ns)\n\n";
    os << "| algorithm | family | n | span | count | mean | p50 | p95 | max "
          "|\n";
    os << "|---|---|---:|---|---:|---:|---:|---:|---:|\n";
    for (const SpanRow& r : spans) {
      os << "| " << r.algorithm << " | " << r.family << " | " << r.n
         << " | " << r.name << " | " << r.count << " | "
         << fmt("%.0f", r.mean_ns) << " | " << fmt("%.0f", r.p50_ns)
         << " | " << fmt("%.0f", r.p95_ns) << " | " << fmt("%.0f", r.max_ns)
         << " |\n";
    }
    os << '\n';
  }

  const auto phases = phase_rows();
  if (!phases.empty()) {
    os << "## Sharded kernel phase breakdown (mean us/span)\n\n";
    os << "| algorithm | family | n | shards | rounds |";
    for (std::size_t p = 0; p < kTimeSeriesPhases; ++p)
      os << ' ' << kTimeSeriesPhaseKeys[p] << " |";
    os << "\n|---|---|---:|---:|---:|";
    for (std::size_t p = 0; p < kTimeSeriesPhases; ++p) os << "---:|";
    os << '\n';
    for (const PhaseRow& r : phases) {
      os << "| " << r.algorithm << " | " << r.family << " | " << r.n
         << " | " << r.shards << " | " << r.rounds << " |";
      for (std::size_t p = 0; p < kTimeSeriesPhases; ++p)
        os << ' ' << fmt("%.1f", r.mean_ns[p] / 1e3) << " |";
      os << '\n';
    }
    os << "\n(From `shard.*` spans in traces; settle and fold record two "
          "spans per round.)\n\n";
  }

  const auto imbalance = imbalance_rows();
  if (!imbalance.empty()) {
    os << "## Shard load imbalance (max/mean busy)\n\n";
    os << "| algorithm | family | n | shards | samples | mean | p95 | max | "
          "barrier ms/round |\n";
    os << "|---|---|---:|---:|---:|---:|---:|---:|---:|\n";
    for (const ImbalanceRow& r : imbalance) {
      os << "| " << r.algorithm << " | " << r.family << " | " << r.n
         << " | " << r.shards << " | " << r.samples << " | "
         << fmt("%.2f", r.mean) << " | " << fmt("%.2f", r.p95) << " | "
         << fmt("%.2f", r.max) << " | " << fmt("%.3f", r.barrier_ms_mean)
         << " |\n";
    }
    os << "\n(1.00 = perfectly balanced shards; from trace counters and "
          "timeseries timing blocks.)\n\n";
  }

  const auto round_fits = round_ms_fit_rows();
  if (!round_fits.empty()) {
    os << "## Wall-time-per-round growth fits (timeseries round_ms)\n\n";
    os << "Work per round should grow near-linearly in n (each round "
          "touches O(n + m) state); `*` marks the best-R² model per "
          "(algorithm, family) curve.\n\n";
    os << "| algorithm | family | model | slope | intercept | R² | "
          "rmse | sizes |\n";
    os << "|---|---|---|---:|---:|---:|---:|---:|\n";
    for (const GrowthFitRow& r : round_fits) {
      os << "| " << r.algorithm << " | " << r.family << " | " << r.model
         << (r.best ? " `*`" : "") << " | " << fmt("%.4f", r.slope) << " | "
         << fmt("%.3f", r.intercept) << " | " << fmt("%.4f", r.r2) << " | "
         << fmt("%.3f", r.rmse) << " | " << r.sizes << " |\n";
    }
    os << '\n';
  }

  const auto prof = profile_rows();
  if (!prof.empty()) {
    // "-" = the host denied the counters that metric needs (or the profile
    // context lacked the denominator, e.g. "m" for the per-edge column).
    const auto cell = [](double v, const char* format) {
      return v < 0.0 ? std::string("-") : fmt(format, v);
    };
    os << "## Hardware profile\n\n";
    os << "| algorithm | family | n | samples | IPC | instr/round | "
          "cache-miss/edge | branch-miss | task-clock/round |\n";
    os << "|---|---|---:|---:|---:|---:|---:|---:|---:|\n";
    for (const ProfileRow& r : prof) {
      os << "| " << r.algorithm << " | " << r.family << " | " << r.n
         << " | " << r.samples << " | " << cell(r.ipc, "%.2f") << " | "
         << cell(r.instr_per_round, "%.0f") << " | "
         << cell(r.cache_miss_per_edge, "%.3f") << " | "
         << cell(r.branch_miss_rate * 100.0, "%.2f%%") << " | "
         << cell(r.task_clock_per_round_ns, "%.0fns") << " |\n";
    }
    os << "\n(Sampled perf-counter digests from `beepmis.profile.v1` "
          "inputs; `-` means the host denied that counter.)\n\n";
  }

  if (!dump_anomalies_.empty()) {
    os << "## Flight-recorder anomalies\n\n";
    os << "| source | kind | round |\n|---|---|---:|\n";
    for (const DumpAnomaly& a : dump_anomalies_) {
      os << "| `" << a.source << "` | " << a.kind << " | " << a.round
         << " |\n";
    }
    os << '\n';
  }

  if (have_baseline_) {
    os << "## Baseline comparison\n\n";
    os << "Baseline: " << baseline_label_ << ", tolerance "
       << fmt("%.0f%%", tolerance * 100.0) << ".\n\n";
    if (baseline_dirty_) {
      os << "> **Warning:** the baseline was captured from a dirty working "
            "tree — regressions against it may be phantoms of uncommitted "
            "code. Regenerate it from a clean checkout.\n\n";
    }
    const auto regs = regressions(tolerance);
    if (regs.empty()) {
      os << "No regressions: every shared benchmark is within tolerance "
            "across " << bench_deltas().size() << " compared benchmarks.\n";
    } else {
      os << "**" << regs.size() << " regression(s):**\n\n";
      os << "| benchmark | metric | baseline | current | ratio |\n";
      os << "|---|---|---:|---:|---:|\n";
      for (const BenchDelta& d : regs) {
        os << "| " << d.name << " | " << d.metric << " | "
           << fmt("%.0f", d.baseline) << " | " << fmt("%.0f", d.current)
           << " | " << fmt("%.3f", d.ratio) << " |\n";
      }
    }
    os << '\n';
    const auto ideltas = instruction_deltas();
    if (!ideltas.empty()) {
      const auto iregs = instruction_regressions(tolerance);
      if (iregs.empty()) {
        os << "Instruction counts: every shared benchmark is within "
              "tolerance across " << ideltas.size()
           << " compared benchmarks.\n";
      } else {
        os << "**" << iregs.size()
           << " instruction-count regression(s)** (less noisy than cpu_ns "
              "— real code-path growth):\n\n";
        os << "| benchmark | baseline instr | current instr | ratio |\n";
        os << "|---|---:|---:|---:|\n";
        for (const BenchDelta& d : iregs) {
          os << "| " << d.name << " | " << fmt("%.0f", d.baseline)
             << " | " << fmt("%.0f", d.current) << " | "
             << fmt("%.3f", d.ratio) << " |\n";
        }
      }
      os << '\n';
    }
  }
}

void ReportBuilder::write_json(std::ostream& os, double tolerance) const {
  JsonWriter w(os);
  w.begin_object();
  w.field("schema", "beepmis.report.v1");
  w.field("generated", timestamp_utc());

  w.key("inputs").begin_array();
  for (const std::string& s : sources_) w.value(s);
  w.end_array();

  w.key("stabilization").begin_array();
  for (const StabRow& r : stabilization_rows()) {
    w.begin_object();
    w.field("algorithm", r.algorithm);
    w.field("family", r.family);
    w.field("n", r.n);
    w.field("count", r.count);
    w.field("mean", r.mean);
    w.field("p50", r.p50);
    w.field("p95", r.p95);
    w.field("p99", r.p99);
    w.field("min", r.min);
    w.field("max", r.max);
    w.end_object();
  }
  w.end_array();

  w.key("growth_fits").begin_array();
  for (const GrowthFitRow& r : growth_fit_rows()) {
    w.begin_object();
    w.field("algorithm", r.algorithm);
    w.field("family", r.family);
    w.field("model", r.model);
    w.field("slope", r.slope);
    w.field("intercept", r.intercept);
    w.field("r2", r.r2);
    w.field("rmse", r.rmse);
    w.field("sizes", r.sizes);
    w.field("best", r.best);
    w.end_object();
  }
  w.end_array();

  w.key("recovery").begin_array();
  for (const RecoveryRow& r : recovery_rows()) {
    w.begin_object();
    w.field("algorithm", r.algorithm);
    w.field("family", r.family);
    w.field("n", r.n);
    w.field("epochs", r.epochs);
    w.field("masked", r.masked);
    w.field("recovered", r.recovered);
    w.field("stall", r.stalls);
    w.field("safety_violation", r.safety_violations);
    w.field("invariant_violations", r.invariant_violations);
    w.field("mean", r.mean);
    w.field("p50", r.p50);
    w.field("p95", r.p95);
    w.field("max", r.max);
    w.end_object();
  }
  w.end_array();

  w.key("speedups").begin_array();
  for (const Speedup& s : speedups()) {
    w.begin_object();
    w.field("variant", s.variant);
    w.field("n", s.n);
    w.field("fast_cpu_ns", s.fast_cpu_ns);
    w.field("reference_cpu_ns", s.reference_cpu_ns);
    w.field("speedup", s.speedup);
    w.end_object();
  }
  w.end_array();

  w.key("kernel_speedups").begin_array();
  for (const KernelSpeedup& k : kernel_speedups()) {
    w.begin_object();
    w.field("kernel", k.kernel);
    w.field("n", k.n);
    w.field("cpu_ns", k.cpu_ns);
    w.field("scalar_cpu_ns", k.scalar_cpu_ns);
    w.field("speedup", k.speedup);
    w.end_object();
  }
  w.end_array();

  w.key("overheads").begin_array();
  for (const Overhead& o : overheads()) {
    w.begin_object();
    w.field("observer", o.tag);
    w.field("n", o.n);
    w.field("overhead", o.overhead);
    w.end_object();
  }
  w.end_array();

  w.key("trace_spans").begin_array();
  for (const SpanRow& r : span_rows()) {
    w.begin_object();
    w.field("algorithm", r.algorithm);
    w.field("family", r.family);
    w.field("n", r.n);
    w.field("span", r.name);
    w.field("count", r.count);
    w.field("mean_ns", r.mean_ns);
    w.field("p50_ns", r.p50_ns);
    w.field("p95_ns", r.p95_ns);
    w.field("max_ns", r.max_ns);
    w.end_object();
  }
  w.end_array();

  w.key("phase_breakdown").begin_array();
  for (const PhaseRow& r : phase_rows()) {
    w.begin_object();
    w.field("algorithm", r.algorithm);
    w.field("family", r.family);
    w.field("n", r.n);
    w.field("shards", r.shards);
    w.field("rounds", r.rounds);
    w.key("mean_ns").begin_object();
    for (std::size_t p = 0; p < kTimeSeriesPhases; ++p)
      w.field(kTimeSeriesPhaseKeys[p], r.mean_ns[p]);
    w.end_object();
    w.end_object();
  }
  w.end_array();

  w.key("imbalance").begin_array();
  for (const ImbalanceRow& r : imbalance_rows()) {
    w.begin_object();
    w.field("algorithm", r.algorithm);
    w.field("family", r.family);
    w.field("n", r.n);
    w.field("shards", r.shards);
    w.field("samples", r.samples);
    w.field("mean", r.mean);
    w.field("p95", r.p95);
    w.field("max", r.max);
    w.field("barrier_ms_mean", r.barrier_ms_mean);
    w.end_object();
  }
  w.end_array();

  w.key("round_ms_fits").begin_array();
  for (const GrowthFitRow& r : round_ms_fit_rows()) {
    w.begin_object();
    w.field("algorithm", r.algorithm);
    w.field("family", r.family);
    w.field("model", r.model);
    w.field("slope", r.slope);
    w.field("intercept", r.intercept);
    w.field("r2", r.r2);
    w.field("rmse", r.rmse);
    w.field("sizes", r.sizes);
    w.field("best", r.best);
    w.end_object();
  }
  w.end_array();

  // Absent metrics (host denied the counters) are omitted, not emitted as
  // sentinels — consumers key on field presence.
  w.key("profile").begin_array();
  for (const ProfileRow& r : profile_rows()) {
    w.begin_object();
    w.field("algorithm", r.algorithm);
    w.field("family", r.family);
    w.field("n", r.n);
    w.field("samples", r.samples);
    if (r.ipc >= 0.0) w.field("ipc", r.ipc);
    if (r.instr_per_round >= 0.0)
      w.field("instructions_per_round", r.instr_per_round);
    if (r.cache_miss_per_edge >= 0.0)
      w.field("cache_misses_per_edge", r.cache_miss_per_edge);
    if (r.branch_miss_rate >= 0.0)
      w.field("branch_miss_rate", r.branch_miss_rate);
    if (r.task_clock_per_round_ns >= 0.0)
      w.field("task_clock_per_round_ns", r.task_clock_per_round_ns);
    w.end_object();
  }
  w.end_array();

  w.key("dirty_inputs").begin_array();
  for (const std::string& s : dirty_sources_) w.value(s);
  w.end_array();

  w.key("dropped_trace_inputs").begin_array();
  for (const auto& [s, d] : dropped_sources_) {
    w.begin_object();
    w.field("source", s);
    w.field("dropped", d);
    w.end_object();
  }
  w.end_array();

  w.key("anomalies").begin_array();
  for (const DumpAnomaly& a : dump_anomalies_) {
    w.begin_object();
    w.field("source", a.source);
    w.field("kind", a.kind);
    w.field("round", a.round);
    w.end_object();
  }
  w.end_array();

  w.key("baseline").begin_object();
  w.field("present", have_baseline_);
  if (have_baseline_) {
    w.field("label", baseline_label_);
    w.field("dirty", baseline_dirty_);
    w.field("tolerance", tolerance);
    w.key("regressions").begin_array();
    for (const BenchDelta& d : regressions(tolerance)) {
      w.begin_object();
      w.field("benchmark", d.name);
      w.field("metric", d.metric);
      w.field("baseline_" + d.metric, d.baseline);
      w.field("current_" + d.metric, d.current);
      w.field("ratio", d.ratio);
      w.end_object();
    }
    w.end_array();
    w.field("compared", static_cast<std::uint64_t>(bench_deltas().size()));
    w.key("instruction_regressions").begin_array();
    for (const BenchDelta& d : instruction_regressions(tolerance)) {
      w.begin_object();
      w.field("benchmark", d.name);
      w.field("baseline_instructions", d.baseline);
      w.field("current_instructions", d.current);
      w.field("ratio", d.ratio);
      w.end_object();
    }
    w.end_array();
    w.field("instructions_compared",
            static_cast<std::uint64_t>(instruction_deltas().size()));
  }
  w.end_object();

  w.end_object();
  os << '\n';
}

bool report_ingest_file(ReportBuilder& builder, const std::string& path,
                        std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = path + ": cannot open";
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  JsonValue doc;
  if (json_parse(text, &doc) && doc.is_object() && doc.has("schema"))
    return builder.add_document(doc, path, error);

  if (builder.add_events(text, path) == 0) {
    if (error != nullptr)
      *error = path + ": neither a known JSON document nor a JSONL "
               "event stream";
    return false;
  }
  return true;
}

}  // namespace beepmis::obs
