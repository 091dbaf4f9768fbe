#include "src/obs/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>
#include <type_traits>
#include <variant>

#include "src/obs/flight.hpp"
#include "src/obs/json.hpp"
#include "src/obs/manifest.hpp"
#include "src/obs/recovery.hpp"
#include "src/obs/sink.hpp"
#include "src/obs/trace.hpp"
#include "src/support/fit.hpp"

namespace beepmis::obs {

/// One report section. The markdown prints it as a table under `title`
/// (after `intro`, before `footnote`); report.v1 writes it as the array
/// `key` of row objects. A section without rows is left out of the
/// markdown, unless `empty` gives a line to print in its place.
struct ReportSection {
  /// One cell: absent ("-" in the markdown, omitted from report.v1), text,
  /// a count, a measurement or a flag.
  using Cell =
      std::variant<std::monostate, std::string, std::uint64_t, double, bool>;
  struct Column {
    /// report.v1 member; null makes the column markdown-only, and "" (on a
    /// section's only column) writes each row as that bare value.
    const char* key;
    const char* header;  ///< markdown header; null makes it JSON-only
    const char* format = nullptr;  ///< printf format of a markdown double
    /// Adjacent columns of one group nest in a report.v1 object of that name.
    std::string_view group = {};
  };

  const char* key;
  const char* title;  ///< markdown heading; null: no section of its own
  const char* intro;
  const char* footnote;
  const char* empty;
  std::vector<Column> columns;
  std::vector<std::vector<Cell>> rows = {};
};

namespace {

constexpr std::string_view kStabSuffix = ".rounds_to_stabilize";
constexpr std::string_view kCpuSuffix = ".cpu_ns";
constexpr std::string_view kRealSuffix = ".real_ns";
/// Benchmarks registered with UseRealTime() carry this name suffix; their
/// cpu_ns counts only the main thread, so they are gated on real_ns too.
constexpr std::string_view kRealTimeName = "/real_time";

/// Context values in trace documents are strings (set_context is
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
/// benchmark name: every cpu_ns and the real_ns of real-time benchmarks.
void read_bench_gauges(const JsonValue& doc,
                       std::map<std::string, double>* cpu_ns,
                       std::map<std::string, double>* real_ns) {
  for (const auto& [name, g] : doc.get("metrics").get("gauges").object) {
    if (ends_with(name, kCpuSuffix)) {
      (*cpu_ns)[name.substr(0, name.size() - kCpuSuffix.size())] =
          g.as_number();
    } else if (ends_with(name, kRealSuffix)) {
      const std::string bench =
          name.substr(0, name.size() - kRealSuffix.size());
      if (ends_with(bench, kRealTimeName)) (*real_ns)[bench] = g.as_number();
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

bool fail(std::string* error, std::string msg) {
  if (error != nullptr) *error = std::move(msg);
  return false;
}

/// The summary quantiles merged from a digest or sweep point.
constexpr const char* kQuantiles[] = {"mean", "min", "max",
                                      "p50",  "p95", "p99"};

bool check_quantiles(const JsonValue& summary, const std::string& where,
                     std::string* error) {
  for (const char* q : kQuantiles)
    if (!json_is_finite(summary.get(q)))
      return fail(error, where + ": \"" + q + "\" must be a finite number");
  return true;
}

/// An absent member passes; a present one must be a count.
bool check_count(const JsonValue& v, const std::string& where,
                 std::string* error) {
  if (v.type == JsonValue::Type::Null || json_is_count(v)) return true;
  return fail(error, where + " must be an integer in [0, 2^53]");
}

std::string fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, v);
  return buf;
}

std::uint64_t parse_size(const std::string& size) {
  return std::strtoull(size.c_str(), nullptr, 10);
}

/// The cpu_ns gauges "<prefix><head>/<size>" as (head, size, cpu_ns), in
/// benchmark-name order.
std::vector<std::tuple<std::string, std::string, double>> bench_family(
    const std::map<std::string, double>& cpu_ns, std::string_view prefix) {
  std::vector<std::tuple<std::string, std::string, double>> out;
  for (const auto& [name, ns] : cpu_ns) {
    if (name.rfind(prefix, 0) != 0) continue;
    const std::string tail = name.substr(prefix.size());
    const std::size_t slash = tail.find('/');
    if (slash == std::string::npos) continue;
    out.emplace_back(tail.substr(0, slash), tail.substr(slash + 1), ns);
  }
  return out;
}

std::string markdown_cell(const ReportSection::Cell& cell,
                          const char* format) {
  if (const auto* s = std::get_if<std::string>(&cell)) return *s;
  if (const auto* n = std::get_if<std::uint64_t>(&cell))
    return std::to_string(*n);
  if (const auto* v = std::get_if<double>(&cell)) return fmt(format, *v);
  return "-";
}

/// The section's markdown table: text columns left-aligned, the rest
/// right-aligned. Needs at least one row.
void write_table(std::ostream& os, const ReportSection& s) {
  std::string header = "|", rule = "|";
  for (std::size_t c = 0; c < s.columns.size(); ++c) {
    if (s.columns[c].header == nullptr) continue;
    header += std::string(" ") + s.columns[c].header + " |";
    rule += std::holds_alternative<std::string>(s.rows.front()[c]) ? "---|"
                                                                    : "---:|";
  }
  os << header << '\n' << rule << '\n';
  for (const auto& row : s.rows) {
    os << '|';
    for (std::size_t c = 0; c < s.columns.size(); ++c)
      if (s.columns[c].header != nullptr)
        os << ' ' << markdown_cell(row[c], s.columns[c].format) << " |";
    os << '\n';
  }
}

/// The section as a report.v1 member: an array of row objects (or of bare
/// values, see Column::key).
void write_rows(JsonWriter& w, const ReportSection& s) {
  const char* first = s.columns.front().key;
  const bool bare = first != nullptr && *first == '\0';
  w.key(s.key).begin_array();
  for (const auto& row : s.rows) {
    if (!bare) w.begin_object();
    std::string_view group;
    for (std::size_t c = 0; c < s.columns.size(); ++c) {
      const ReportSection::Column& col = s.columns[c];
      if (col.key == nullptr ||
          std::holds_alternative<std::monostate>(row[c]))
        continue;
      if (col.group != group) {
        if (!group.empty()) w.end_object();
        group = col.group;
        if (!group.empty()) w.key(group).begin_object();
      }
      if (!bare) w.key(col.key);
      std::visit(
          [&w](const auto& v) {
            if constexpr (!std::is_same_v<std::decay_t<decltype(v)>,
                                          std::monostate>)
              w.value(v);
          },
          row[c]);
    }
    if (!group.empty()) w.end_object();
    if (!bare) w.end_object();
  }
  w.end_array();
}

/// The cpu_ns/real_ns regressions: report.v1 names the pair after the
/// metric ("baseline_cpu_ns"), the markdown shows it under one header.
ReportSection time_regression_section(
    const std::vector<ReportBuilder::BenchDelta>& deltas) {
  ReportSection s{"regressions", nullptr, nullptr, nullptr, nullptr,
                  {{"benchmark", "benchmark"}, {"metric", "metric"},
                   {nullptr, "baseline", "%.0f"},
                   {nullptr, "current", "%.0f"},
                   {"baseline_cpu_ns", nullptr}, {"current_cpu_ns", nullptr},
                   {"baseline_real_ns", nullptr},
                   {"current_real_ns", nullptr}, {"ratio", "ratio", "%.3f"}}};
  for (const auto& d : deltas) {
    const bool cpu = d.metric == "cpu_ns";
    s.rows.push_back({d.name, d.metric, d.baseline, d.current,
                      cpu ? d.baseline : ReportSection::Cell{},
                      cpu ? d.current : ReportSection::Cell{},
                      cpu ? ReportSection::Cell{} : d.baseline,
                      cpu ? ReportSection::Cell{} : d.current, d.ratio});
  }
  return s;
}

}  // namespace

void ReportBuilder::merge_summary(const StabKey& key, std::uint64_t count,
                                  double mean, double p50, double p95,
                                  double p99, double lo, double hi) {
  if (count == 0) return;
  StabAccum& a = stab_[key];
  const bool first = a.count == 0;
  const auto w = static_cast<double>(count);
  a.count += count;
  a.weighted_mean += w * mean;
  a.weighted_p50 += w * p50;
  a.weighted_p95 += w * p95;
  a.weighted_p99 += w * p99;
  a.min = first ? lo : std::min(a.min, lo);
  a.max = first ? hi : std::max(a.max, hi);
}

bool ReportBuilder::add_document(const JsonValue& doc,
                                 const std::string& source,
                                 std::string* error) {
  const std::string schema = doc.get("schema").as_string();
  std::string verror;
  const auto reject = [&] {
    if (error != nullptr) *error = source + ": " + verror;
    return false;
  };
  if (schema == "beepmis.run.v1") {
    if (!run_validate(doc, &verror)) return reject();
    sources_.push_back(source);
    const JsonValue& dirty = doc.get("build").get("git_dirty");
    if (dirty.type == JsonValue::Type::Bool && dirty.boolean)
      dirty_sources_.push_back(source);
    const StabKey key{doc.get("algorithm").get("name").as_string("?"),
                      doc.get("graph").get("family").as_string("?"),
                      static_cast<std::uint64_t>(
                          doc.get("graph").get("n").as_number(0.0))};
    for (const auto& [name, d] : doc.get("metrics").get("digests").object) {
      if (!ends_with(name, kStabSuffix)) continue;
      merge_summary(
          key, static_cast<std::uint64_t>(d.get("count").as_number(0.0)),
          d.get("mean").as_number(), d.get("p50").as_number(),
          d.get("p95").as_number(), d.get("p99").as_number(),
          d.get("min").as_number(), d.get("max").as_number());
    }
    read_bench_gauges(doc, &current_cpu_ns_, &current_real_ns_);
    return true;
  }
  if (schema == "beepmis.recovery.v1") {
    if (!recovery_validate(doc, &verror)) return reject();
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
      const double max = d.get("max").as_number(0.0);
      a.max = a.epochs == count ? max : std::max(a.max, max);
    }
    return true;
  }
  if (schema == "beepmis.sweep.v1") {
    if (!sweep_validate(doc, &verror)) return reject();
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
      WeightedSum& p = sweep_[{algorithm, family}][n];
      p.sum += static_cast<double>(runs) * pt.get("p50").as_number();
      p.count += runs;
    }
    return true;
  }
  if (schema == "beepmis.dump.v1") {
    if (!dump_validate(doc, &verror)) return reject();
    sources_.push_back(source);
    for (const JsonValue& a : doc.get("anomalies").array) {
      dump_anomalies_.emplace_back(
          source, a.get("kind").as_string("?"),
          static_cast<std::uint64_t>(a.get("round").as_number(0.0)));
    }
    return true;
  }
  if (schema == "beepmis.trace.v2") {
    if (!trace_validate(doc, &verror)) return reject();
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
      for (std::size_t p = 0; p < kShardPhaseCount; ++p)
        if (name == kShardPhaseNames[p])
          shard_[shard_key].phase_ns[p].add(dur_ns);
    }
    return true;
  }
  if (error != nullptr)
    *error = source + ": unrecognized schema \"" + schema + "\"";
  return false;
}

std::size_t ReportBuilder::add_events(std::string_view jsonl,
                                      const std::string& source,
                                      std::string* error) {
  std::size_t events = 0;
  std::size_t line_no = 0;
  std::uint64_t last_round = 0;
  double stabilized_at = -1.0;
  std::size_t begin = 0;
  while (begin < jsonl.size()) {
    const std::size_t end = jsonl.find('\n', begin);
    if (end == std::string_view::npos) break;  // incomplete trailing line
    const std::string_view line = jsonl.substr(begin, end - begin);
    begin = end + 1;
    ++line_no;
    if (line.empty()) continue;
    JsonValue v;
    if (!json_parse(line, &v) || !v.is_object()) continue;
    std::string verror;
    if (!event_validate(v, &verror)) {
      if (error != nullptr)
        *error = source + ": line " + std::to_string(line_no) + ": " + verror;
      return 0;
    }
    ++events;
    last_round = static_cast<std::uint64_t>(v.get("round").as_number(0.0));
    if (stabilized_at < 0.0 && v.has("active") &&
        v.get("active").as_number(1.0) == 0.0) {
      stabilized_at = v.get("round").as_number();
    }
  }
  sources_.push_back(source);
  if (events > 0) {
    // One sample per stream: the stabilization round, or the stream length
    // as a lower bound if the run never settled on record.
    const double rounds = stabilized_at >= 0.0
                              ? stabilized_at
                              : static_cast<double>(last_round);
    merge_summary({"(events)", source, 0}, 1, rounds, rounds, rounds, rounds,
                  rounds, rounds);
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
  if (std::string verror; !run_validate(doc, &verror)) {
    if (error != nullptr) *error = source + ": " + verror;
    return false;
  }
  baseline_cpu_ns_.clear();
  baseline_real_ns_.clear();
  read_bench_gauges(doc, &baseline_cpu_ns_, &baseline_real_ns_);
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

std::vector<ReportSection> ReportBuilder::sections() const {
  using Cell = ReportSection::Cell;
  const auto text = [](std::string s) { return Cell{std::move(s)}; };
  const auto count = [](std::uint64_t v) { return Cell{v}; };
  std::vector<ReportSection> out;

  // Growth-model fits over per-(algorithm, family) curves, every model
  // ranked best-R² first. The markdown marks the best model with `*`;
  // report.v1 flags it as "best".
  const auto fit_section = [&](const char* key, const char* title,
                               const char* intro, const Curves& curves,
                               const char* slope_format,
                               const char* level_format) {
    ReportSection s{key, title, intro, nullptr, nullptr,
                    {{"algorithm", "algorithm"}, {"family", "family"},
                     {"model", nullptr}, {nullptr, "model"},
                     {"slope", "slope", slope_format},
                     {"intercept", "intercept", level_format},
                     {"r2", "R²", "%.4f"}, {"rmse", "rmse", level_format},
                     {"sizes", "sizes"}, {"best", nullptr}}};
    for (const auto& [curve_key, curve] : curves) {
      std::vector<double> ns, ys;
      for (const auto& [n, p] : curve) {
        if (n < 3 || p.count == 0) continue;  // regressors need log log n > 0
        ns.push_back(static_cast<double>(n));
        ys.push_back(p.sum / static_cast<double>(p.count));
      }
      // A two-point "fit" matches every model exactly; demand three sizes
      // before claiming any asymptotic shape.
      if (ns.size() < 3) continue;
      const auto ranked = support::rank_growth_models(ns, ys);
      for (std::size_t i = 0; i < ranked.size(); ++i) {
        const auto& [model, fit] = ranked[i];
        const std::string name = support::growth_model_name(model);
        s.rows.push_back({text(curve_key.first), text(curve_key.second),
                          text(name), text(i == 0 ? name + " `*`" : name),
                          fit.slope, fit.intercept, fit.r2, fit.rmse,
                          count(ns.size()), i == 0});
      }
    }
    return s;
  };

  ReportSection inputs{"inputs", nullptr, nullptr, nullptr, nullptr,
                       {{"", nullptr}}};
  for (const std::string& s : sources_) inputs.rows.push_back({text(s)});
  out.push_back(std::move(inputs));

  ReportSection stab{
      "stabilization", "Stabilization (rounds)", nullptr, nullptr,
      "No `*.rounds_to_stabilize` data in the inputs.",
      {{"algorithm", "algorithm"}, {"family", "family"}, {"n", "n"},
       {"count", "runs"}, {"mean", "mean", "%.1f"}, {"p50", "p50", "%.1f"},
       {"p95", "p95", "%.1f"}, {"p99", "p99", "%.1f"}, {"min", nullptr},
       {"max", "max", "%.1f"}}};
  for (const auto& [key, a] : stab_) {
    const auto w = static_cast<double>(a.count);
    stab.rows.push_back({text(std::get<0>(key)), text(std::get<1>(key)),
                         count(std::get<2>(key)), count(a.count),
                         a.weighted_mean / w, a.weighted_p50 / w,
                         a.weighted_p95 / w, a.weighted_p99 / w, a.min,
                         a.max});
  }
  out.push_back(std::move(stab));

  out.push_back(fit_section(
      "growth_fits", "Growth-model fits (sweep p50)",
      "Thm 2.1 predicts O(log n) stabilization from scratch; Thm 2.2 "
      "predicts O(log n log log n) from adversarial states. `*` marks the "
      "best-R² model per (algorithm, family) curve.",
      sweep_, "%.3f", "%.2f"));

  ReportSection recovery{
      "recovery", "Recovery epochs (fault -> re-stabilization)", nullptr,
      "(Recovery rounds per epoch from `beepmis.recovery.v1` inputs; "
      "`stall`/`safety` > 0 deserve investigation.)",
      nullptr,
      {{"algorithm", "algorithm"}, {"family", "family"}, {"n", "n"},
       {"epochs", "epochs"}, {"masked", "masked"},
       {"recovered", "recovered"}, {"stall", "stall"},
       {"safety_violation", "safety"},
       {"invariant_violations", "violations"}, {"mean", "mean", "%.1f"},
       {"p50", "p50", "%.1f"}, {"p95", "p95", "%.1f"},
       {"max", "max", "%.1f"}}};
  for (const auto& [key, a] : recovery_) {
    const auto w = static_cast<double>(a.epochs);
    const bool any = a.epochs > 0;
    recovery.rows.push_back(
        {text(std::get<0>(key)), text(std::get<1>(key)),
         count(std::get<2>(key)), count(a.epochs), count(a.masked),
         count(a.recovered), count(a.stalls), count(a.safety_violations),
         count(a.invariant_violations), any ? a.weighted_mean / w : 0.0,
         any ? a.weighted_p50 / w : 0.0, any ? a.weighted_p95 / w : 0.0,
         any ? a.max : 0.0});
  }
  out.push_back(std::move(recovery));

  // Pair "BM_EngineRun/<variant>_fast/<n>" with its _reference sibling.
  ReportSection speedups{
      "speedups", "Fast vs reference engine", nullptr, nullptr, nullptr,
      {{"variant", "variant"}, {"n", "n"},
       {"fast_cpu_ns", "fast cpu_ns", "%.0f"},
       {"reference_cpu_ns", "reference cpu_ns", "%.0f"},
       {"speedup", "speedup", "%.2fx"}}};
  for (const auto& [run, size, fast_ns] :
       bench_family(current_cpu_ns_, "BM_EngineRun/")) {
    constexpr std::string_view kFast = "_fast";
    if (!ends_with(run, kFast)) continue;
    const std::string variant = run.substr(0, run.size() - kFast.size());
    const auto ref = current_cpu_ns_.find("BM_EngineRun/" + variant +
                                          "_reference/" + size);
    if (ref == current_cpu_ns_.end() || fast_ns <= 0.0) continue;
    speedups.rows.push_back({text(variant), count(parse_size(size)), fast_ns,
                             ref->second, ref->second / fast_ns});
  }
  out.push_back(std::move(speedups));

  // "BM_FastEngineRun_<tag>/<n>" relative to the NoSink run of the same n.
  ReportSection overheads{
      "overheads", "Instrumentation overhead (vs NoSink)", nullptr, nullptr,
      nullptr,
      {{"observer", "observer"}, {"n", "n"}, {"overhead", nullptr},
       {nullptr, "overhead", "%+.2f%%"}}};
  for (const auto& [tag, size, instrumented_ns] :
       bench_family(current_cpu_ns_, "BM_FastEngineRun_")) {
    if (tag == "NoSink") continue;
    const auto bare = current_cpu_ns_.find("BM_FastEngineRun_NoSink/" + size);
    if (bare == current_cpu_ns_.end() || bare->second <= 0.0) continue;
    const double overhead = instrumented_ns / bare->second - 1.0;
    overheads.rows.push_back(
        {text(tag), count(parse_size(size)), overhead, overhead * 100.0});
  }
  out.push_back(std::move(overheads));

  ReportSection spans{
      "trace_spans", "Trace spans (ns)", nullptr, nullptr, nullptr,
      {{"algorithm", "algorithm"}, {"family", "family"}, {"n", "n"},
       {"span", "span"}, {"count", "count"}, {"mean_ns", "mean", "%.0f"},
       {"p50_ns", "p50", "%.0f"}, {"p95_ns", "p95", "%.0f"},
       {"max_ns", "max", "%.0f"}}};
  for (const auto& [key, d] : spans_) {
    if (d.count() == 0) continue;
    spans.rows.push_back({text(std::get<0>(key)), text(std::get<1>(key)),
                          count(std::get<2>(key)), text(std::get<3>(key)),
                          count(d.count()), d.mean(), d.median(),
                          d.quantile(0.95), d.max()});
  }
  out.push_back(std::move(spans));

  // Markdown shows each phase in µs; report.v1 nests the ns means in one
  // "mean_ns" object.
  ReportSection phases{
      "phase_breakdown", "Sharded kernel phase breakdown (mean us/span)",
      nullptr,
      "(From `shard.*` spans in traces; settle and fold record two spans per "
      "round.)",
      nullptr,
      {{"algorithm", "algorithm"}, {"family", "family"}, {"n", "n"},
       {"shards", "shards"}, {"rounds", "rounds"}}};
  for (const char* phase : kShardPhaseKeys)
    phases.columns.push_back({nullptr, phase, "%.1f"});
  for (const char* phase : kShardPhaseKeys)
    phases.columns.push_back({phase, nullptr, nullptr, "mean_ns"});
  for (const auto& [key, acc] : shard_) {
    std::array<double, kShardPhaseCount> mean_ns{};
    bool any = false;
    for (std::size_t p = 0; p < kShardPhaseCount; ++p) {
      if (acc.phase_ns[p].count() == 0) continue;
      mean_ns[p] = acc.phase_ns[p].mean();
      any = true;
    }
    if (!any) continue;  // counters-only cell (a trace without phase spans)
    // One decide span per round; settle/fold record two spans per round,
    // which the mean already absorbs per occurrence.
    std::vector<Cell> row{text(std::get<0>(key)), text(std::get<1>(key)),
                          count(std::get<2>(key)), count(std::get<3>(key)),
                          count(acc.phase_ns[0].count())};
    for (const double ns : mean_ns) row.emplace_back(ns / 1e3);
    for (const double ns : mean_ns) row.emplace_back(ns);
    phases.rows.push_back(std::move(row));
  }
  out.push_back(std::move(phases));

  ReportSection imbalance{
      "imbalance", "Shard load imbalance (max/mean busy)", nullptr,
      "(1.00 = perfectly balanced shards; from the `shard.imbalance` and "
      "`shard.barrier_wait_ms` trace counters.)",
      nullptr,
      {{"algorithm", "algorithm"}, {"family", "family"}, {"n", "n"},
       {"shards", "shards"}, {"samples", "samples"},
       {"mean", "mean", "%.2f"}, {"p95", "p95", "%.2f"},
       {"max", "max", "%.2f"},
       {"barrier_ms_mean", "barrier ms/round", "%.3f"}}};
  for (const auto& [key, acc] : shard_) {
    if (acc.imbalance.count() == 0) continue;
    imbalance.rows.push_back(
        {text(std::get<0>(key)), text(std::get<1>(key)),
         count(std::get<2>(key)), count(std::get<3>(key)),
         count(acc.imbalance.count()), acc.imbalance.mean(),
         acc.imbalance.quantile(0.95), acc.imbalance.max(),
         acc.barrier_ms.count() > 0 ? acc.barrier_ms.mean() : 0.0});
  }
  out.push_back(std::move(imbalance));

  // Wall time per round: the mean `engine.round` span, in ms, per
  // (algorithm, family, n) of the ingested traces.
  Curves round_ms;
  for (const auto& [key, d] : spans_)
    if (std::get<3>(key) == "engine.round")
      round_ms[{std::get<0>(key), std::get<1>(key)}][std::get<2>(key)] = {
          d.sum() / 1e6, d.count()};
  out.push_back(fit_section(
      "round_ms_fits",
      "Wall-time-per-round growth fits (trace engine.round spans)",
      "Work per round should grow near-linearly in n (each round touches "
      "O(n + m) state); `*` marks the best-R² model per (algorithm, family) "
      "curve.",
      round_ms, "%.4f", "%.3f"));

  ReportSection dirty{"dirty_inputs", nullptr, nullptr, nullptr, nullptr,
                      {{"", nullptr}}};
  for (const std::string& s : dirty_sources_) dirty.rows.push_back({text(s)});
  out.push_back(std::move(dirty));

  ReportSection dropped{"dropped_trace_inputs", nullptr, nullptr, nullptr,
                        nullptr, {{"source", nullptr}, {"dropped", nullptr}}};
  for (const auto& [s, d] : dropped_sources_)
    dropped.rows.push_back({text(s), count(d)});
  out.push_back(std::move(dropped));

  ReportSection anomalies{
      "anomalies", "Flight-recorder anomalies", nullptr, nullptr, nullptr,
      {{"source", nullptr}, {nullptr, "source"}, {"kind", "kind"},
       {"round", "round"}}};
  for (const auto& [source, kind, round] : dump_anomalies_)
    anomalies.rows.push_back(
        {text(source), text("`" + source + "`"), text(kind), count(round)});
  out.push_back(std::move(anomalies));
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

  for (const ReportSection& s : sections()) {
    if (s.title == nullptr || (s.rows.empty() && s.empty == nullptr))
      continue;
    os << "## " << s.title << "\n\n";
    if (s.rows.empty()) {
      os << s.empty << "\n\n";
      continue;
    }
    if (s.intro != nullptr) os << s.intro << "\n\n";
    write_table(os, s);
    os << '\n';
    if (s.footnote != nullptr) os << s.footnote << "\n\n";
  }

  if (!have_baseline_) return;
  os << "## Baseline comparison\n\n";
  os << "Baseline: " << baseline_label_ << ", tolerance "
     << fmt("%.0f%%", tolerance * 100.0) << ".\n\n";
  if (baseline_dirty_) {
    os << "> **Warning:** the baseline was captured from a dirty working "
          "tree — regressions against it may be phantoms of uncommitted "
          "code. Regenerate it from a clean checkout.\n\n";
  }
  const ReportSection regs = time_regression_section(regressions(tolerance));
  if (regs.rows.empty()) {
    os << "No regressions: every shared benchmark is within tolerance "
          "across " << bench_deltas().size() << " compared benchmarks.\n";
  } else {
    os << "**" << regs.rows.size() << " regression(s):**\n\n";
    write_table(os, regs);
  }
  os << '\n';
}

void ReportBuilder::write_json(std::ostream& os, double tolerance) const {
  JsonWriter w(os);
  w.begin_object();
  w.field("schema", "beepmis.report.v1");
  w.field("generated", timestamp_utc());
  for (const ReportSection& s : sections()) write_rows(w, s);

  w.key("baseline").begin_object();
  w.field("present", have_baseline_);
  if (have_baseline_) {
    w.field("label", baseline_label_);
    w.field("dirty", baseline_dirty_);
    w.field("tolerance", tolerance);
    write_rows(w, time_regression_section(regressions(tolerance)));
    w.field("compared", static_cast<std::uint64_t>(bench_deltas().size()));
  }
  w.end_object();

  w.end_object();
  os << '\n';
}

bool run_validate(const JsonValue& doc, std::string* error) {
  if (doc.get("schema").as_string() != "beepmis.run.v1")
    return fail(error, "not a beepmis.run.v1 document");
  if (!check_count(doc.get("graph").get("n"), "run.v1: graph.n", error))
    return false;
  const JsonValue& metrics = doc.get("metrics");
  for (const auto& [name, d] : metrics.get("digests").object) {
    if (!ends_with(name, kStabSuffix)) continue;
    const std::string where = "run.v1: digest " + name;
    if (!check_count(d.get("count"), where + ".count", error)) return false;
    if (d.get("count").as_number(0.0) > 0.0 &&
        !check_quantiles(d, where, error))
      return false;
  }
  for (const auto& [name, g] : metrics.get("gauges").object) {
    if ((ends_with(name, kCpuSuffix) || ends_with(name, kRealSuffix)) &&
        !json_is_finite(g))
      return fail(error, "run.v1: gauge " + name + " must be a finite number");
  }
  return true;
}

bool sweep_validate(const JsonValue& doc, std::string* error) {
  if (doc.get("schema").as_string() != "beepmis.sweep.v1")
    return fail(error, "not a beepmis.sweep.v1 document");
  const JsonValue& points = doc.get("points");
  if (!points.is_array())
    return fail(error, "sweep.v1: \"points\" must be an array");
  for (std::size_t i = 0; i < points.array.size(); ++i) {
    const JsonValue& pt = points.array[i];
    const std::string where = "sweep.v1: points[" + std::to_string(i) + "]";
    for (const char* count : {"n", "runs"})
      if (!json_is_count(pt.get(count)))
        return fail(error, where + ": \"" + count +
                               "\" must be an integer in [0, 2^53]");
    if (pt.get("runs").number > 0.0 && !check_quantiles(pt, where, error))
      return false;
  }
  return true;
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

  std::string eerror;
  if (builder.add_events(text, path, &eerror) > 0) return true;
  if (error != nullptr)
    *error = !eerror.empty() ? eerror
                             : path + ": neither a known JSON document "
                                      "nor a JSONL event stream";
  return false;
}

}  // namespace beepmis::obs
