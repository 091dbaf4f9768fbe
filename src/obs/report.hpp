#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "src/obs/json_parse.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"

namespace beepmis::obs {

/// One report section — its columns and rows — defined once for both
/// renderings (see report.cpp).
struct ReportSection;

/// Aggregates run artifacts — "beepmis.run.v1" manifests (including bench
/// captures such as BENCH_micro.json), "beepmis.sweep.v1" scaling-sweep
/// summaries, "beepmis.recovery.v1" recovery artifacts, "beepmis.dump.v1"
/// flight-recorder dumps, "beepmis.trace.v2" span traces and raw JSONL
/// round-event streams — into one report:
/// stabilization percentiles per (algorithm, family, n), growth-model fits
/// over sweep curves (the Thm 2.1 / Thm 2.2 shape check), per-fault
/// recovery-epoch outcomes and quantiles, fast-vs-reference speedups, sink
/// and digest overheads, span-duration quantiles, the sharded kernel's
/// phase breakdown and load imbalance,
/// wall-time-per-round growth fits over the traces' `engine.round` spans,
/// and an optional baseline comparison that flags benchmark regressions —
/// cpu_ns and the real_ns of real-time benchmarks — for CI gating.
/// Each section is defined once and rendered both as markdown for humans
/// and as a "beepmis.report.v1" JSON document for machines.
class ReportBuilder {
 public:
  /// One benchmark gauge compared against the baseline capture.
  struct BenchDelta {
    std::string name;    ///< gauge prefix, e.g. "BM_EngineRun/v1_fast/1024"
    std::string metric;  ///< "cpu_ns" or "real_ns"
    double baseline = 0.0;
    double current = 0.0;
    double ratio = 0.0;  ///< current / baseline (> 1 means slower)
  };

  /// Ingests one parsed artifact. Accepts "beepmis.run.v1",
  /// "beepmis.dump.v1", "beepmis.trace.v2", "beepmis.recovery.v1" and
  /// "beepmis.sweep.v1",
  /// each only when its validator passes; anything else fails with `error`
  /// set to "<source>: <reason>". `source` is the label used in the report
  /// (typically the file name).
  bool add_document(const JsonValue& doc, const std::string& source,
                    std::string* error);

  /// Ingests a JSONL round-event stream (one JsonlSink line per round).
  /// Incomplete trailing lines are ignored; returns the number of complete
  /// events parsed. A line that parses but fails event_validate rejects the
  /// whole stream: nothing is ingested, 0 is returned and `error` (if
  /// non-null) is set to "<source>: line <k>: <reason>".
  std::size_t add_events(std::string_view jsonl, const std::string& source,
                         std::string* error = nullptr);

  /// Installs the baseline bench capture ("beepmis.run.v1") for regression
  /// comparison. The baseline is labeled with its build provenance (git SHA
  /// + dirty flag) in the rendered report.
  bool set_baseline(const JsonValue& doc, const std::string& source,
                    std::string* error);

  /// Benchmark times that grew by more than `tolerance` (fractional; 0.10
  /// = +10%) relative to the baseline, worst first: every benchmark's
  /// cpu_ns, and also the real_ns of UseRealTime benchmarks (names ending
  /// in "/real_time"), whose cpu_ns counts only the main thread and would
  /// miss a wall-time regression of their workers. Empty when no baseline
  /// is set.
  std::vector<BenchDelta> regressions(double tolerance) const;

  /// Ingested "beepmis.run.v1" sources whose build manifest says
  /// git_dirty — their numbers may not correspond to any commit.
  const std::vector<std::string>& dirty_sources() const noexcept {
    return dirty_sources_;
  }
  /// True when the installed baseline was captured from a dirty tree.
  bool baseline_dirty() const noexcept { return baseline_dirty_; }

  /// Ingested "beepmis.trace.v2" sources whose ring overflowed
  /// (dropped_total > 0), with the drop count — their span quantiles are
  /// biased toward the end of the run, so the report warns about them the
  /// same way it warns about dirty builds.
  const std::vector<std::pair<std::string, std::uint64_t>>& dropped_sources()
      const noexcept {
    return dropped_sources_;
  }

  /// Both renderings walk the same section list: the markdown prints each
  /// titled section as a table, and the "beepmis.report.v1" document writes
  /// each as an array of row objects.
  void write_markdown(std::ostream& os, double tolerance) const;
  void write_json(std::ostream& os, double tolerance) const;

 private:
  struct StabAccum {
    std::uint64_t count = 0;
    double weighted_mean = 0.0;  // sum of count*mean contributions
    double weighted_p50 = 0.0;
    double weighted_p95 = 0.0;
    double weighted_p99 = 0.0;
    double min = 0.0;
    double max = 0.0;
  };
  using StabKey = std::tuple<std::string, std::string, std::uint64_t>;
  using SpanKey =
      std::tuple<std::string, std::string, std::uint64_t, std::string>;
  using PhaseKey =
      std::tuple<std::string, std::string, std::uint64_t, std::uint64_t>;

  /// Per-cell shard digests: one duration digest per kernel phase plus the
  /// imbalance/barrier sample digests.
  struct ShardAccum {
    std::array<Digest, kShardPhaseCount> phase_ns;
    Digest imbalance;
    Digest barrier_ms;
  };

  /// A sum and its weight — a growth-curve point — so repeated documents
  /// merge instead of colliding.
  struct WeightedSum {
    double sum = 0.0;
    std::uint64_t count = 0;
  };
  /// Per-(algorithm, family) growth curves: n -> point.
  using Curves = std::map<std::pair<std::string, std::string>,
                          std::map<std::uint64_t, WeightedSum>>;

  /// Count-weighted recovery aggregation (mirrors StabAccum: outcome
  /// counters add, quantiles merge weighted by epoch count).
  struct RecoveryAccum {
    std::uint64_t epochs = 0;
    std::uint64_t masked = 0;
    std::uint64_t recovered = 0;
    std::uint64_t stalls = 0;
    std::uint64_t safety_violations = 0;
    std::uint64_t invariant_violations = 0;
    double weighted_mean = 0.0;
    double weighted_p50 = 0.0;
    double weighted_p95 = 0.0;
    double max = 0.0;
  };

  void merge_summary(const StabKey& key, std::uint64_t count, double mean,
                     double p50, double p95, double p99, double lo,
                     double hi);

  /// Every report section, in report.v1 order, built from the
  /// accumulators below.
  std::vector<ReportSection> sections() const;
  /// All gated time pairs (not just regressions), sorted by name, cpu_ns
  /// before real_ns.
  std::vector<BenchDelta> bench_deltas() const;

  std::map<StabKey, StabAccum> stab_;
  Curves sweep_;  // sweep.v1 p50 curves, weighted by runs
  std::map<StabKey, RecoveryAccum> recovery_;
  std::map<SpanKey, Digest> spans_;  // span durations from ingested traces
  std::map<PhaseKey, ShardAccum> shard_;  // shard.* spans + counters
  std::map<std::string, double> current_cpu_ns_;   // gauge prefix -> cpu_ns
  std::map<std::string, double> baseline_cpu_ns_;
  std::map<std::string, double> current_real_ns_;  // "/real_time" benchmarks
  std::map<std::string, double> baseline_real_ns_;
  /// (source, kind, round) of every anomaly in the ingested dumps.
  std::vector<std::tuple<std::string, std::string, std::uint64_t>>
      dump_anomalies_;
  std::vector<std::string> sources_;
  std::vector<std::string> dirty_sources_;
  std::vector<std::pair<std::string, std::uint64_t>> dropped_sources_;
  std::string baseline_label_;
  bool have_baseline_ = false;
  bool baseline_dirty_ = false;
};

/// Checks the fields of a "beepmis.run.v1" document that the report reads:
/// graph.n and the count of every "*.rounds_to_stabilize" digest are
/// integers in [0, 2^53], the quantiles of such a digest with a nonzero
/// count are finite numbers, and so is every "*.cpu_ns" and "*.real_ns"
/// gauge. Absent members pass. Returns false with `error`
/// set on the first bad field.
bool run_validate(const JsonValue& doc, std::string* error);

/// The same check for a "beepmis.sweep.v1" summary (beepmis_cli
/// --sweep-out): "points" is an array whose n and runs are integers in
/// [0, 2^53], and the mean, min, max, p50, p95 and p99 of a point with
/// runs > 0 are finite numbers.
bool sweep_validate(const JsonValue& doc, std::string* error);

/// Reads a file and ingests it with auto-detection: a document whose body
/// parses as a single JSON object with a known "schema" goes through
/// add_document; anything else is treated as a JSONL event stream. Returns
/// false (with `error`) on unreadable files or unrecognized documents.
bool report_ingest_file(ReportBuilder& builder, const std::string& path,
                        std::string* error);

}  // namespace beepmis::obs
