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
#include "src/obs/timeseries.hpp"

namespace beepmis::obs {

/// Aggregates run artifacts — "beepmis.run.v1" manifests (including bench
/// captures such as BENCH_micro.json), "beepmis.dump.v1" flight-recorder
/// dumps, "beepmis.trace.v1" span traces, "beepmis.profile.v1" hardware
/// profiles, "beepmis.recovery.v1" recovery artifacts, "beepmis.sweep.v1"
/// scaling-sweep summaries, and raw JSONL
/// round-event streams — into one report:
/// stabilization percentiles per (algorithm, family, n),
/// growth-model fits over sweep curves (the Thm 2.1 / Thm 2.2 shape check),
/// per-fault recovery-epoch outcomes and quantiles,
/// fast-vs-reference speedups, sink and digest overheads, span-duration
/// quantiles, hardware-efficiency metrics (IPC, instructions/round,
/// cache-misses/edge, branch-miss rate), and an optional baseline
/// comparison that flags benchmark regressions — cpu_ns, the real_ns of
/// real-time benchmarks, and instruction counts — for CI gating. Renders markdown for humans and a
/// "beepmis.report.v1" JSON document for machines.
class ReportBuilder {
 public:
  /// One (algorithm, family, n) stabilization cell. Sourced from
  /// `*.rounds_to_stabilize` digests in manifests (preferred), from the
  /// matching pow2 histogram's quantile envelope when no digest is present
  /// (`approximate` is then true), or from raw event streams (one sample per
  /// stream: the round at which `active` first reached 0).
  struct StabRow {
    std::string algorithm;
    std::string family;
    std::uint64_t n = 0;
    std::uint64_t count = 0;
    double mean = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double min = 0.0;
    double max = 0.0;
    bool approximate = false;  ///< histogram envelope, not digest/exact
  };

  /// One benchmark gauge compared against the baseline capture.
  struct BenchDelta {
    std::string name;    ///< gauge prefix, e.g. "BM_EngineRun/v1_fast/1024"
    std::string metric;  ///< "cpu_ns", "real_ns" or "instructions"
    double baseline = 0.0;
    double current = 0.0;
    double ratio = 0.0;  ///< current / baseline (> 1 means slower)
  };

  /// Fast-vs-reference engine pairing derived from
  /// "BM_EngineRun/<variant>_{fast,reference}/<n>" gauges.
  struct Speedup {
    std::string variant;
    std::uint64_t n = 0;
    double fast_cpu_ns = 0.0;
    double reference_cpu_ns = 0.0;
    double speedup = 0.0;       ///< reference / fast
  };

  /// Round-kernel pairing derived from "BM_FastEngineKernel/<kernel>/<n>"
  /// gauges: each kernel measured against the scalar oracle at the same n.
  struct KernelSpeedup {
    std::string kernel;         ///< "sharded", ...
    std::uint64_t n = 0;
    double cpu_ns = 0.0;
    double scalar_cpu_ns = 0.0;
    double speedup = 0.0;       ///< scalar / kernel
  };

  /// Instrumented-vs-bare engine run ("BM_FastEngineRun_<tag>/<n>" vs
  /// "BM_FastEngineRun_NoSink/<n>").
  struct Overhead {
    std::string tag;            ///< "JsonlSink", "Digest", ...
    std::uint64_t n = 0;
    double overhead = 0.0;      ///< instrumented/bare - 1 (0.02 = +2%)
  };

  /// Anomaly recorded by an ingested flight-recorder dump.
  struct DumpAnomaly {
    std::string source;
    std::string kind;
    std::uint64_t round = 0;
  };

  /// Per-(algorithm, family, n) recovery cell, aggregated over every
  /// ingested "beepmis.recovery.v1" document: outcome counts plus
  /// count-weighted recovery-round quantiles (the same merging the
  /// stabilization table uses).
  struct RecoveryRow {
    std::string algorithm;
    std::string family;
    std::uint64_t n = 0;
    std::uint64_t epochs = 0;
    std::uint64_t masked = 0;
    std::uint64_t recovered = 0;
    std::uint64_t stalls = 0;
    std::uint64_t safety_violations = 0;
    std::uint64_t invariant_violations = 0;
    double mean = 0.0;   ///< recovery rounds over closed epochs
    double p50 = 0.0;
    double p95 = 0.0;
    double max = 0.0;
  };

  /// Hardware-efficiency metrics for one (algorithm, family, n) cell,
  /// derived from ingested "beepmis.profile.v1" documents. Normalized
  /// columns come from the "engine.round" span's per-sample means; the
  /// ratio columns divide counter sums aggregated over every span. Any
  /// metric whose counters the host denied (or whose denominator is
  /// missing, e.g. per-edge without an "m" context entry) is -1 and
  /// renders as "-".
  struct ProfileRow {
    std::string algorithm;
    std::string family;
    std::uint64_t n = 0;
    std::uint64_t samples = 0;   ///< profiled engine.round samples
    double ipc = -1.0;           ///< instructions / cycles
    double instr_per_round = -1.0;
    double cache_miss_per_edge = -1.0;
    double branch_miss_rate = -1.0;  ///< branch_misses / branches
    double task_clock_per_round_ns = -1.0;
  };

  /// One growth-model fit over a sweep's (n, p50) stabilization curve for
  /// one (algorithm, family) pair, sourced from "beepmis.sweep.v1" inputs
  /// with >= 3 distinct sizes. `best` marks the highest-R² model: Thm 2.1
  /// predicts log n from clean starts, Thm 2.2 log n · log log n from
  /// adversarial ones — the fit table is the empirical shape check.
  struct GrowthFitRow {
    std::string algorithm;
    std::string family;
    std::string model;      ///< support::growth_model_name
    double slope = 0.0;
    double intercept = 0.0;
    double r2 = 0.0;
    double rmse = 0.0;
    std::uint64_t sizes = 0;  ///< distinct n fitted
    bool best = false;
  };

  /// Sharded-kernel phase breakdown for one (algorithm, family, n, shards)
  /// cell: mean wall ns per occurrence of each "shard.<phase>" span,
  /// aggregated over every ingested trace. The shard count comes from the
  /// trace context's "shards" entry (0 when absent — pre-telemetry traces).
  struct PhaseRow {
    std::string algorithm;
    std::string family;
    std::uint64_t n = 0;
    std::uint64_t shards = 0;
    std::uint64_t rounds = 0;  ///< decide-span count (one per round)
    std::array<double, kTimeSeriesPhases> mean_ns{};
  };

  /// Load-imbalance digest for one (algorithm, family, n, shards) cell, fed
  /// by "shard.imbalance"/"shard.barrier_wait_ms" counter samples from
  /// traces and by the per-sample timing blocks of ingested
  /// beepmis.timeseries.v1 documents. Imbalance 1.0 = perfectly balanced
  /// shards; barrier_ms is idle-at-barrier wall ms per round.
  struct ImbalanceRow {
    std::string algorithm;
    std::string family;
    std::uint64_t n = 0;
    std::uint64_t shards = 0;
    std::uint64_t samples = 0;
    double mean = 0.0;
    double p95 = 0.0;
    double max = 0.0;
    double barrier_ms_mean = 0.0;
  };

  /// Span-duration quantiles for one (algorithm, family, n, span name)
  /// cell, aggregated over every "X" event in the ingested traces (the
  /// trace document's context block supplies the first three coordinates).
  struct SpanRow {
    std::string algorithm;
    std::string family;
    std::uint64_t n = 0;
    std::string name;        ///< span name, e.g. "engine.round"
    std::uint64_t count = 0;
    double mean_ns = 0.0;
    double p50_ns = 0.0;
    double p95_ns = 0.0;
    double max_ns = 0.0;
  };

  /// Ingests one parsed artifact. Accepts "beepmis.run.v1",
  /// "beepmis.dump.v1", "beepmis.trace.v1", "beepmis.profile.v1",
  /// "beepmis.recovery.v1" and "beepmis.sweep.v1"; anything else fails with
  /// `error` set. `source`
  /// is the label used in the report (typically the file name).
  bool add_document(const JsonValue& doc, const std::string& source,
                    std::string* error);

  /// Ingests a JSONL round-event stream (one JsonlSink line per round).
  /// Incomplete trailing lines are ignored; returns the number of complete
  /// events parsed.
  std::size_t add_events(std::string_view jsonl, const std::string& source);

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

  std::vector<StabRow> stabilization_rows() const;
  std::vector<GrowthFitRow> growth_fit_rows() const;
  /// Wall-ms-per-round growth fits from ingested beepmis.timeseries.v1
  /// documents: per (algorithm, family) curves of mean round_ms over n,
  /// ranked by the same growth models as the stabilization fits (needs >= 3
  /// distinct sizes). The empirical work-per-round shape check next to the
  /// Thm 2.1/2.2 round-count fits.
  std::vector<GrowthFitRow> round_ms_fit_rows() const;
  std::vector<PhaseRow> phase_rows() const;
  std::vector<ImbalanceRow> imbalance_rows() const;
  std::vector<RecoveryRow> recovery_rows() const;
  std::vector<Speedup> speedups() const;
  std::vector<KernelSpeedup> kernel_speedups() const;
  std::vector<Overhead> overheads() const;
  std::vector<SpanRow> span_rows() const;
  std::vector<ProfileRow> profile_rows() const;
  const std::vector<DumpAnomaly>& dump_anomalies() const noexcept {
    return dump_anomalies_;
  }
  /// All gated time pairs (not just regressions), sorted by name, cpu_ns
  /// before real_ns.
  std::vector<BenchDelta> bench_deltas() const;

  /// Instruction-count comparison against the baseline, from the
  /// ".instructions" gauges the bench capture records when the host grants
  /// hardware counters, as "instructions" BenchDeltas; empty when either
  /// side lacks the gauges.
  /// Instruction counts are far less noisy than cpu_ns, so they catch real
  /// code-path growth that timing jitter hides.
  std::vector<BenchDelta> instruction_deltas() const;
  std::vector<BenchDelta> instruction_regressions(double tolerance) const;

  /// Ingested "beepmis.run.v1" sources whose build manifest says
  /// git_dirty — their numbers may not correspond to any commit.
  const std::vector<std::string>& dirty_sources() const noexcept {
    return dirty_sources_;
  }
  /// True when the installed baseline was captured from a dirty tree.
  bool baseline_dirty() const noexcept { return baseline_dirty_; }

  /// Ingested "beepmis.trace.v1" sources whose ring overflowed
  /// (dropped_total > 0), with the drop count — their span quantiles are
  /// biased toward the end of the run, so the report warns about them the
  /// same way it warns about dirty builds.
  const std::vector<std::pair<std::string, std::uint64_t>>& dropped_sources()
      const noexcept {
    return dropped_sources_;
  }

  void write_markdown(std::ostream& os, double tolerance) const;
  /// Writes the "beepmis.report.v1" document.
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
    bool approximate = false;
    bool any = false;
  };
  using StabKey = std::tuple<std::string, std::string, std::uint64_t>;
  using SpanKey =
      std::tuple<std::string, std::string, std::uint64_t, std::string>;
  using PhaseKey =
      std::tuple<std::string, std::string, std::uint64_t, std::uint64_t>;

  /// Per-cell shard digests: one duration digest per kernel phase plus the
  /// imbalance/barrier sample digests.
  struct ShardAccum {
    std::array<Digest, kTimeSeriesPhases> phase_ns;
    Digest imbalance;
    Digest barrier_ms;
  };

  /// Per-(algorithm, family) wall-ms-per-round curve: n -> summed sample
  /// means, so repeated documents over the same size merge.
  struct RoundMsSample {
    double sum = 0.0;
    std::uint64_t count = 0;
  };

  struct CounterSum {
    double sum = 0.0;
    std::uint64_t count = 0;
  };
  /// Per-cell profile accumulation: span name -> counter name -> folded
  /// digest sum/count, plus the edge count from the profile context (for
  /// the per-edge column; the largest wins when documents disagree).
  struct ProfileAccum {
    std::map<std::string, std::map<std::string, CounterSum>> spans;
    std::uint64_t m = 0;
  };

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
    bool any = false;
  };

  /// Per-(algorithm, family) sweep curve: n -> run-weighted p50 sum, so
  /// repeated sweeps over the same size merge instead of colliding.
  struct SweepSample {
    double weighted_p50 = 0.0;
    std::uint64_t runs = 0;
  };

  void accumulate_stabilization(const JsonValue& doc);
  void merge_sample(const StabKey& key, double rounds);
  void merge_summary(const StabKey& key, std::uint64_t count, double mean,
                     double p50, double p95, double p99, double lo, double hi,
                     bool approximate);

  std::map<StabKey, StabAccum> stab_;
  std::map<std::pair<std::string, std::string>,
           std::map<std::uint64_t, SweepSample>>
      sweep_;
  std::map<StabKey, RecoveryAccum> recovery_;
  std::map<SpanKey, Digest> spans_;  // span durations from ingested traces
  std::map<PhaseKey, ShardAccum> shard_;  // shard.* spans + counters
  std::map<std::pair<std::string, std::string>,
           std::map<std::uint64_t, RoundMsSample>>
      round_ms_;  // timeseries wall-ms-per-round curves
  std::map<StabKey, ProfileAccum> profile_;
  std::map<std::string, double> current_cpu_ns_;   // gauge prefix -> cpu_ns
  std::map<std::string, double> baseline_cpu_ns_;
  std::map<std::string, double> current_real_ns_;  // "/real_time" benchmarks
  std::map<std::string, double> baseline_real_ns_;
  std::map<std::string, double> current_instr_;    // ".instructions" gauges
  std::map<std::string, double> baseline_instr_;
  std::vector<DumpAnomaly> dump_anomalies_;
  std::vector<std::string> sources_;
  std::vector<std::string> dirty_sources_;
  std::vector<std::pair<std::string, std::uint64_t>> dropped_sources_;
  std::string baseline_label_;
  bool have_baseline_ = false;
  bool baseline_dirty_ = false;
};

/// Reads a file and ingests it with auto-detection: a document whose body
/// parses as a single JSON object with a known "schema" goes through
/// add_document; anything else is treated as a JSONL event stream. Returns
/// false (with `error`) on unreadable files or unrecognized documents.
bool report_ingest_file(ReportBuilder& builder, const std::string& path,
                        std::string* error);

}  // namespace beepmis::obs
