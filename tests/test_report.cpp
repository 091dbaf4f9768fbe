#include "src/obs/report.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "src/obs/json_parse.hpp"

namespace beepmis {
namespace {

/// A minimal bench capture: two engine pairs + a sink-overhead pair.
const char* kBenchCapture = R"({
  "schema": "beepmis.run.v1", "tool": "bench_e11_micro",
  "timestamp": "2026-08-07T00:00:00Z", "seed": 0,
  "graph": {"name": "er", "family": "er-avg8", "n": 0, "m": 0,
            "max_degree": 0},
  "algorithm": {"name": "micro-benchmarks", "init": "", "c1": 0},
  "build": {"compiler": "gcc", "build_type": "Release", "assertions": false,
            "git_sha": "abc123def456", "git_dirty": false},
  "timing": {"wall_ms": 1.0}, "extra": {},
  "metrics": {"counters": {}, "histograms": {}, "timers": {}, "digests": {},
    "gauges": {
      "BM_EngineRun/v1_fast/1024.cpu_ns": 1000.0,
      "BM_EngineRun/v1_reference/1024.cpu_ns": 2000.0,
      "BM_EngineRun/v3_fast/1024.cpu_ns": 400.0,
      "BM_EngineRun/v3_reference/1024.cpu_ns": 800.0,
      "BM_FastEngineRun_NoSink/10240.cpu_ns": 10000.0,
      "BM_FastEngineRun_Digest/10240.cpu_ns": 10100.0,
      "BM_FastEngineRun_JsonlSink/10240.cpu_ns": 10500.0,
      "BM_FastEngineKernel/scalar/10240.cpu_ns": 16000.0,
      "BM_FastEngineKernel/bit/10240.cpu_ns": 12800.0,
      "BM_FastEngineKernel/frontier/10240.cpu_ns": 3200.0
    }}
})";

/// A CLI-style manifest with a stabilization digest.
const char* kRunManifest = R"({
  "schema": "beepmis.run.v1", "tool": "beepmis_cli",
  "timestamp": "2026-08-07T00:00:00Z", "seed": 7,
  "graph": {"name": "er_n512", "family": "er-avg8", "n": 512, "m": 2048,
            "max_degree": 17},
  "algorithm": {"name": "V1-global-delta", "init": "uniform-random",
                "c1": 0},
  "build": {"compiler": "gcc", "build_type": "Release", "assertions": false},
  "timing": {"wall_ms": 5.0}, "extra": {},
  "metrics": {"counters": {}, "gauges": {}, "histograms": {}, "timers": {},
    "digests": {
      "runner.rounds_to_stabilize": {"count": 20, "min": 30, "max": 90,
        "mean": 50.0, "p50": 48.0, "p90": 70.0, "p95": 80.0, "p99": 88.0}
    }}
})";

obs::JsonValue parse(const char* text) {
  obs::JsonValue v;
  std::string error;
  EXPECT_TRUE(obs::json_parse(text, &v, &error)) << error;
  return v;
}

TEST(Report, SelfComparisonHasNoRegressions) {
  obs::ReportBuilder b;
  std::string error;
  ASSERT_TRUE(b.add_document(parse(kBenchCapture), "bench.json", &error))
      << error;
  ASSERT_TRUE(b.set_baseline(parse(kBenchCapture), "bench.json", &error))
      << error;
  EXPECT_TRUE(b.regressions(0.10).empty());
  EXPECT_EQ(b.bench_deltas().size(), 10u);
}

TEST(Report, SyntheticRegressionIsFlagged) {
  // Regress one benchmark by 25% in the "current" capture.
  std::string regressed = kBenchCapture;
  const std::string needle = "\"BM_EngineRun/v1_fast/1024.cpu_ns\": 1000.0";
  const auto pos = regressed.find(needle);
  ASSERT_NE(pos, std::string::npos);
  regressed.replace(pos, needle.size(),
                    "\"BM_EngineRun/v1_fast/1024.cpu_ns\": 1250.0");

  obs::ReportBuilder b;
  std::string error;
  ASSERT_TRUE(
      b.add_document(parse(regressed.c_str()), "current.json", &error));
  ASSERT_TRUE(b.set_baseline(parse(kBenchCapture), "old.json", &error));

  const auto regs = b.regressions(0.10);
  ASSERT_EQ(regs.size(), 1u);
  EXPECT_EQ(regs[0].name, "BM_EngineRun/v1_fast/1024");
  EXPECT_NEAR(regs[0].ratio, 1.25, 1e-9);
  // A generous tolerance waves the same delta through.
  EXPECT_TRUE(b.regressions(0.30).empty());
}

TEST(Report, RealTimeBenchmarksAreGatedOnWallTime) {
  // A UseRealTime benchmark whose workers slowed down: cpu_ns (the main
  // thread only) stays flat while real_ns regresses by 30%. Benchmarks
  // without the "/real_time" suffix stay gated on cpu_ns alone.
  const auto capture = [](double real_ns) {
    return std::string(R"({"schema": "beepmis.run.v1",
      "build": {"git_sha": "abc", "git_dirty": false},
      "metrics": {"gauges": {
        "BM_SweepParallel/4/real_time.cpu_ns": 1000.0,
        "BM_SweepParallel/4/real_time.real_ns": )") +
           std::to_string(real_ns) + R"(,
        "BM_RngBernoulliPow2/3.cpu_ns": 50.0,
        "BM_RngBernoulliPow2/3.real_ns": )" +
           std::to_string(real_ns) + "}}}";
  };
  obs::ReportBuilder b;
  std::string error;
  ASSERT_TRUE(b.add_document(parse(capture(13000.0).c_str()), "now.json",
                             &error))
      << error;
  ASSERT_TRUE(b.set_baseline(parse(capture(10000.0).c_str()), "old.json",
                             &error))
      << error;
  EXPECT_EQ(b.bench_deltas().size(), 3u);
  const auto regs = b.regressions(0.10);
  ASSERT_EQ(regs.size(), 1u);
  EXPECT_EQ(regs[0].name, "BM_SweepParallel/4/real_time");
  EXPECT_EQ(regs[0].metric, "real_ns");
  EXPECT_NEAR(regs[0].ratio, 1.3, 1e-9);
  EXPECT_TRUE(b.regressions(0.35).empty());

  std::ostringstream js;
  b.write_json(js, 0.10);
  obs::JsonValue doc;
  ASSERT_TRUE(obs::json_parse(js.str(), &doc, &error)) << error;
  const obs::JsonValue& reg = doc.get("baseline").get("regressions");
  ASSERT_EQ(reg.array.size(), 1u);
  EXPECT_EQ(reg.array[0].get("metric").as_string(), "real_ns");
  EXPECT_EQ(reg.array[0].get("current_real_ns").as_number(), 13000.0);
}

TEST(Report, SpeedupAndOverheadTablesFromGauges) {
  obs::ReportBuilder b;
  std::string error;
  ASSERT_TRUE(b.add_document(parse(kBenchCapture), "bench.json", &error));

  const auto speed = b.speedups();
  ASSERT_EQ(speed.size(), 2u);  // v1 and v3 pairs
  for (const auto& s : speed) {
    EXPECT_EQ(s.n, 1024u);
    EXPECT_NEAR(s.speedup, 2.0, 1e-9);
  }

  const auto kernels = b.kernel_speedups();
  ASSERT_EQ(kernels.size(), 2u);  // bit and frontier vs scalar
  EXPECT_EQ(kernels[0].kernel, "bit");
  EXPECT_NEAR(kernels[0].speedup, 1.25, 1e-9);
  EXPECT_EQ(kernels[1].kernel, "frontier");
  EXPECT_NEAR(kernels[1].speedup, 5.0, 1e-9);
  for (const auto& k : kernels) EXPECT_EQ(k.n, 10240u);

  const auto over = b.overheads();
  ASSERT_EQ(over.size(), 2u);  // Digest and JsonlSink vs NoSink
  for (const auto& o : over) {
    if (o.tag == "Digest") {
      EXPECT_NEAR(o.overhead, 0.01, 1e-9);
    }
    if (o.tag == "JsonlSink") {
      EXPECT_NEAR(o.overhead, 0.05, 1e-9);
    }
  }
}

TEST(Report, StabilizationRowsAggregateDigestsByKey) {
  obs::ReportBuilder b;
  std::string error;
  ASSERT_TRUE(b.add_document(parse(kRunManifest), "a.json", &error));
  ASSERT_TRUE(b.add_document(parse(kRunManifest), "b.json", &error));

  const auto rows = b.stabilization_rows();
  ASSERT_EQ(rows.size(), 1u);  // same (algorithm, family, n) key merges
  EXPECT_EQ(rows[0].algorithm, "V1-global-delta");
  EXPECT_EQ(rows[0].family, "er-avg8");
  EXPECT_EQ(rows[0].n, 512u);
  EXPECT_EQ(rows[0].count, 40u);
  EXPECT_DOUBLE_EQ(rows[0].p95, 80.0);
  EXPECT_DOUBLE_EQ(rows[0].min, 30.0);
  EXPECT_DOUBLE_EQ(rows[0].max, 90.0);
  EXPECT_FALSE(rows[0].approximate);
}

TEST(Report, HistogramEnvelopeFallbackForPreDigestArtifacts) {
  const char* legacy = R"({
    "schema": "beepmis.run.v1", "tool": "beepmis_cli",
    "timestamp": "t", "seed": 1,
    "graph": {"name": "g", "family": "torus", "n": 64, "m": 128,
              "max_degree": 4},
    "algorithm": {"name": "V2-own-degree", "init": "all-zero", "c1": 0},
    "build": {}, "timing": {"wall_ms": 1.0}, "extra": {},
    "metrics": {"counters": {}, "gauges": {}, "timers": {},
      "histograms": {"runner.rounds_to_stabilize": {
        "count": 4, "sum": 100, "mean": 25.0,
        "buckets": [{"le": 16, "count": 1}, {"le": 32, "count": 3}]}}}
  })";
  obs::ReportBuilder b;
  std::string error;
  ASSERT_TRUE(b.add_document(parse(legacy), "legacy.json", &error)) << error;
  const auto rows = b.stabilization_rows();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0].approximate);
  EXPECT_EQ(rows[0].count, 4u);
  EXPECT_DOUBLE_EQ(rows[0].p50, 32.0);  // rank 2 lands in the (16,32] bucket
}

TEST(Report, EventStreamsYieldOneStabilizationSample) {
  obs::ReportBuilder b;
  const std::string jsonl =
      "{\"round\":1,\"active\":5}\n"
      "{\"round\":2,\"active\":2}\n"
      "{\"round\":3,\"active\":0}\n"
      "{\"round\":4,\"active\":0}\n"
      "{\"round\":5,\"active\"";  // incomplete trailing line: ignored
  EXPECT_EQ(b.add_events(jsonl, "run.jsonl"), 4u);
  const auto rows = b.stabilization_rows();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rows[0].p50, 3.0);  // stabilized at round 3
}

TEST(Report, SweepDocumentFeedsStabilizationAndGrowthFits) {
  // Five sizes along an exact 10·ln(n) + 5 curve: the log n model must win
  // with R² ≈ 1, and every point must land in the stabilization table.
  const char* sweep = R"({
    "schema": "beepmis.sweep.v1", "family": "er-avg8",
    "algorithm": "V1-global-delta", "init": "uniform-random",
    "base_seed": 7, "seeds_per_size": 4, "kernel": "sharded",
    "points": [
      {"n": 256, "runs": 4, "mean": 60.45, "min": 60, "max": 61,
       "p50": 60.45, "p90": 61, "p95": 61, "p99": 61,
       "failures": 0, "invalid": 0},
      {"n": 1024, "runs": 4, "mean": 74.31, "min": 74, "max": 75,
       "p50": 74.31, "p90": 75, "p95": 75, "p99": 75,
       "failures": 0, "invalid": 0},
      {"n": 4096, "runs": 4, "mean": 88.18, "min": 88, "max": 89,
       "p50": 88.18, "p90": 89, "p95": 89, "p99": 89,
       "failures": 0, "invalid": 0},
      {"n": 16384, "runs": 4, "mean": 102.04, "min": 101, "max": 103,
       "p50": 102.04, "p90": 103, "p95": 103, "p99": 103,
       "failures": 0, "invalid": 0},
      {"n": 65536, "runs": 4, "mean": 115.90, "min": 115, "max": 117,
       "p50": 115.90, "p90": 117, "p95": 117, "p99": 117,
       "failures": 0, "invalid": 0}
    ]
  })";
  obs::ReportBuilder b;
  std::string error;
  ASSERT_TRUE(b.add_document(parse(sweep), "sweep.json", &error)) << error;

  const auto stab = b.stabilization_rows();
  ASSERT_EQ(stab.size(), 5u);
  EXPECT_EQ(stab[0].algorithm, "V1-global-delta");
  EXPECT_EQ(stab[0].family, "er-avg8");
  EXPECT_EQ(stab[0].n, 256u);
  EXPECT_EQ(stab[0].count, 4u);
  EXPECT_NEAR(stab[0].p50, 60.45, 1e-9);
  EXPECT_FALSE(stab[0].approximate);

  const auto fits = b.growth_fit_rows();
  ASSERT_EQ(fits.size(), 4u);  // all models, ranked best-R² first
  EXPECT_TRUE(fits[0].best);
  EXPECT_EQ(fits[0].model, "log n");
  EXPECT_GT(fits[0].r2, 0.999);
  EXPECT_NEAR(fits[0].slope, 10.0, 0.1);
  EXPECT_NEAR(fits[0].intercept, 5.0, 1.0);
  EXPECT_EQ(fits[0].sizes, 5u);
  for (std::size_t i = 1; i < fits.size(); ++i) {
    EXPECT_FALSE(fits[i].best);
    EXPECT_LE(fits[i].r2, fits[i - 1].r2);
  }

  // The fit also lands in both renderings.
  std::ostringstream md, js;
  b.write_markdown(md, 0.10);
  EXPECT_NE(md.str().find("Growth-model fits"), std::string::npos);
  b.write_json(js, 0.10);
  obs::JsonValue doc;
  ASSERT_TRUE(obs::json_parse(js.str(), &doc));
  ASSERT_EQ(doc.get("growth_fits").array.size(), 4u);
  EXPECT_EQ(doc.get("growth_fits").array[0].get("model").as_string(),
            "log n");
}

TEST(Report, GrowthFitsNeedThreeDistinctSizes) {
  const char* sweep = R"({
    "schema": "beepmis.sweep.v1", "family": "torus",
    "algorithm": "V2-own-degree", "points": [
      {"n": 64, "runs": 2, "mean": 40, "min": 39, "max": 41,
       "p50": 40, "p90": 41, "p95": 41, "p99": 41},
      {"n": 256, "runs": 2, "mean": 50, "min": 49, "max": 51,
       "p50": 50, "p90": 51, "p95": 51, "p99": 51}
    ]
  })";
  obs::ReportBuilder b;
  std::string error;
  ASSERT_TRUE(b.add_document(parse(sweep), "sweep.json", &error)) << error;
  EXPECT_EQ(b.stabilization_rows().size(), 2u);
  EXPECT_TRUE(b.growth_fit_rows().empty());
}

TEST(Report, UnknownSchemaIsRejected) {
  obs::ReportBuilder b;
  std::string error;
  EXPECT_FALSE(
      b.add_document(parse(R"({"schema": "bogus.v9"})"), "x.json", &error));
  EXPECT_NE(error.find("bogus.v9"), std::string::npos);
}

TEST(Report, DumpDocumentContributesAnomalies) {
  const char* dump = R"({
    "schema": "beepmis.dump.v1",
    "context": {}, "config": {},
    "anomalies": [{"kind": "stall", "round": 123}],
    "ring": [], "snapshots": [], "final_levels": []
  })";
  obs::ReportBuilder b;
  std::string error;
  ASSERT_TRUE(b.add_document(parse(dump), "dump.json", &error)) << error;
  ASSERT_EQ(b.dump_anomalies().size(), 1u);
  EXPECT_EQ(b.dump_anomalies()[0].kind, "stall");
  EXPECT_EQ(b.dump_anomalies()[0].round, 123u);
}

TEST(Report, TraceDocumentContributesSpanQuantiles) {
  // Context values are strings, the tracer's context block being a
  // string->string map — the n coordinate must still parse.
  const char* trace = R"({
    "schema": "beepmis.trace.v1", "capacity_per_thread": 64,
    "counter_every": 0, "dropped_total": 0,
    "context": {"algorithm": "V1-global-delta", "family": "torus",
                "n": "256"},
    "threads": [{"tid": 0, "label": "main", "recorded": 3, "dropped": 0,
      "events": [
        {"ph": "X", "name": "engine.round", "ts_ns": 0, "dur_ns": 100},
        {"ph": "X", "name": "engine.round", "ts_ns": 200, "dur_ns": 300},
        {"ph": "C", "name": "engine.active", "ts_ns": 50, "value": 9}
      ]}]
  })";
  obs::ReportBuilder b;
  std::string error;
  ASSERT_TRUE(b.add_document(parse(trace), "trace.json", &error)) << error;
  const auto rows = b.span_rows();
  // Counter events don't feed span digests.
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].algorithm, "V1-global-delta");
  EXPECT_EQ(rows[0].family, "torus");
  EXPECT_EQ(rows[0].n, 256u);
  EXPECT_EQ(rows[0].name, "engine.round");
  EXPECT_EQ(rows[0].count, 2u);
  EXPECT_DOUBLE_EQ(rows[0].mean_ns, 200.0);
  EXPECT_DOUBLE_EQ(rows[0].max_ns, 300.0);

  std::ostringstream js;
  b.write_json(js, 0.10);
  obs::JsonValue doc;
  ASSERT_TRUE(obs::json_parse(js.str(), &doc, &error)) << error;
  ASSERT_EQ(doc.get("trace_spans").array.size(), 1u);
  EXPECT_EQ(doc.get("trace_spans").array[0].get("span").as_string(""),
            "engine.round");
}

TEST(Report, JsonOutputRoundTripsAndMarkdownMentionsBaseline) {
  obs::ReportBuilder b;
  std::string error;
  ASSERT_TRUE(b.add_document(parse(kBenchCapture), "bench.json", &error));
  ASSERT_TRUE(b.add_document(parse(kRunManifest), "run.json", &error));
  ASSERT_TRUE(b.set_baseline(parse(kBenchCapture), "bench.json", &error));

  std::ostringstream js;
  b.write_json(js, 0.10);
  obs::JsonValue doc;
  ASSERT_TRUE(obs::json_parse(js.str(), &doc, &error)) << error;
  EXPECT_EQ(doc.get("schema").as_string(), "beepmis.report.v1");
  EXPECT_TRUE(doc.get("baseline").get("present").boolean);
  EXPECT_EQ(doc.get("stabilization").array.size(), 1u);
  EXPECT_EQ(doc.get("speedups").array.size(), 2u);
  EXPECT_EQ(doc.get("kernel_speedups").array.size(), 2u);

  std::ostringstream md;
  b.write_markdown(md, 0.10);
  // Baseline label carries the git provenance from the build block.
  EXPECT_NE(md.str().find("abc123def456"), std::string::npos);
  EXPECT_NE(md.str().find("No regressions"), std::string::npos);
}

TEST(Report, IngestFileAutoDetectsKind) {
  const std::string dir = testing::TempDir();
  const std::string doc_path = dir + "beepmis_report_doc.json";
  const std::string events_path = dir + "beepmis_report_events.jsonl";
  const std::string garbage_path = dir + "beepmis_report_garbage.txt";
  {
    std::ofstream(doc_path) << kRunManifest;
    std::ofstream(events_path)
        << "{\"round\":1,\"active\":1}\n{\"round\":2,\"active\":0}\n";
    std::ofstream(garbage_path) << "not json at all\n";
  }
  obs::ReportBuilder b;
  std::string error;
  EXPECT_TRUE(obs::report_ingest_file(b, doc_path, &error)) << error;
  EXPECT_TRUE(obs::report_ingest_file(b, events_path, &error)) << error;
  EXPECT_FALSE(obs::report_ingest_file(b, garbage_path, &error));
  EXPECT_FALSE(obs::report_ingest_file(b, dir + "does_not_exist", &error));
  EXPECT_EQ(b.stabilization_rows().size(), 2u);
}

}  // namespace
}  // namespace beepmis
