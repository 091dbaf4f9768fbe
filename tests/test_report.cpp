#include "src/obs/report.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/json_parse.hpp"
#include "src/obs/trace.hpp"
#include "src/support/rng.hpp"

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
  "metrics": {"counters": {}, "timers": {}, "digests": {},
    "gauges": {
      "BM_EngineRun/v1_fast/1024.cpu_ns": 1000.0,
      "BM_EngineRun/v1_reference/1024.cpu_ns": 2000.0,
      "BM_EngineRun/v3_fast/1024.cpu_ns": 400.0,
      "BM_EngineRun/v3_reference/1024.cpu_ns": 800.0,
      "BM_FastEngineRun_NoSink/10240.cpu_ns": 10000.0,
      "BM_FastEngineRun_Digest/10240.cpu_ns": 10100.0,
      "BM_FastEngineRun_JsonlSink/10240.cpu_ns": 10500.0
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
  "metrics": {"counters": {}, "gauges": {}, "timers": {},
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

/// The builder's "beepmis.report.v1" document, read back the way CI and
/// scripts read it.
obs::JsonValue report_json(const obs::ReportBuilder& b) {
  std::ostringstream js;
  b.write_json(js, 0.10);
  return parse(js.str().c_str());
}

/// The rows of one report.v1 section.
std::vector<obs::JsonValue> rows(const obs::ReportBuilder& b,
                                 const char* section) {
  return report_json(b).get(section).array;
}

double num(const obs::JsonValue& row, const char* key) {
  return row.get(key).as_number(-1.0);
}

TEST(Report, SelfComparisonHasNoRegressions) {
  obs::ReportBuilder b;
  std::string error;
  ASSERT_TRUE(b.add_document(parse(kBenchCapture), "bench.json", &error))
      << error;
  ASSERT_TRUE(b.set_baseline(parse(kBenchCapture), "bench.json", &error))
      << error;
  EXPECT_TRUE(b.regressions(0.10).empty());
  EXPECT_EQ(num(report_json(b).get("baseline"), "compared"), 7.0);
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
  EXPECT_EQ(num(report_json(b).get("baseline"), "compared"), 3.0);
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

  const obs::JsonValue doc = report_json(b);
  const auto& speed = doc.get("speedups").array;
  ASSERT_EQ(speed.size(), 2u);  // v1 and v3 pairs
  for (const auto& s : speed) {
    EXPECT_EQ(num(s, "n"), 1024.0);
    EXPECT_NEAR(num(s, "speedup"), 2.0, 1e-9);
  }

  const auto& over = doc.get("overheads").array;
  ASSERT_EQ(over.size(), 2u);  // Digest and JsonlSink vs NoSink
  for (const auto& o : over) {
    if (o.get("observer").as_string() == "Digest") {
      EXPECT_NEAR(num(o, "overhead"), 0.01, 1e-9);
    }
    if (o.get("observer").as_string() == "JsonlSink") {
      EXPECT_NEAR(num(o, "overhead"), 0.05, 1e-9);
    }
  }
}

TEST(Report, StabilizationRowsAggregateDigestsByKey) {
  obs::ReportBuilder b;
  std::string error;
  ASSERT_TRUE(b.add_document(parse(kRunManifest), "a.json", &error));
  ASSERT_TRUE(b.add_document(parse(kRunManifest), "b.json", &error));

  const auto stab = rows(b, "stabilization");
  ASSERT_EQ(stab.size(), 1u);  // same (algorithm, family, n) key merges
  EXPECT_EQ(stab[0].get("algorithm").as_string(), "V1-global-delta");
  EXPECT_EQ(stab[0].get("family").as_string(), "er-avg8");
  EXPECT_EQ(num(stab[0], "n"), 512.0);
  EXPECT_EQ(num(stab[0], "count"), 40.0);
  EXPECT_DOUBLE_EQ(num(stab[0], "p95"), 80.0);
  EXPECT_DOUBLE_EQ(num(stab[0], "min"), 30.0);
  EXPECT_DOUBLE_EQ(num(stab[0], "max"), 90.0);
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
  const auto stab = rows(b, "stabilization");
  ASSERT_EQ(stab.size(), 1u);
  EXPECT_DOUBLE_EQ(num(stab[0], "p50"), 3.0);  // stabilized at round 3
}

/// A sweep.v1 summary over five sizes.
const char* kSweep = R"({
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

TEST(Report, SweepDocumentFeedsStabilizationAndGrowthFits) {
  // Five sizes along an exact 10·ln(n) + 5 curve: the log n model must win
  // with R² ≈ 1, and every point must land in the stabilization table.
  obs::ReportBuilder b;
  std::string error;
  ASSERT_TRUE(b.add_document(parse(kSweep), "sweep.json", &error)) << error;

  const obs::JsonValue doc = report_json(b);
  const auto& stab = doc.get("stabilization").array;
  ASSERT_EQ(stab.size(), 5u);
  EXPECT_EQ(stab[0].get("algorithm").as_string(), "V1-global-delta");
  EXPECT_EQ(stab[0].get("family").as_string(), "er-avg8");
  EXPECT_EQ(num(stab[0], "n"), 256.0);
  EXPECT_EQ(num(stab[0], "count"), 4.0);
  EXPECT_NEAR(num(stab[0], "p50"), 60.45, 1e-9);

  const auto& fits = doc.get("growth_fits").array;
  ASSERT_EQ(fits.size(), 4u);  // all models, ranked best-R² first
  EXPECT_TRUE(fits[0].get("best").boolean);
  EXPECT_EQ(fits[0].get("model").as_string(), "log n");
  EXPECT_GT(num(fits[0], "r2"), 0.999);
  EXPECT_NEAR(num(fits[0], "slope"), 10.0, 0.1);
  EXPECT_NEAR(num(fits[0], "intercept"), 5.0, 1.0);
  EXPECT_EQ(num(fits[0], "sizes"), 5.0);
  for (std::size_t i = 1; i < fits.size(); ++i) {
    EXPECT_FALSE(fits[i].get("best").boolean);
    EXPECT_LE(num(fits[i], "r2"), num(fits[i - 1], "r2"));
  }

  // The fit also lands in the markdown, its best model starred.
  std::ostringstream md;
  b.write_markdown(md, 0.10);
  EXPECT_NE(md.str().find("Growth-model fits"), std::string::npos);
  EXPECT_NE(md.str().find("| log n `*` |"), std::string::npos);
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
  EXPECT_EQ(rows(b, "stabilization").size(), 2u);
  EXPECT_TRUE(rows(b, "growth_fits").empty());
}

TEST(Report, UnknownSchemaIsRejected) {
  obs::ReportBuilder b;
  std::string error;
  EXPECT_FALSE(
      b.add_document(parse(R"({"schema": "bogus.v9"})"), "x.json", &error));
  EXPECT_NE(error.find("bogus.v9"), std::string::npos);
}

/// A flight-recorder dump that passes dump_validate.
const char* kDump = R"({
  "schema": "beepmis.dump.v1",
  "context": {"tool": "beepmis_cli", "seed": 7,
              "graph": {"n": 4, "m": 3, "max_degree": 2},
              "algorithm": "V1-global-delta", "init": "uniform-random",
              "engine": "fast-alg1", "extra": {}},
  "config": {"ring_capacity": 8, "n": 4, "expected_rounds": 40,
             "stall_multiple": 2, "lemma_window": 64, "check_lemma31": true,
             "storm_fraction": 0.95, "storm_window": 64},
  "anomalies": [{"kind": "stall", "round": 123}],
  "ring": [], "snapshots": [], "final_levels": []
})";

TEST(Report, DumpDocumentContributesAnomalies) {
  obs::ReportBuilder b;
  std::string error;
  ASSERT_TRUE(b.add_document(parse(kDump), "dump.json", &error)) << error;
  const auto anomalies = rows(b, "anomalies");
  ASSERT_EQ(anomalies.size(), 1u);
  EXPECT_EQ(anomalies[0].get("source").as_string(), "dump.json");
  EXPECT_EQ(anomalies[0].get("kind").as_string(), "stall");
  EXPECT_EQ(num(anomalies[0], "round"), 123.0);
}

/// A main-thread trace: two engine.round spans of 100 and 300 ns (µs on
/// disk) and one counter sample.
const char* kTrace = R"({"traceEvents": [
    {"ph": "M", "pid": 1, "name": "process_name",
     "args": {"name": "beepmis"}},
    {"ph": "M", "pid": 1, "tid": 0, "name": "thread_name",
     "args": {"name": "main", "recorded": 3, "dropped": 0}},
    {"ph": "X", "pid": 1, "tid": 0, "cat": "beepmis",
     "name": "engine.round", "ts": 0, "dur": 0.1},
    {"ph": "X", "pid": 1, "tid": 0, "cat": "beepmis",
     "name": "engine.round", "ts": 0.2, "dur": 0.3},
    {"ph": "C", "pid": 1, "tid": 0, "cat": "beepmis",
     "name": "engine.active", "ts": 0.05, "args": {"value": 9}}],
  "displayTimeUnit": "ms", "schema": "beepmis.trace.v2",
  "capacity_per_thread": 64, "counter_every": 0, "dropped_total": 0,
  "otherData": {"algorithm": "V1-global-delta", "family": "torus",
                "n": "256"}
})";

/// A 4-shard trace on two tracks: shard.<phase> spans and the per-round
/// imbalance and barrier-wait counters, with one worker ring overflowed.
const char* kShardTrace = R"({"traceEvents": [
    {"ph": "M", "pid": 1, "name": "process_name",
     "args": {"name": "beepmis"}},
    {"ph": "M", "pid": 1, "tid": 0, "name": "thread_name",
     "args": {"name": "main", "recorded": 4, "dropped": 0}},
    {"ph": "X", "pid": 1, "tid": 0, "cat": "beepmis",
     "name": "shard.decide", "ts": 1, "dur": 1.5, "args": {"arg": 1}},
    {"ph": "C", "pid": 1, "tid": 0, "cat": "beepmis",
     "name": "shard.imbalance", "ts": 3, "args": {"value": 1.25}},
    {"ph": "C", "pid": 1, "tid": 0, "cat": "beepmis",
     "name": "shard.barrier_wait_ms", "ts": 3, "args": {"value": 0.5}},
    {"ph": "i", "pid": 1, "tid": 0, "cat": "beepmis", "name": "mark",
     "ts": 3.5, "s": "t"},
    {"ph": "M", "pid": 1, "tid": 1, "name": "thread_name",
     "args": {"name": "shard-worker-0", "recorded": 6, "dropped": 2}},
    {"ph": "X", "pid": 1, "tid": 1, "cat": "beepmis",
     "name": "shard.decide", "ts": 4, "dur": 2.5},
    {"ph": "X", "pid": 1, "tid": 1, "cat": "beepmis",
     "name": "shard.apply", "ts": 7, "dur": 0.75},
    {"ph": "C", "pid": 1, "tid": 1, "cat": "beepmis",
     "name": "shard.imbalance", "ts": 8, "args": {"value": 1.75}},
    {"ph": "C", "pid": 1, "tid": 1, "cat": "beepmis",
     "name": "shard.barrier_wait_ms", "ts": 8, "args": {"value": 1.5}}],
  "displayTimeUnit": "ms", "schema": "beepmis.trace.v2",
  "capacity_per_thread": 4, "counter_every": 1, "dropped_total": 2,
  "otherData": {"tool": "beepmis_cli", "algorithm": "V1-global-delta",
                "family": "er-avg8", "n": "4096", "shards": "4"}
})";

TEST(Report, TraceDocumentContributesSpanQuantiles) {
  // Context values are strings, the tracer's context block being a
  // string->string map — the n coordinate must still parse.
  obs::ReportBuilder b;
  std::string error;
  ASSERT_TRUE(b.add_document(parse(kTrace), "trace.json", &error)) << error;
  const auto spans = rows(b, "trace_spans");
  // Counter events don't feed span digests.
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].get("algorithm").as_string(), "V1-global-delta");
  EXPECT_EQ(spans[0].get("family").as_string(), "torus");
  EXPECT_EQ(num(spans[0], "n"), 256.0);
  EXPECT_EQ(spans[0].get("span").as_string(), "engine.round");
  EXPECT_EQ(num(spans[0], "count"), 2.0);
  EXPECT_DOUBLE_EQ(num(spans[0], "mean_ns"), 200.0);
  EXPECT_DOUBLE_EQ(num(spans[0], "max_ns"), 300.0);
}

TEST(Report, EngineRoundSpansFeedWallTimePerRoundFits) {
  // The same trace at three sizes, its second round stretched so the mean
  // engine.round span (0.2, 0.8, 3.2 us) grows exactly linearly in n.
  obs::ReportBuilder b;
  std::string error;
  for (const auto& [n, dur] : std::vector<std::pair<std::string, std::string>>{
           {"256", "0.3"}, {"1024", "1.5"}, {"4096", "6.3"}}) {
    std::string text = kTrace;
    const std::string n_at = R"("n": "256")", dur_at = R"("dur": 0.3)";
    text.replace(text.find(n_at), n_at.size(), R"("n": ")" + n + "\"");
    text.replace(text.find(dur_at), dur_at.size(), R"("dur": )" + dur);
    ASSERT_TRUE(b.add_document(parse(text.c_str()), "trace-" + n + ".json",
                               &error))
        << error;
  }
  const auto fits = rows(b, "round_ms_fits");
  ASSERT_EQ(fits.size(), 4u);  // all models, ranked best-R² first
  EXPECT_EQ(fits[0].get("family").as_string(), "torus");
  EXPECT_EQ(fits[0].get("model").as_string(), "n");
  EXPECT_GT(num(fits[0], "r2"), 0.999);
  EXPECT_NEAR(num(fits[0], "slope"), 0.0002 / 256.0, 1e-12);
  EXPECT_EQ(num(fits[0], "sizes"), 3.0);
}

TEST(Report, ShardTraceFeedsPhaseAndImbalanceTables) {
  obs::ReportBuilder b;
  std::string error;
  ASSERT_TRUE(b.add_document(parse(kShardTrace), "shard.json", &error))
      << error;
  const obs::JsonValue doc = report_json(b);
  const auto& phases = doc.get("phase_breakdown").array;
  ASSERT_EQ(phases.size(), 1u);
  EXPECT_EQ(phases[0].get("family").as_string(), "er-avg8");
  EXPECT_EQ(num(phases[0], "n"), 4096.0);
  EXPECT_EQ(num(phases[0], "shards"), 4.0);
  EXPECT_EQ(num(phases[0], "rounds"), 2.0);  // two decide spans
  const obs::JsonValue& mean_ns = phases[0].get("mean_ns");
  EXPECT_DOUBLE_EQ(num(mean_ns, "decide"), 2000.0);
  EXPECT_DOUBLE_EQ(num(mean_ns, "apply"), 750.0);
  EXPECT_DOUBLE_EQ(num(mean_ns, "stamp"), 0.0);  // no spans
  const auto& imbalance = doc.get("imbalance").array;
  ASSERT_EQ(imbalance.size(), 1u);
  EXPECT_EQ(num(imbalance[0], "shards"), 4.0);
  EXPECT_EQ(num(imbalance[0], "samples"), 2.0);
  EXPECT_DOUBLE_EQ(num(imbalance[0], "mean"), 1.5);
  EXPECT_DOUBLE_EQ(num(imbalance[0], "max"), 1.75);
  EXPECT_DOUBLE_EQ(num(imbalance[0], "barrier_ms_mean"), 1.0);
  ASSERT_EQ(b.dropped_sources().size(), 1u);
  EXPECT_EQ(b.dropped_sources()[0].second, 2u);
}

// A malformed dump or trace fails with "<source>: <reason>" and is not
// listed as ingested.
TEST(Report, MalformedDumpAndTraceAreRejected) {
  const std::vector<std::pair<std::string, std::string>> bad = {
      {kDump, R"("kind": "no-such-kind")"},
      {kDump, R"("ring_capacity": "8")"},
      {kTrace, R"("dur": "0.1")"},
      {kTrace, R"("dropped": 1)"},
  };
  const std::vector<std::string> replaced = {
      R"("kind": "stall")", R"("ring_capacity": 8)", R"("dur": 0.1)",
      R"("dropped": 0)"};
  for (std::size_t i = 0; i < bad.size(); ++i) {
    std::string text = bad[i].first;
    const std::size_t at = text.find(replaced[i]);
    ASSERT_NE(at, std::string::npos);
    text.replace(at, replaced[i].size(), bad[i].second);
    SCOPED_TRACE(bad[i].second);
    obs::ReportBuilder b;
    std::string error;
    EXPECT_FALSE(b.add_document(parse(text.c_str()), "bad.json", &error));
    EXPECT_EQ(error.rfind("bad.json: ", 0), 0u) << error;
    EXPECT_GT(error.size(), std::string("bad.json: ").size());
    const obs::JsonValue doc = report_json(b);
    EXPECT_TRUE(doc.get("inputs").array.empty());
    EXPECT_TRUE(doc.get("trace_spans").array.empty());
    EXPECT_TRUE(doc.get("anomalies").array.empty());
  }
}

// Seeded mutations of a small document — every truncation, then 3000 byte
// flips and rewrites and 1000 splices — run through the reader chain
// json_parse -> <validate> -> ReportBuilder::add_document. Each input must
// be accepted, or rejected with a reason, and add_document must accept
// exactly what the validator accepts. Rendering an accepted mutant must not
// crash either. Returns the (accepted, rejected) counts.
using Validator = bool (*)(const obs::JsonValue&, std::string*);
std::pair<std::size_t, std::size_t> check_mutations(const std::string& base,
                                                    Validator validate,
                                                    std::uint64_t seed) {
  support::Rng rng(seed);
  std::vector<std::string> mutants;
  for (std::size_t len = 0; len < base.size(); ++len)
    mutants.push_back(base.substr(0, len));
  const std::string structural = "{}[]:,\"-.0123456789eE tfn";
  for (int k = 0; k < 3000; ++k) {
    std::string m = base;
    const std::size_t at = rng.below(m.size());
    if (k % 2 == 0)
      m[at] = static_cast<char>(m[at] ^ (1u << rng.below(8)));
    else
      m[at] = structural[rng.below(structural.size())];
    mutants.push_back(std::move(m));
  }
  for (int k = 0; k < 1000; ++k) {
    const std::size_t from = rng.below(base.size());
    const std::size_t len = rng.below(std::min<std::size_t>(
        64, base.size() - from)) + 1;
    const std::size_t to = rng.below(base.size());
    const std::size_t cut = rng.below(std::min<std::size_t>(
        64, base.size() - to) + 1);
    mutants.push_back(std::string(base).replace(to, cut,
                                                base.substr(from, len)));
  }

  std::size_t accepted = 0, rejected = 0;
  for (const std::string& m : mutants) {
    obs::JsonValue doc;
    std::string error;
    if (!obs::json_parse(m, &doc, &error)) {
      EXPECT_FALSE(error.empty());
      ++rejected;
      continue;
    }
    std::string verror;
    const bool valid = validate(doc, &verror);
    obs::ReportBuilder b;
    error.clear();
    const bool ingested = b.add_document(doc, "m.json", &error);
    EXPECT_EQ(valid, ingested) << m;
    if (!valid) {
      EXPECT_FALSE(verror.empty()) << m;
      EXPECT_FALSE(error.empty()) << m;
      ++rejected;
      continue;
    }
    ++accepted;
    std::ostringstream md, js;
    b.write_markdown(md, 0.10);
    b.write_json(js, 0.10);
    EXPECT_FALSE(md.str().empty());
  }
  return {accepted, rejected};
}

bool trace_valid(const obs::JsonValue& doc, std::string* error) {
  return obs::trace_validate(doc, error);
}

TEST(Report, TraceMutationsAreAcceptedOrRejectedCleanly) {
  const auto [accepted, rejected] =
      check_mutations(kShardTrace, trace_valid, 22);
  // The budget reaches both outcomes.
  EXPECT_GT(accepted, 100u);
  EXPECT_GT(rejected, 1000u);
}

TEST(Report, RunMutationsAreAcceptedOrRejectedCleanly) {
  for (const char* base : {kRunManifest, kBenchCapture}) {
    const auto [accepted, rejected] =
        check_mutations(base, obs::run_validate, 23);
    EXPECT_GT(accepted, 100u);
    EXPECT_GT(rejected, 1000u);
  }
}

TEST(Report, SweepMutationsAreAcceptedOrRejectedCleanly) {
  const auto [accepted, rejected] =
      check_mutations(kSweep, obs::sweep_validate, 24);
  EXPECT_GT(accepted, 100u);
  EXPECT_GT(rejected, 1000u);
}

// The fields the report reads from run.v1, sweep.v1 and event streams are
// checked before anything is ingested: a negative or oversized size, count
// or round fails with "<source>: <reason>".
TEST(Report, RunWithNegativeSizeAndCountIsRejected) {
  std::string text = kRunManifest;
  for (const auto& [from, to] :
       {std::pair<std::string, std::string>{R"("n": 512)", R"("n": -3)"},
        {R"("count": 20)", R"("count": -1)"}}) {
    const std::size_t at = text.find(from);
    ASSERT_NE(at, std::string::npos);
    text.replace(at, from.size(), to);
  }
  obs::ReportBuilder b;
  std::string error;
  EXPECT_FALSE(b.add_document(parse(text.c_str()), "bad.json", &error));
  EXPECT_EQ(error.rfind("bad.json: run.v1: graph.n", 0), 0u) << error;
  EXPECT_FALSE(b.set_baseline(parse(text.c_str()), "old.json", &error));
  EXPECT_EQ(error.rfind("old.json: ", 0), 0u) << error;
  const obs::JsonValue doc = report_json(b);
  EXPECT_TRUE(doc.get("inputs").array.empty());
  EXPECT_TRUE(doc.get("stabilization").array.empty());
}

TEST(Report, SweepWithOversizedPointIsRejected) {
  std::string text = kSweep;
  const std::string from = R"("n": 65536)";
  const std::size_t at = text.find(from);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, from.size(), R"("n": 1e300)");
  obs::ReportBuilder b;
  std::string error;
  EXPECT_FALSE(b.add_document(parse(text.c_str()), "bad.json", &error));
  EXPECT_EQ(error.rfind("bad.json: sweep.v1: points[4]", 0), 0u) << error;
  EXPECT_TRUE(rows(b, "stabilization").empty());
}

TEST(Report, EventWithNegativeRoundIsRejected) {
  obs::ReportBuilder b;
  std::string error;
  EXPECT_EQ(b.add_events("{\"round\":1,\"active\":5}\n"
                         "{\"round\":-1,\"active\":0}\n",
                         "bad.jsonl", &error),
            0u);
  EXPECT_EQ(error.rfind("bad.jsonl: line 2: ", 0), 0u) << error;
  const obs::JsonValue doc = report_json(b);
  EXPECT_TRUE(doc.get("inputs").array.empty());
  EXPECT_TRUE(doc.get("stabilization").array.empty());
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
  EXPECT_EQ(rows(b, "stabilization").size(), 2u);
}

}  // namespace
}  // namespace beepmis
