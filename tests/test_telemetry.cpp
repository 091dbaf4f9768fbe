#include "src/obs/timeseries.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/engine.hpp"
#include "src/core/fast_engine.hpp"
#include "src/graph/generators.hpp"
#include "src/obs/json_parse.hpp"
#include "src/obs/trace.hpp"
#include "src/support/task_pool.hpp"

namespace beepmis {
namespace {

// The timeseries phase list is a duplicate of the sharded kernel's phase
// keys (obs cannot depend on core); this pin is the only thing keeping the
// two from drifting apart.
TEST(Telemetry, PhaseKeysPinnedToShardPhases) {
  ASSERT_EQ(obs::kTimeSeriesPhases, core::kShardPhaseCount);
  for (std::size_t p = 0; p < obs::kTimeSeriesPhases; ++p)
    EXPECT_STREQ(obs::kTimeSeriesPhaseKeys[p], core::kShardPhaseKeys[p]);
}

obs::TimeSeriesSample make_sample(std::uint64_t round) {
  obs::TimeSeriesSample s;
  s.round = round;
  s.active = 64 - round;
  s.beeps = round;
  s.mis = round / 2;
  s.round_ms = 0.5;
  s.imbalance = 1.25;
  s.barrier_ms = 0.125;
  s.has_phases = true;
  for (std::size_t p = 0; p < obs::kTimeSeriesPhases; ++p)
    s.phase_ms[p] = 0.0625 * static_cast<double>(p + 1);
  return s;
}

obs::JsonValue series_doc(const obs::TimeSeries& series) {
  std::ostringstream os;
  series.write_json(os);
  obs::JsonValue doc;
  std::string error;
  EXPECT_TRUE(obs::json_parse(os.str(), &doc, &error)) << error;
  return doc;
}

TEST(Telemetry, TimeSeriesRoundTripValidates) {
  obs::TimeSeries series(/*capacity=*/4, /*every=*/2);
  EXPECT_FALSE(series.due(1));
  EXPECT_TRUE(series.due(2));
  series.set_context("algorithm", "V1-global-delta");
  series.set_context("n", "64");
  for (std::uint64_t i = 1; i <= 6; ++i) series.record(make_sample(2 * i));
  EXPECT_EQ(series.recorded(), 6u);
  EXPECT_EQ(series.dropped(), 2u);

  const obs::JsonValue doc = series_doc(series);
  std::string error;
  EXPECT_TRUE(obs::timeseries_validate(doc, &error)) << error;
  EXPECT_EQ(doc.get("schema").as_string(""), "beepmis.timeseries.v1");
  EXPECT_EQ(doc.get("every").as_number(0.0), 2.0);
  EXPECT_EQ(doc.get("context").get("algorithm").as_string(""),
            "V1-global-delta");
  const auto& samples = doc.get("samples").array;
  ASSERT_EQ(samples.size(), 4u);
  // The ring kept the newest four samples, exported oldest-first.
  EXPECT_EQ(samples[0].get("round").as_number(0.0), 6.0);
  EXPECT_EQ(samples[3].get("round").as_number(0.0), 12.0);
  const obs::JsonValue& timing = samples[0].get("timing");
  EXPECT_EQ(timing.get("imbalance").as_number(0.0), 1.25);
  EXPECT_EQ(timing.get("phase_ms").get("decide").as_number(0.0), 0.0625);
}

TEST(Telemetry, TimeSeriesCanonicalStripsTiming) {
  obs::TimeSeries series(8, 1);
  series.set_context("n", "64");
  for (std::uint64_t r = 1; r <= 3; ++r) series.record(make_sample(r));
  const obs::JsonValue doc = series_doc(series);

  std::ostringstream canon;
  std::string error;
  ASSERT_TRUE(obs::timeseries_write_canonical(doc, canon, &error)) << error;
  obs::JsonValue projected;
  ASSERT_TRUE(obs::json_parse(canon.str(), &projected, &error)) << error;
  ASSERT_EQ(projected.get("samples").array.size(), 3u);
  for (const obs::JsonValue& s : projected.get("samples").array) {
    EXPECT_FALSE(s.has("timing"));
    EXPECT_TRUE(s.has("round"));
    EXPECT_TRUE(s.has("active"));
    EXPECT_TRUE(s.has("beeps"));
    EXPECT_TRUE(s.has("mis"));
  }
  // The deterministic fields survive the projection unchanged.
  EXPECT_EQ(projected.get("samples").array[2].get("round").as_number(0.0),
            3.0);
}

TEST(Telemetry, TimeSeriesValidateRejectsMutations) {
  obs::TimeSeries series(8, 1);
  for (std::uint64_t r = 1; r <= 2; ++r) series.record(make_sample(r));
  const obs::JsonValue good = series_doc(series);
  ASSERT_TRUE(obs::timeseries_validate(good));

  obs::JsonValue bad = good;
  bad.object["schema"].str = "beepmis.timeseries.v2";
  EXPECT_FALSE(obs::timeseries_validate(bad));

  bad = good;
  bad.object["samples"].array[0].object.erase("round");
  EXPECT_FALSE(obs::timeseries_validate(bad));

  bad = good;
  bad.object["samples"].array[1].object.erase("timing");
  EXPECT_FALSE(obs::timeseries_validate(bad));

  bad = good;
  bad.object["samples"].array[0].object["active"].type =
      obs::JsonValue::Type::String;
  EXPECT_FALSE(obs::timeseries_validate(bad));

  // phase_ms may be sparse (it is empty when no shard telemetry contributed)
  // but every value present must be a number.
  bad = good;
  bad.object["samples"].array[0].object["timing"].object["phase_ms"]
      .object["fold"].type = obs::JsonValue::Type::String;
  EXPECT_FALSE(obs::timeseries_validate(bad));

  // Counts and cadence are non-negative integers no larger than 2^53 (the
  // range a double holds exactly): a negative, fractional or huge number
  // would otherwise reach an undefined double -> uint64 conversion.
  for (const char* key : {"every", "capacity", "recorded", "dropped"}) {
    for (double x : {-1.0, 2.5, 1e30, 9007199254740994.0}) {
      bad = good;
      bad.object[key].number = x;
      EXPECT_FALSE(obs::timeseries_validate(bad)) << key << " = " << x;
    }
  }
  for (const char* key : {"round", "active", "beeps", "mis"}) {
    for (double x : {-1.0, 0.5, 1e30, 9007199254740994.0}) {
      bad = good;
      bad.object["samples"].array[0].object[key].number = x;
      EXPECT_FALSE(obs::timeseries_validate(bad))
          << "sample " << key << " = " << x;
    }
  }

  // The ring arithmetic must add up: samples.size() == min(recorded,
  // capacity) and dropped == recorded - samples.size().
  bad = good;
  bad.object["capacity"].number = 1;  // two samples kept by a 1-slot ring
  EXPECT_FALSE(obs::timeseries_validate(bad));
  bad = good;
  bad.object["recorded"].number = 5;  // 5 recorded, 2 kept, 0 dropped
  EXPECT_FALSE(obs::timeseries_validate(bad));
  bad = good;
  bad.object["dropped"].number = 1;
  EXPECT_FALSE(obs::timeseries_validate(bad));
  bad = good;
  bad.object["samples"].array.pop_back();
  EXPECT_FALSE(obs::timeseries_validate(bad));

  // A wrapped ring is consistent: 10 recorded into 4 slots, 6 dropped.
  obs::TimeSeries wrapped(4, 1);
  for (std::uint64_t r = 1; r <= 10; ++r) wrapped.record(make_sample(r));
  std::string error;
  EXPECT_TRUE(obs::timeseries_validate(series_doc(wrapped), &error)) << error;

  bad = good;
  bad.object.erase("context");
  EXPECT_FALSE(obs::timeseries_validate(bad));

  // A rejected document never writes a canonical projection.
  std::ostringstream os;
  EXPECT_FALSE(obs::timeseries_write_canonical(bad, os));
}

// A private labeled pool constructed while no tracing session is live must
// still be picked up when a session starts later: Tracer::enable refreshes
// the process-wide TaskPool observer, so the pool's spawned workers get
// "<label>-worker-N" tracks and per-claim pool.task spans.
TEST(Telemetry, PrivatePoolObserverRefreshAcrossTracerSessions) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.disable();
  support::TaskPool pool(3, "shard");
  std::vector<int> hit(16, 0);
  auto batch = [&] {
    pool.parallel_for(hit.size(), [&](std::size_t i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      hit[i] += 1;
    });
  };
  batch();  // session off: no observer, nothing recorded

  tracer.clear_context();
  tracer.enable(4096, 0);
  obs::Tracer::set_thread_label("main");
  batch();  // session on: the pre-existing pool is now observed
  tracer.disable();
  for (int h : hit) EXPECT_EQ(h, 2);

  std::ostringstream os;
  tracer.write_json(os);
  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::json_parse(os.str(), &doc, &error)) << error;
  std::size_t task_spans = 0;
  bool saw_shard_worker = false;
  for (const obs::JsonValue& ev : doc.get("traceEvents").array) {
    const std::string name = ev.get("name").as_string("");
    if (name == "thread_name" &&
        ev.get("args").get("name").as_string("").rfind("shard-worker-", 0) ==
            0)
      saw_shard_worker = true;
    if (name == "pool.task") ++task_spans;
  }
  // Only the in-session batch leaves spans: one claim per task.
  EXPECT_EQ(task_spans, hit.size());
  EXPECT_TRUE(saw_shard_worker);
}

std::vector<std::int32_t> levels_of(const core::Engine& e) {
  std::vector<std::int32_t> out(e.graph().vertex_count());
  for (graph::VertexId v = 0; v < out.size(); ++v) out[v] = e.level(v);
  return out;
}

// The ≤2% contract's correctness half: forcing per-round ShardTelemetry
// collection must not perturb a single level, settlement, or MIS member —
// the telemetry layer only reads clocks and shard-owned tallies.
TEST(Telemetry, ShardedResultsIdenticalWithTelemetryOnOrOff) {
  support::Rng grng(77);
  const auto g = graph::make_erdos_renyi_avg_degree(256, 8.0, grng);
  const auto lmax = core::lmax_global_delta(g);
  core::FastMisEngine bare(g, lmax, 99, {}, beep::Duplex::Full,
                           core::KernelKind::Sharded, /*shard_threads=*/4,
                           /*phase_telemetry=*/false);
  core::FastMisEngine instrumented(g, lmax, 99, {}, beep::Duplex::Full,
                                   core::KernelKind::Sharded,
                                   /*shard_threads=*/4,
                                   /*phase_telemetry=*/true);
  support::Rng c1(5), c2(5);
  for (graph::VertexId v = 0; v < g.vertex_count(); ++v) bare.corrupt(v, c1);
  for (graph::VertexId v = 0; v < g.vertex_count(); ++v)
    instrumented.corrupt(v, c2);

  core::ShardTelemetry before;
  ASSERT_FALSE(bare.shard_telemetry(&before))
      << "telemetry off must report no data";

  for (int r = 0; r < 200; ++r) {
    bare.step();
    instrumented.step();
    ASSERT_EQ(levels_of(instrumented), levels_of(bare)) << "round " << r;
    ASSERT_EQ(instrumented.active_count(), bare.active_count());
  }
  EXPECT_EQ(instrumented.mis_members(), bare.mis_members());
  EXPECT_EQ(instrumented.is_stabilized(), bare.is_stabilized());

  core::ShardTelemetry tel;
  ASSERT_TRUE(instrumented.shard_telemetry(&tel));
  EXPECT_EQ(tel.rounds, 200u);
  EXPECT_GT(tel.shards, 0u);
  EXPECT_GT(tel.busy_ms, 0.0);
  EXPECT_GE(tel.max_busy_ms * static_cast<double>(tel.shards), tel.busy_ms);
  EXPECT_GE(tel.imbalance(), 1.0);
  double phase_total = 0.0;
  for (std::size_t p = 0; p < core::kShardPhaseCount; ++p)
    phase_total += tel.phase_ms[p];
  EXPECT_GT(phase_total, 0.0);
}

}  // namespace
}  // namespace beepmis
