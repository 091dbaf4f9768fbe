#include "src/obs/flight.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "src/obs/json_parse.hpp"
#include "src/obs/trace.hpp"

namespace beepmis {
namespace {

obs::RoundEvent make_event(std::uint64_t round, std::uint32_t active,
                           std::uint32_t heard_any = 0) {
  obs::RoundEvent e;
  e.round = round;
  e.active = active;
  e.heard_any = heard_any;
  return e;
}

TEST(AnomalyDetector, StallFiresExactlyOncePerArm) {
  obs::AnomalyConfig cfg;
  cfg.n = 100;
  cfg.expected_rounds = 50;
  cfg.stall_multiple = 2.0;  // threshold: round > 100
  obs::AnomalyDetector det(cfg);
  EXPECT_EQ(det.stall_threshold(), 100u);

  std::size_t fires = 0;
  for (std::uint64_t r = 1; r <= 500; ++r) {
    for (obs::AnomalyKind k : det.observe(make_event(r, /*active=*/5))) {
      EXPECT_EQ(k, obs::AnomalyKind::Stall);
      EXPECT_EQ(r, 101u);  // first round past the threshold
      ++fires;
    }
  }
  EXPECT_EQ(fires, 1u) << "a 400-round stall is one anomaly, not 400";
  EXPECT_TRUE(det.fired(obs::AnomalyKind::Stall));

  det.reset();
  EXPECT_FALSE(det.fired(obs::AnomalyKind::Stall));
  const auto again = det.observe(make_event(200, 5));
  ASSERT_EQ(again.size(), 1u);  // re-armed after reset
}

TEST(AnomalyDetector, NoStallWhenStabilizedOrWithinHorizon) {
  obs::AnomalyConfig cfg;
  cfg.n = 100;
  cfg.expected_rounds = 50;
  obs::AnomalyDetector det(cfg);
  // Past the threshold but active == 0: a settled system never stalls.
  EXPECT_TRUE(det.observe(make_event(1000, /*active=*/0)).empty());
  // Active but within the horizon.
  EXPECT_TRUE(det.observe(make_event(90, /*active=*/7)).empty());
  EXPECT_FALSE(det.fired(obs::AnomalyKind::Stall));
}

TEST(AnomalyDetector, BeepStormNeedsConsecutiveSaturatedRounds) {
  obs::AnomalyConfig cfg;
  cfg.n = 100;
  cfg.storm_fraction = 0.95;
  cfg.storm_window = 10;
  obs::AnomalyDetector det(cfg);

  // 9 saturated rounds, then a quiet one: the run resets.
  for (std::uint64_t r = 1; r <= 9; ++r)
    EXPECT_TRUE(det.observe(make_event(r, 1, /*heard_any=*/99)).empty());
  EXPECT_TRUE(det.observe(make_event(10, 1, /*heard_any=*/10)).empty());

  // 10 consecutive saturated rounds fire exactly once.
  std::size_t fires = 0;
  for (std::uint64_t r = 11; r <= 40; ++r)
    fires += det.observe(make_event(r, 1, /*heard_any=*/100)).size();
  EXPECT_EQ(fires, 1u);
  EXPECT_TRUE(det.fired(obs::AnomalyKind::BeepStorm));
}

TEST(AnomalyDetector, Lemma31PersistenceRequiresAnalysisAndHorizon) {
  obs::AnomalyConfig cfg;
  cfg.n = 50;
  cfg.expected_rounds = 20;
  cfg.check_lemma31 = true;
  cfg.lemma_window = 5;
  obs::AnomalyDetector det(cfg);

  std::size_t fires = 0;
  for (std::uint64_t r = 1; r <= 60; ++r) {
    obs::RoundEvent e = make_event(r, 3);
    e.has_analysis = true;
    e.lemma31_violations = 2;  // persistently violated
    for (obs::AnomalyKind k : det.observe(e))
      fires += k == obs::AnomalyKind::Lemma31Persistence ? 1 : 0;
  }
  // Violations only count after expected_rounds; window 5 → fires at round
  // 25, and only once. (The stall latch fires separately at round 41 —
  // active never drops in this stream — which is correct and independent.)
  EXPECT_EQ(fires, 1u);
  EXPECT_TRUE(det.fired(obs::AnomalyKind::Lemma31Persistence));
}

TEST(AnomalyDetector, HorizonsCountFromTheLastSettledRound) {
  obs::AnomalyConfig cfg;
  cfg.n = 100;
  cfg.expected_rounds = 50;  // stall threshold: 100 unsettled rounds
  cfg.check_lemma31 = true;
  cfg.lemma_window = 4;
  obs::AnomalyDetector det(cfg);
  std::uint64_t round = 0;
  const auto feed = [&](std::uint32_t active) {
    obs::RoundEvent e = make_event(++round, active);
    e.has_analysis = true;
    e.lemma31_violations = active > 0 ? 1 : 0;
    return det.observe(e);
  };

  // Fault waves: 45-round unsettled stretches, each ended by a settled
  // round, run far past 2 × expected_rounds in total without firing.
  for (int wave = 0; wave < 20; ++wave) {
    for (int k = 0; k < 45; ++k) EXPECT_TRUE(feed(7).empty()) << round;
    EXPECT_TRUE(feed(0).empty()) << round;
  }
  ASSERT_GT(round, 2 * det.stall_threshold());

  // One long stretch: Lemma 3.1 persistence after expected_rounds plus the
  // window, one stall after stall_threshold() rounds, both counted from
  // the round after the last settled one.
  const std::uint64_t settled = round;
  std::vector<std::pair<obs::AnomalyKind, std::uint64_t>> fired;
  for (int k = 0; k < 300; ++k)
    for (obs::AnomalyKind kind : feed(7)) fired.emplace_back(kind, round);
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0].first, obs::AnomalyKind::Lemma31Persistence);
  EXPECT_EQ(fired[0].second,
            settled + cfg.expected_rounds + cfg.lemma_window);
  EXPECT_EQ(fired[1].first, obs::AnomalyKind::Stall);
  EXPECT_EQ(fired[1].second, settled + det.stall_threshold() + 1);
}

TEST(FlightRecorder, RingKeepsLastKEventsOldestFirst) {
  obs::AnomalyConfig cfg;  // everything effectively off (expected_rounds 0)
  cfg.storm_window = 0;
  obs::FlightRecorder rec(/*ring_capacity=*/4, cfg, obs::FlightContext{});
  for (std::uint64_t r = 1; r <= 10; ++r) rec.on_round(make_event(r, 1));
  const auto ring = rec.ring();
  ASSERT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.front().round, 7u);
  EXPECT_EQ(ring.back().round, 10u);
}

TEST(FlightRecorder, ForcedStallDumpRoundTripsThroughParser) {
  obs::AnomalyConfig cfg;
  cfg.n = 8;
  cfg.expected_rounds = 10;
  cfg.stall_multiple = 1.0;  // stall past round 10
  obs::FlightContext ctx;
  ctx.tool = "test";
  ctx.seed = 42;
  ctx.graph_name = "g\"quoted\"";  // exercise escaping
  ctx.family = "er-avg8";
  ctx.n = 8;
  ctx.m = 12;
  ctx.max_degree = 5;
  ctx.algorithm = "V1-global-delta";
  ctx.init_policy = "uniform-random";
  ctx.engine = "fast";
  ctx.add_extra("note", "forced stall");

  obs::FlightRecorder rec(/*ring_capacity=*/16, cfg, ctx);
  rec.set_snapshot_every(5);
  rec.set_level_probe([]() {
    return std::vector<std::int32_t>{-3, -2, -1, 0, 1, 2, 3, 4};
  });
  for (std::uint64_t r = 1; r <= 30; ++r) rec.on_round(make_event(r, 2));
  ASSERT_EQ(rec.anomalies().size(), 1u);
  EXPECT_EQ(rec.anomalies()[0].kind, obs::AnomalyKind::Stall);
  EXPECT_EQ(rec.anomalies()[0].round, 11u);

  std::ostringstream os;
  rec.write_dump(os);

  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::json_parse(os.str(), &doc, &error)) << error;
  EXPECT_EQ(doc.get("schema").as_string(), "beepmis.dump.v1");
  EXPECT_EQ(doc.get("context").get("tool").as_string(), "test");
  EXPECT_EQ(doc.get("context").get("graph").get("name").as_string(),
            "g\"quoted\"");
  EXPECT_EQ(doc.get("context").get("extra").get("note").as_string(),
            "forced stall");
  EXPECT_DOUBLE_EQ(doc.get("config").get("expected_rounds").as_number(),
                   10.0);

  ASSERT_TRUE(doc.get("anomalies").is_array());
  ASSERT_EQ(doc.get("anomalies").array.size(), 1u);
  EXPECT_EQ(doc.get("anomalies").array[0].get("kind").as_string(), "stall");
  EXPECT_DOUBLE_EQ(doc.get("anomalies").array[0].get("round").as_number(),
                   11.0);

  ASSERT_TRUE(doc.get("ring").is_array());
  EXPECT_EQ(doc.get("ring").array.size(), 16u);
  EXPECT_DOUBLE_EQ(doc.get("ring").array.back().get("round").as_number(),
                   30.0);

  ASSERT_TRUE(doc.get("snapshots").is_array());
  EXPECT_FALSE(doc.get("snapshots").array.empty());
  ASSERT_TRUE(doc.get("final_levels").is_array());
  ASSERT_EQ(doc.get("final_levels").array.size(), 8u);
  EXPECT_DOUBLE_EQ(doc.get("final_levels").array[0].as_number(), -3.0);
}

// Under a live tracing session the dump carries the dumping thread's
// newest trace records as "trace_tail", in the trace document's Chrome
// event shape, and dump_validate checks each one.
TEST(FlightRecorder, TraceTailUsesTheTraceEventShape) {
  obs::AnomalyConfig cfg;
  cfg.n = 4;
  cfg.expected_rounds = 2;
  cfg.stall_multiple = 1.0;
  obs::FlightContext ctx;
  ctx.tool = "test";
  obs::FlightRecorder rec(/*ring_capacity=*/4, cfg, ctx);
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.enable(16, 0);
  { obs::TraceScope span("engine.round", 7); }
  obs::Tracer::counter("engine.active", 3.0);
  for (std::uint64_t r = 1; r <= 4; ++r) rec.on_round(make_event(r, 2));
  std::ostringstream os;
  rec.write_dump(os);
  tracer.disable();

  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::json_parse(os.str(), &doc, &error)) << error;
  EXPECT_TRUE(obs::dump_validate(doc, &error)) << error;
  const auto& tail = doc.get("trace_tail").array;
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].get("ph").as_string(), "X");
  EXPECT_EQ(tail[0].get("args").get("arg").as_number(), 7.0);
  EXPECT_TRUE(tail[0].has("dur"));
  EXPECT_EQ(tail[1].get("ph").as_string(), "C");
  EXPECT_EQ(tail[1].get("args").get("value").as_number(), 3.0);

  doc.object["trace_tail"].array[1].object.erase("args");
  EXPECT_FALSE(obs::dump_validate(doc, &error));
  EXPECT_NE(error.find("trace_tail[1]"), std::string::npos) << error;
}

TEST(FlightRecorder, AutoDumpWritesFileOnceAnomalyFires) {
  obs::AnomalyConfig cfg;
  cfg.n = 4;
  cfg.expected_rounds = 5;
  cfg.stall_multiple = 1.0;
  obs::FlightRecorder rec(8, cfg, obs::FlightContext{});
  const std::string path = testing::TempDir() + "beepmis_test_dump.json";
  rec.set_dump_path(path);
  for (std::uint64_t r = 1; r <= 4; ++r) rec.on_round(make_event(r, 1));
  EXPECT_FALSE(rec.dumped());
  for (std::uint64_t r = 5; r <= 10; ++r) rec.on_round(make_event(r, 1));
  EXPECT_TRUE(rec.dumped());

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  obs::JsonValue doc;
  ASSERT_TRUE(obs::json_parse(buf.str(), &doc));
  EXPECT_EQ(doc.get("schema").as_string(), "beepmis.dump.v1");
}

TEST(FlightRecorder, ResetRearmsEverything) {
  obs::AnomalyConfig cfg;
  cfg.n = 4;
  cfg.expected_rounds = 5;
  cfg.stall_multiple = 1.0;
  obs::FlightRecorder rec(8, cfg, obs::FlightContext{});
  for (std::uint64_t r = 1; r <= 10; ++r) rec.on_round(make_event(r, 1));
  EXPECT_EQ(rec.anomalies().size(), 1u);
  rec.reset();
  EXPECT_TRUE(rec.anomalies().empty());
  EXPECT_TRUE(rec.ring().empty());
  for (std::uint64_t r = 1; r <= 10; ++r) rec.on_round(make_event(r, 1));
  EXPECT_EQ(rec.anomalies().size(), 1u);  // fires again after reset
}

TEST(FlightRecorder, WantsAnalysisTracksLemmaConfig) {
  obs::AnomalyConfig off;
  EXPECT_FALSE(
      obs::FlightRecorder(4, off, obs::FlightContext{}).wants_analysis());
  obs::AnomalyConfig on;
  on.check_lemma31 = true;
  EXPECT_TRUE(
      obs::FlightRecorder(4, on, obs::FlightContext{}).wants_analysis());
}

}  // namespace
}  // namespace beepmis
