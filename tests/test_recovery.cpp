#include "src/obs/recovery.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/engine.hpp"
#include "src/core/invariant.hpp"
#include "src/exp/runner.hpp"
#include "src/graph/generators.hpp"
#include "src/mis/verifier.hpp"
#include "src/obs/flight.hpp"
#include "src/obs/json_parse.hpp"
#include "src/obs/report.hpp"
#include "src/support/rng.hpp"

namespace beepmis {
namespace {

obs::RoundEvent make_event(std::uint64_t round, std::uint32_t active) {
  obs::RoundEvent e;
  e.round = round;
  e.active = active;
  return e;
}

/// A probe whose result the test scripts directly.
obs::InvariantProbe fixed_probe(obs::InvariantProbeResult r) {
  return [r](bool) { return r; };
}

// ---------------------------------------------------------------------------
// InvariantMonitor unit semantics (scripted probe + synthetic events).

TEST(InvariantMonitor, LatchesIndependenceOnlyAtStabilizationClaim) {
  obs::InvariantConfig cfg;
  cfg.cadence = 0;  // edges only
  obs::InvariantMonitor mon(cfg);
  obs::InvariantProbeResult bad;
  bad.stabilized = true;
  bad.independent = false;
  bad.maximal = true;
  mon.set_probe(fixed_probe(bad));

  // Active rounds: never probed, never latched (mid-convergence the MIS is
  // legitimately in flux).
  for (std::uint64_t r = 1; r <= 5; ++r) mon.on_round(make_event(r, 3));
  EXPECT_TRUE(mon.violations().empty());
  EXPECT_EQ(mon.probe_count(), 0u);

  // Stabilization edge: probed, latched once.
  mon.on_round(make_event(6, 0));
  ASSERT_EQ(mon.violations().size(), 1u);
  EXPECT_EQ(mon.violations()[0].kind, obs::InvariantKind::Independence);
  EXPECT_EQ(mon.violations()[0].round, 6u);

  // Staying stabilized is not a new edge; re-stabilizing latches nothing new
  // (each kind latches at most once per reset).
  mon.on_round(make_event(7, 0));
  mon.on_round(make_event(8, 2));
  mon.on_round(make_event(9, 0));
  EXPECT_EQ(mon.violations().size(), 1u);

  mon.reset();
  EXPECT_TRUE(mon.violations().empty());
  mon.on_round(make_event(1, 0));  // first event claiming S_t = V is an edge
  EXPECT_EQ(mon.violations().size(), 1u);
}

TEST(InvariantMonitor, LevelRangeCheckedAtCadence) {
  obs::InvariantConfig cfg;
  cfg.cadence = 4;
  obs::InvariantMonitor mon(cfg);
  obs::InvariantProbeResult bad;
  bad.stabilized = false;
  bad.levels_in_range = false;
  mon.set_probe(fixed_probe(bad));

  for (std::uint64_t r = 1; r <= 3; ++r) mon.on_round(make_event(r, 9));
  EXPECT_TRUE(mon.violations().empty());
  mon.on_round(make_event(4, 9));  // cadence hit mid-convergence
  ASSERT_EQ(mon.violations().size(), 1u);
  EXPECT_EQ(mon.violations()[0].kind, obs::InvariantKind::LevelRange);
  EXPECT_EQ(mon.violations()[0].round, 4u);
  EXPECT_EQ(mon.probe_count(), 1u);
}

TEST(InvariantMonitor, ForwardsToFlightRecorderAndTracker) {
  obs::AnomalyConfig acfg;  // detectors effectively off
  acfg.storm_window = 0;
  obs::FlightRecorder flight(8, acfg, obs::FlightContext{});
  obs::RecoveryTracker tracker(obs::RecoveryConfig{});

  obs::InvariantConfig cfg;
  obs::InvariantMonitor mon(cfg);
  obs::InvariantProbeResult bad;
  bad.stabilized = true;
  bad.independent = false;
  bad.maximal = false;
  mon.set_probe(fixed_probe(bad));
  mon.set_flight_recorder(&flight);
  mon.set_recovery_tracker(&tracker);

  mon.on_round(make_event(12, 0));
  ASSERT_EQ(mon.violations().size(), 2u);  // independence + maximality
  ASSERT_EQ(flight.anomalies().size(), 2u);
  EXPECT_EQ(flight.anomalies()[0].kind,
            obs::AnomalyKind::InvariantIndependence);
  EXPECT_EQ(flight.anomalies()[1].kind, obs::AnomalyKind::InvariantMaximality);
  // The tracker had no open epoch: breakage opened one.
  EXPECT_TRUE(tracker.epoch_open());
  tracker.finalize(20);
  ASSERT_EQ(tracker.epochs().size(), 1u);
  EXPECT_EQ(tracker.epochs()[0].cause, "invariant-violation");
  EXPECT_EQ(tracker.epochs()[0].outcome,
            obs::RecoveryOutcome::SafetyViolation);
}

// ---------------------------------------------------------------------------
// RecoveryTracker classification (scripted events).

TEST(RecoveryTracker, ClassifiesRecoveredWithinBound) {
  obs::RecoveryConfig cfg;
  cfg.recovery_bound = 50;
  obs::RecoveryTracker t(cfg);
  t.on_fault(10, "corrupt-random", 5);
  EXPECT_TRUE(t.epoch_open());
  for (std::uint64_t r = 11; r <= 19; ++r) t.on_round(make_event(r, 7));
  t.on_round(make_event(20, 0));
  EXPECT_FALSE(t.epoch_open());
  ASSERT_EQ(t.epochs().size(), 1u);
  const obs::RecoveryEpoch& ep = t.epochs()[0];
  EXPECT_EQ(ep.cause, "corrupt-random");
  EXPECT_EQ(ep.faults, 5u);
  EXPECT_EQ(ep.onset_round, 10u);
  EXPECT_EQ(ep.end_round, 20u);
  EXPECT_EQ(ep.recovery_rounds, 10u);
  EXPECT_EQ(ep.outcome, obs::RecoveryOutcome::Recovered);
}

TEST(RecoveryTracker, LateRecoveryIsAStall) {
  obs::RecoveryConfig cfg;
  cfg.recovery_bound = 5;
  obs::RecoveryTracker t(cfg);
  t.on_fault(10, "corrupt-nodes", 2);
  for (std::uint64_t r = 11; r <= 29; ++r) t.on_round(make_event(r, 3));
  t.on_round(make_event(30, 0));
  ASSERT_EQ(t.epochs().size(), 1u);
  EXPECT_EQ(t.epochs()[0].outcome, obs::RecoveryOutcome::Stall);
}

TEST(RecoveryTracker, ZeroBoundAcceptsAnyFiniteRecovery) {
  obs::RecoveryTracker t(obs::RecoveryConfig{});  // bound 0
  t.on_fault(1, "corrupt-all", 100);
  for (std::uint64_t r = 2; r <= 999; ++r) t.on_round(make_event(r, 1));
  t.on_round(make_event(1000, 0));
  ASSERT_EQ(t.epochs().size(), 1u);
  EXPECT_EQ(t.epochs()[0].outcome, obs::RecoveryOutcome::Recovered);
}

TEST(RecoveryTracker, AbsorbedFaultClosesMaskedAtFinalize) {
  obs::RecoveryTracker t(obs::RecoveryConfig{});
  obs::InvariantProbeResult ok;
  ok.stabilized = true;
  t.set_probe(fixed_probe(ok));
  t.on_fault(40, "corrupt-random", 3);
  // No events at all: run_to_stabilization saw is_stabilized and executed
  // zero rounds — the settled configuration absorbed the corruption.
  t.finalize(40);
  ASSERT_EQ(t.epochs().size(), 1u);
  EXPECT_EQ(t.epochs()[0].outcome, obs::RecoveryOutcome::Masked);
  EXPECT_EQ(t.epochs()[0].recovery_rounds, 0u);
}

TEST(RecoveryTracker, BudgetExhaustionClosesStallAtFinalize) {
  obs::RecoveryTracker t(obs::RecoveryConfig{});
  obs::InvariantProbeResult unsettled;
  unsettled.stabilized = false;
  t.set_probe(fixed_probe(unsettled));
  t.on_fault(40, "corrupt-random", 3);
  for (std::uint64_t r = 41; r <= 60; ++r) t.on_round(make_event(r, 2));
  t.finalize(60);  // run stopped without an active == 0 event
  ASSERT_EQ(t.epochs().size(), 1u);
  EXPECT_EQ(t.epochs()[0].outcome, obs::RecoveryOutcome::Stall);
}

TEST(RecoveryTracker, ViolationDuringEpochPoisonsToSafetyViolation) {
  obs::RecoveryTracker t(obs::RecoveryConfig{});
  t.on_fault(5, "corrupt-random", 1);
  t.on_round(make_event(6, 4));
  t.on_violation(7);
  t.on_round(make_event(8, 0));  // recovers, but safety already lost
  ASSERT_EQ(t.epochs().size(), 1u);
  EXPECT_EQ(t.epochs()[0].outcome, obs::RecoveryOutcome::SafetyViolation);
  EXPECT_EQ(t.summary().invariant_violations, 1u);
}

TEST(RecoveryTracker, CompoundFaultsFoldIntoOneEpoch) {
  obs::RecoveryConfig cfg;
  cfg.recovery_bound = 100;
  obs::RecoveryTracker t(cfg);
  t.on_fault(10, "corrupt-random", 4);
  t.on_round(make_event(11, 6));
  t.on_fault(12, "corrupt-nodes", 3);  // lands inside the open epoch
  for (std::uint64_t r = 13; r <= 24; ++r) t.on_round(make_event(r, 2));
  t.on_round(make_event(25, 0));
  ASSERT_EQ(t.epochs().size(), 1u);
  const obs::RecoveryEpoch& ep = t.epochs()[0];
  EXPECT_EQ(ep.cause, "corrupt-random");  // first onset names the epoch
  EXPECT_EQ(ep.faults, 7u);
  EXPECT_EQ(ep.onset_round, 10u);         // recovery measured from first onset
  EXPECT_EQ(ep.recovery_rounds, 15u);
}

TEST(RecoverySummary, MergeFoldsCountersAndDigest) {
  obs::RecoveryTracker a(obs::RecoveryConfig{});
  a.on_fault(0, "corrupt-random", 1);
  a.on_round(make_event(2, 3));
  a.on_round(make_event(10, 0));
  obs::RecoveryTracker b(obs::RecoveryConfig{});
  b.on_fault(0, "corrupt-random", 1);
  b.on_round(make_event(1, 4));
  b.on_round(make_event(30, 0));
  b.on_violation(31);
  b.on_round(make_event(32, 5));
  b.on_round(make_event(33, 0));

  obs::RecoverySummary folded;
  folded.merge(a.summary());
  folded.merge(b.summary());
  EXPECT_EQ(folded.epochs, 3u);
  EXPECT_EQ(folded.recovered, 2u);
  EXPECT_EQ(folded.safety_violations, 1u);
  EXPECT_EQ(folded.invariant_violations, 1u);
  EXPECT_EQ(folded.recovery_rounds.count(), 3u);
  EXPECT_DOUBLE_EQ(folded.recovery_rounds.min(), 2.0);
  EXPECT_DOUBLE_EQ(folded.recovery_rounds.max(), 30.0);
}

core::EngineConfig engine_config(
    std::uint64_t seed, core::EngineKind kind = core::EngineKind::Fast) {
  core::EngineConfig cfg;
  cfg.variant = core::Variant::GlobalDelta;
  cfg.kind = kind;
  cfg.seed = seed;
  return cfg;
}

// ---------------------------------------------------------------------------
// Probe contract: each event pays for at most one probe, and the settlement
// checks run whenever a consumer will read them.

/// A scripted probe that counts its calls, and those asked to be settled.
struct CountingProbe {
  obs::InvariantProbeResult result;
  std::uint64_t calls = 0;
  std::uint64_t settled_calls = 0;

  obs::InvariantProbe bind() {
    return [this](bool claims_stabilized) {
      ++calls;
      settled_calls += claims_stabilized ? 1 : 0;
      return result;
    };
  }
};

/// The --monitor composition: monitor ahead of the tracker it notifies,
/// both over one probe.
struct MonitoredTracker {
  obs::InvariantMonitor mon{obs::InvariantConfig{0}};  // edges only
  obs::RecoveryTracker tracker{obs::RecoveryConfig{}};
  obs::TeeObserver tee;

  explicit MonitoredTracker(const obs::InvariantProbe& probe) {
    mon.set_probe(probe);
    tracker.set_probe(probe);
    mon.set_recovery_tracker(&tracker);
    tee.add(&mon);
    tee.add(&tracker);
  }
};

TEST(ProbeContract, StabilizationEdgeProbesOnceForMonitorAndTracker) {
  CountingProbe probe;
  probe.result.stabilized = true;
  MonitoredTracker stack(probe.bind());

  stack.tracker.on_fault(10, "corrupt-random", 3);
  stack.tee.on_round(make_event(11, 4));
  stack.tee.on_round(make_event(12, 0));

  EXPECT_EQ(probe.calls, 1u) << "the tracker must reuse the monitor's probe";
  EXPECT_EQ(probe.settled_calls, 1u);
  ASSERT_EQ(stack.tracker.epochs().size(), 1u);
  EXPECT_EQ(stack.tracker.epochs()[0].outcome,
            obs::RecoveryOutcome::Recovered);
}

TEST(ProbeContract, SharedResultStillClosesAsSafetyViolation) {
  CountingProbe probe;
  probe.result.stabilized = true;
  probe.result.independent = false;
  MonitoredTracker stack(probe.bind());

  // First epoch: the monitor latches independence and tells the tracker.
  stack.tracker.on_fault(10, "corrupt-random", 3);
  stack.tee.on_round(make_event(11, 4));
  stack.tee.on_round(make_event(12, 0));
  // Second epoch: independence is already latched, so no violation signal
  // arrives — only the shared result can condemn the epoch.
  stack.tracker.on_fault(20, "corrupt-random", 3);
  stack.tee.on_round(make_event(21, 4));
  stack.tee.on_round(make_event(22, 0));

  EXPECT_EQ(probe.calls, 2u);
  EXPECT_EQ(stack.mon.violations().size(), 1u);
  ASSERT_EQ(stack.tracker.epochs().size(), 2u);
  EXPECT_EQ(stack.tracker.epochs()[1].outcome,
            obs::RecoveryOutcome::SafetyViolation);
  EXPECT_EQ(stack.tracker.summary().invariant_violations, 1u);
}

TEST(ProbeContract, FaultAfterEdgeProbeForcesFreshProbeAtFinalize) {
  CountingProbe probe;
  probe.result.stabilized = true;
  MonitoredTracker stack(probe.bind());

  stack.tee.on_round(make_event(11, 4));
  stack.tee.on_round(make_event(12, 0));  // edge: probed and shared
  ASSERT_EQ(probe.calls, 1u);

  // A fault at the same round, absorbed without a single executed round —
  // but it broke maximality, which the edge probe could not have seen.
  stack.tracker.on_fault(12, "corrupt-nodes", 1);
  probe.result.maximal = false;
  stack.tracker.finalize(12);

  EXPECT_EQ(probe.calls, 2u);
  ASSERT_EQ(stack.tracker.epochs().size(), 1u);
  EXPECT_EQ(stack.tracker.epochs()[0].outcome,
            obs::RecoveryOutcome::SafetyViolation)
      << "a masked fault must never be judged from the pre-fault probe";
}

TEST(ProbeContract, ClaimedStabilizationIsCheckedEvenIfEngineDisagrees) {
  CountingProbe probe;
  probe.result.stabilized = false;
  probe.result.independent = false;
  obs::InvariantMonitor mon(obs::InvariantConfig{0});
  mon.set_probe(probe.bind());

  mon.on_round(make_event(5, 2));
  mon.on_round(make_event(6, 0));  // claims S_t = V; the engine does not

  EXPECT_EQ(probe.settled_calls, 1u) << "the claim must ask for settlement";
  ASSERT_EQ(mon.violations().size(), 1u);
  EXPECT_EQ(mon.violations()[0].kind, obs::InvariantKind::Independence);
}

TEST(ProbeContract, RealProbeRunsSettlementChecksOnlyWhenSettled) {
  support::Rng grng(95);
  const auto g = graph::make_erdos_renyi_avg_degree(160, 8.0, grng);
  auto engine =
      core::make_engine(g, engine_config(17));
  support::Rng init(4);
  for (graph::VertexId v = 0; v < g.vertex_count(); ++v)
    engine->corrupt(v, init);
  ASSERT_FALSE(engine->is_stabilized());
  const std::vector<bool> members = engine->mis_members();
  ASSERT_FALSE(mis::is_maximal(g, members));

  // Mid-convergence cadence probe: the O(n) level-range check only.
  const obs::InvariantProbeResult cadence =
      core::probe_invariants(*engine, false);
  EXPECT_FALSE(cadence.stabilized);
  EXPECT_TRUE(cadence.levels_in_range);
  EXPECT_TRUE(cadence.maximal) << "unchecked fields keep passing defaults";
  // The same state under a stabilization claim is judged in full.
  const obs::InvariantProbeResult claimed =
      core::probe_invariants(*engine, true);
  EXPECT_EQ(claimed.independent, mis::is_independent(g, members));
  EXPECT_FALSE(claimed.maximal);
}

TEST(ProbeContract, CappedVertexWithoutMemberNeighborIsNotMaximal) {
  // Path 0-1-2: 0 at the member level, 1 and 2 at their caps. 0 is a member
  // and dominates 1, but 2 is capped with no member neighbor.
  const auto g = graph::make_path(3);
  for (core::Variant variant :
       {core::Variant::GlobalDelta, core::Variant::TwoChannel}) {
    for (core::EngineKind kind :
         {core::EngineKind::Fast, core::EngineKind::Reference}) {
      core::EngineConfig cfg = engine_config(3);
      cfg.variant = variant;
      cfg.kind = kind;
      auto engine = core::make_engine(g, cfg);
      engine->set_level(0, engine->member_level(0));
      engine->set_level(1, engine->lmax(1));
      engine->set_level(2, engine->lmax(2));
      const obs::InvariantProbeResult r = core::probe_invariants(*engine, true);
      EXPECT_FALSE(r.stabilized) << engine->name();
      EXPECT_TRUE(r.levels_in_range) << engine->name();
      EXPECT_TRUE(r.independent) << engine->name();
      EXPECT_FALSE(r.maximal) << engine->name();
    }
  }
}

TEST(ProbeContract, SettlementChecksRunOncePerStabilizationEdge) {
  support::Rng grng(96);
  const auto g = graph::make_erdos_renyi_avg_degree(200, 8.0, grng);
  auto engine =
      core::make_engine(g, engine_config(19));
  const beep::Round budget = exp::default_round_budget(g.vertex_count());

  // Counts calls of the real probe that ran the settlement checks.
  std::uint64_t calls = 0, settled = 0;
  const obs::InvariantProbe real = core::make_invariant_probe(*engine);
  const obs::InvariantProbe counted = [&](bool claims_stabilized) {
    const obs::InvariantProbeResult r = real(claims_stabilized);
    ++calls;
    settled += (claims_stabilized || r.stabilized) ? 1 : 0;
    return r;
  };
  obs::InvariantMonitor mon(obs::InvariantConfig{4});
  obs::RecoveryTracker tracker(obs::RecoveryConfig{});
  mon.set_probe(counted);
  tracker.set_probe(counted);
  mon.set_recovery_tracker(&tracker);
  obs::TeeObserver tee;
  tee.add(&mon);
  tee.add(&tracker);
  engine->set_observer(&tee);

  support::Rng init(6);
  for (graph::VertexId v = 0; v < g.vertex_count(); ++v)
    engine->corrupt(v, init);
  engine->run_to_stabilization(budget);
  constexpr int kWaves = 3;
  support::Rng frng(0xfa19);
  for (int w = 0; w < kWaves; ++w) {
    core::corrupt_random(*engine, 60, frng, &tracker);
    engine->run_to_stabilization(budget);
  }
  tracker.finalize(engine->round());

  ASSERT_EQ(tracker.epochs().size(), static_cast<std::size_t>(kWaves));
  for (const obs::RecoveryEpoch& ep : tracker.epochs())
    ASSERT_EQ(ep.outcome, obs::RecoveryOutcome::Recovered);
  EXPECT_TRUE(mon.violations().empty());
  // First solve plus one per wave; every other probe was a cadence probe.
  EXPECT_EQ(settled, 1u + kWaves);
  EXPECT_GT(calls, settled);
}

// ---------------------------------------------------------------------------
// End-to-end against real engines.

TEST(RecoveryIntegration, CleanRunHasNoSpuriousViolations) {
  support::Rng grng(91);
  const auto g = graph::make_erdos_renyi_avg_degree(160, 8.0, grng);
  auto engine = core::make_engine(g, engine_config(7));

  obs::InvariantConfig icfg;
  icfg.cadence = 8;
  obs::InvariantMonitor mon(icfg);
  mon.set_probe(core::make_invariant_probe(*engine));
  engine->set_observer(&mon);

  support::Rng init(3);
  for (graph::VertexId v = 0; v < g.vertex_count(); ++v)
    engine->corrupt(v, init);  // adversarial but admissible start
  engine->run_to_stabilization(exp::default_round_budget(g.vertex_count()));
  ASSERT_TRUE(engine->is_stabilized());
  EXPECT_TRUE(mon.violations().empty())
      << "a correct execution must never trip the monitor";
  EXPECT_GT(mon.probe_count(), 0u);
}

TEST(RecoveryIntegration, CorruptionRecoversWithinPaperBound) {
  support::Rng grng(92);
  const auto g = graph::make_erdos_renyi_avg_degree(200, 8.0, grng);
  auto engine =
      core::make_engine(g, engine_config(11));
  const beep::Round budget = exp::default_round_budget(g.vertex_count());

  obs::RecoveryConfig rcfg;
  rcfg.recovery_bound = exp::default_recovery_bound(g.vertex_count());
  obs::RecoveryTracker tracker(rcfg);
  tracker.set_probe(core::make_invariant_probe(*engine));

  obs::InvariantConfig icfg;
  obs::InvariantMonitor mon(icfg);
  mon.set_probe(core::make_invariant_probe(*engine));
  mon.set_recovery_tracker(&tracker);

  obs::TeeObserver tee;
  tee.add(&mon);
  tee.add(&tracker);
  engine->set_observer(&tee);

  support::Rng init(5);
  for (graph::VertexId v = 0; v < g.vertex_count(); ++v)
    engine->corrupt(v, init);
  engine->run_to_stabilization(budget);
  ASSERT_TRUE(engine->is_stabilized());
  EXPECT_TRUE(tracker.epochs().empty());  // no fault yet, no epoch

  support::Rng frng(0xfa17);
  core::corrupt_random(*engine, 40, frng, &tracker);
  EXPECT_TRUE(tracker.epoch_open());
  engine->run_to_stabilization(budget);
  tracker.finalize(engine->round());

  ASSERT_TRUE(engine->is_stabilized());
  ASSERT_EQ(tracker.epochs().size(), 1u);
  const obs::RecoveryEpoch& ep = tracker.epochs()[0];
  EXPECT_EQ(ep.cause, "corrupt-random");
  EXPECT_EQ(ep.faults, 40u);
  EXPECT_EQ(ep.outcome, obs::RecoveryOutcome::Recovered)
      << "injected corruption must re-stabilize within the O(log n) bound";
  EXPECT_TRUE(mon.violations().empty());

  const obs::RecoverySummary s = tracker.summary();
  EXPECT_EQ(s.epochs, 1u);
  EXPECT_EQ(s.recovered, 1u);
  EXPECT_EQ(s.invariant_violations, 0u);
}

TEST(RecoveryIntegration, EmptyCorruptionIsMasked) {
  support::Rng grng(93);
  const auto g = graph::make_erdos_renyi_avg_degree(120, 8.0, grng);
  auto engine =
      core::make_engine(g, engine_config(13));
  obs::RecoveryTracker tracker(obs::RecoveryConfig{});
  tracker.set_probe(core::make_invariant_probe(*engine));
  engine->set_observer(&tracker);

  support::Rng init(5);
  for (graph::VertexId v = 0; v < g.vertex_count(); ++v)
    engine->corrupt(v, init);
  engine->run_to_stabilization(exp::default_round_budget(g.vertex_count()));
  ASSERT_TRUE(engine->is_stabilized());

  // Zero-node fault wave: the configuration is untouched, the engine stays
  // stabilized, run_to_stabilization executes no rounds — a masked epoch.
  support::Rng frng(1);
  core::corrupt_nodes(*engine, {}, frng, &tracker);
  engine->run_to_stabilization(16);
  tracker.finalize(engine->round());
  ASSERT_EQ(tracker.epochs().size(), 1u);
  EXPECT_EQ(tracker.epochs()[0].outcome, obs::RecoveryOutcome::Masked);
}

// ---------------------------------------------------------------------------
// Engine parity: the recovery artifact and the flight dump are functions of
// the stream-identical event sequence and the engine-independent settlement
// view, so the same seeded corrupted run must produce byte-identical bytes
// on the reference engine and at every shard count of the fast engine.

struct RunArtifacts {
  std::string recovery;
  std::string dump;
};

RunArtifacts run_corrupted(const graph::Graph& g, core::EngineKind kind,
                           std::size_t shard_threads = 1) {
  core::EngineConfig cfg = engine_config(77, kind);
  cfg.shard_threads = shard_threads;
  auto engine = core::make_engine(g, cfg);
  const beep::Round budget = exp::default_round_budget(g.vertex_count());

  obs::AnomalyConfig acfg;
  acfg.n = g.vertex_count();
  acfg.expected_rounds = budget;
  obs::FlightContext fctx;
  fctx.tool = "test";
  fctx.seed = 77;
  fctx.family = "er-avg8";
  fctx.n = g.vertex_count();
  fctx.m = g.edge_count();
  obs::FlightRecorder flight(32, acfg, fctx);
  flight.set_level_probe([&engine, &g]() {
    std::vector<std::int32_t> levels(g.vertex_count());
    for (graph::VertexId v = 0; v < g.vertex_count(); ++v)
      levels[v] = engine->level(v);
    return levels;
  });
  flight.set_snapshot_every(64);

  obs::RecoveryConfig rcfg;
  rcfg.recovery_bound = exp::default_recovery_bound(g.vertex_count());
  obs::RecoveryTracker tracker(rcfg);
  tracker.set_probe(core::make_invariant_probe(*engine));
  obs::InvariantMonitor mon(obs::InvariantConfig{});
  mon.set_probe(core::make_invariant_probe(*engine));
  mon.set_flight_recorder(&flight);
  mon.set_recovery_tracker(&tracker);

  obs::TeeObserver tee;
  tee.add(&flight);
  tee.add(&mon);
  tee.add(&tracker);
  engine->set_observer(&tee);

  support::Rng init(9);
  for (graph::VertexId v = 0; v < g.vertex_count(); ++v)
    engine->corrupt(v, init);
  engine->run_to_stabilization(budget);
  support::Rng frng(0xfa17);
  core::corrupt_random(*engine, 24, frng, &tracker);
  engine->run_to_stabilization(budget);
  support::Rng frng2(0xfa18);
  core::corrupt_random(*engine, 24, frng2, &tracker);
  engine->run_to_stabilization(budget);
  tracker.finalize(engine->round());

  obs::RecoveryReport report;
  report.context = fctx;
  report.config = rcfg;
  report.monitor = true;
  report.monitor_cadence = mon.config().cadence;
  report.epochs = tracker.epochs();
  report.violations = mon.violations();
  report.summary = tracker.summary();

  RunArtifacts out;
  std::ostringstream rec;
  obs::write_recovery_json(rec, report);
  out.recovery = rec.str();
  std::ostringstream dump;
  flight.write_dump(dump);
  out.dump = dump.str();
  return out;
}

TEST(RecoveryIntegration, EnginesProduceIdenticalArtifacts) {
  support::Rng grng(94);
  const auto g = graph::make_erdos_renyi_avg_degree(192, 8.0, grng);
  const auto reference = run_corrupted(g, core::EngineKind::Reference);
  for (std::size_t st : {std::size_t{1}, std::size_t{4}}) {
    const auto sharded = run_corrupted(g, core::EngineKind::Fast, st);
    EXPECT_EQ(reference.recovery, sharded.recovery) << "shard_threads " << st;
    EXPECT_EQ(reference.dump, sharded.dump) << "shard_threads " << st;
  }

  // And the artifact the engines agree on is a valid document.
  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::json_parse(reference.recovery, &doc, &error)) << error;
  ASSERT_TRUE(obs::recovery_validate(doc, &error)) << error;
  EXPECT_EQ(doc.get("epochs").array.size(), 2u);
}

// ---------------------------------------------------------------------------
// Artifact round-trip + validation.

obs::RecoveryReport sample_report() {
  obs::RecoveryReport report;
  report.context.tool = "test";
  report.context.seed = 1;
  report.context.family = "er-avg8";
  report.context.n = 16;
  report.context.m = 40;
  report.context.algorithm = "V1-global-delta";
  report.config.recovery_bound = 100;
  report.monitor = true;
  report.monitor_cadence = 64;

  obs::RecoveryTracker t(report.config);
  t.on_fault(10, "corrupt-random", 4);
  t.on_round(make_event(11, 6));
  t.on_round(make_event(25, 0));
  t.on_fault(30, "corrupt-all", 16);
  t.on_round(make_event(31, 5));
  t.on_round(make_event(38, 0));
  report.epochs = t.epochs();
  report.summary = t.summary();
  return report;
}

TEST(RecoveryArtifact, RoundTripsThroughParserAndValidator) {
  std::ostringstream os;
  obs::write_recovery_json(os, sample_report());

  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::json_parse(os.str(), &doc, &error)) << error;
  std::size_t epochs = 0, violations = 0;
  ASSERT_TRUE(obs::recovery_validate(doc, &error, &epochs, &violations))
      << error;
  EXPECT_EQ(epochs, 2u);
  EXPECT_EQ(violations, 0u);

  EXPECT_EQ(doc.get("schema").as_string(), "beepmis.recovery.v1");
  EXPECT_EQ(doc.get("context").get("graph").get("family").as_string(),
            "er-avg8");
  EXPECT_TRUE(doc.get("config").get("monitor").boolean);
  ASSERT_EQ(doc.get("epochs").array.size(), 2u);
  EXPECT_EQ(doc.get("epochs").array[0].get("outcome").as_string(),
            "recovered-within-bound");
  EXPECT_DOUBLE_EQ(doc.get("epochs").array[0].get("recovery_rounds")
                       .as_number(),
                   15.0);
  EXPECT_DOUBLE_EQ(doc.get("summary").get("recovered").as_number(), 2.0);
  EXPECT_DOUBLE_EQ(
      doc.get("summary").get("recovery_rounds").get("count").as_number(),
      2.0);
}

TEST(RecoveryArtifact, SummaryOnlyFoldedFormIsValid) {
  obs::RecoveryReport report = sample_report();
  report.epochs.clear();      // soak folds away the per-epoch list
  report.violations.clear();
  std::ostringstream os;
  obs::write_recovery_json(os, report);
  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::json_parse(os.str(), &doc, &error)) << error;
  std::size_t epochs = 0;
  ASSERT_TRUE(obs::recovery_validate(doc, &error, &epochs)) << error;
  EXPECT_EQ(epochs, 2u);  // the summary still carries the totals
}

TEST(RecoveryArtifact, ValidatorRejectsMalformedDocuments) {
  std::ostringstream os;
  obs::write_recovery_json(os, sample_report());
  const std::string good = os.str();

  const auto rejects = [&](const std::string& from, const std::string& to) {
    std::string bad = good;
    const auto pos = bad.find(from);
    ASSERT_NE(pos, std::string::npos) << from;
    bad.replace(pos, from.size(), to);
    obs::JsonValue doc;
    std::string error;
    ASSERT_TRUE(obs::json_parse(bad, &doc, &error)) << error;
    EXPECT_FALSE(obs::recovery_validate(doc, &error))
        << from << " -> " << to << " should be rejected";
  };

  rejects("beepmis.recovery.v1", "beepmis.recovery.v2");
  rejects("\"outcome\":\"recovered-within-bound\"",
          "\"outcome\":\"escaped\"");
  // Epoch arithmetic broken: recovery_rounds no longer end - onset.
  rejects("\"recovery_rounds\":15", "\"recovery_rounds\":14");
  // Outcome counts no longer sum to epochs.
  rejects("\"recovered\":2", "\"recovered\":1");
  rejects("\"monitor\":true", "\"monitor\":1");
}

// ---------------------------------------------------------------------------
// Report ingestion.

TEST(RecoveryReportIngest, RendersRecoveryTable) {
  std::ostringstream os;
  obs::write_recovery_json(os, sample_report());
  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::json_parse(os.str(), &doc, &error)) << error;

  obs::ReportBuilder builder;
  ASSERT_TRUE(builder.add_document(doc, "recovery.json", &error)) << error;
  ASSERT_TRUE(builder.add_document(doc, "recovery2.json", &error)) << error;

  std::ostringstream js;
  builder.write_json(js, 0.10);
  obs::JsonValue rdoc;
  ASSERT_TRUE(obs::json_parse(js.str(), &rdoc, &error)) << error;
  ASSERT_TRUE(rdoc.get("recovery").is_array());
  const auto& rows = rdoc.get("recovery").array;
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].get("algorithm").as_string(), "V1-global-delta");
  EXPECT_EQ(rows[0].get("family").as_string(), "er-avg8");
  EXPECT_EQ(rows[0].get("n").as_number(), 16.0);
  EXPECT_EQ(rows[0].get("epochs").as_number(), 4.0);  // two documents folded
  EXPECT_EQ(rows[0].get("recovered").as_number(), 4.0);
  // (15 + 8) / 2 per document
  EXPECT_DOUBLE_EQ(rows[0].get("mean").as_number(), 11.5);
  EXPECT_DOUBLE_EQ(rows[0].get("max").as_number(), 15.0);

  std::ostringstream md;
  builder.write_markdown(md, 0.10);
  EXPECT_NE(md.str().find("Recovery epochs"), std::string::npos);
  EXPECT_NE(md.str().find("| V1-global-delta | er-avg8 | 16 | 4 |"),
            std::string::npos)
      << md.str();
}

TEST(RecoveryReportIngest, RejectsInvalidRecoveryDocument) {
  obs::ReportBuilder builder;
  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::json_parse(
      R"({"schema": "beepmis.recovery.v1", "summary": {}})", &doc, &error));
  EXPECT_FALSE(builder.add_document(doc, "bad.json", &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace beepmis
