#include "src/exp/runner.hpp"

#include <algorithm>

#include "src/mis/verifier.hpp"
#include "src/obs/timing.hpp"
#include "src/support/check.hpp"

namespace beepmis::exp {

std::unique_ptr<beep::Simulation> make_selfstab_sim(const graph::Graph& g,
                                                    Variant variant,
                                                    std::uint64_t seed,
                                                    std::int32_t c1) {
  std::unique_ptr<beep::BeepingAlgorithm> algo;
  switch (variant) {
    case Variant::GlobalDelta:
      algo = std::make_unique<core::SelfStabMis>(
          g, core::lmax_global_delta(g, c1 ? c1 : core::kC1GlobalDelta),
          core::Knowledge::GlobalMaxDegree);
      break;
    case Variant::OwnDegree:
      algo = std::make_unique<core::SelfStabMis>(
          g, core::lmax_own_degree(g, c1 ? c1 : core::kC1OwnDegree),
          core::Knowledge::OwnDegree);
      break;
    case Variant::TwoChannel:
      algo = std::make_unique<core::SelfStabMisTwoChannel>(
          g, core::lmax_one_hop(g, c1 ? c1 : core::kC1TwoChannel),
          core::Knowledge::OneHopMaxDegree);
      break;
  }
  return std::make_unique<beep::Simulation>(g, std::move(algo), seed);
}

void apply_init(beep::Simulation& sim, core::InitPolicy policy,
                support::Rng& rng) {
  auto& base = sim.algorithm();
  if (auto* a1 = dynamic_cast<core::SelfStabMis*>(&base)) {
    core::apply_init(*a1, policy, rng);
  } else if (auto* a2 = dynamic_cast<core::SelfStabMisTwoChannel*>(&base)) {
    core::apply_init(*a2, policy, rng);
  } else {
    BEEPMIS_CHECK(false, "apply_init: not a self-stab MIS simulation");
  }
}

bool selfstab_stabilized(const beep::Simulation& sim) {
  const auto& base = sim.algorithm();
  if (auto* a1 = dynamic_cast<const core::SelfStabMis*>(&base))
    return a1->is_stabilized();
  if (auto* a2 = dynamic_cast<const core::SelfStabMisTwoChannel*>(&base))
    return a2->is_stabilized();
  BEEPMIS_CHECK(false, "not a self-stab MIS simulation");
  return false;
}

std::vector<bool> selfstab_mis_members(const beep::Simulation& sim) {
  const auto& base = sim.algorithm();
  if (auto* a1 = dynamic_cast<const core::SelfStabMis*>(&base))
    return a1->mis_members();
  if (auto* a2 = dynamic_cast<const core::SelfStabMisTwoChannel*>(&base))
    return a2->mis_members();
  BEEPMIS_CHECK(false, "not a self-stab MIS simulation");
  return {};
}

RunResult run_to_stabilization(beep::Simulation& sim, beep::Round max_rounds,
                               obs::MetricsRegistry* metrics) {
  RunResult r;
  {
    obs::ScopedTimer timer(metrics, "runner.run_to_stabilization");
    const beep::Round start = sim.round();
    const beep::Round budget = start + max_rounds;
    while (!selfstab_stabilized(sim) && sim.round() < budget) sim.step();

    r.stabilized = selfstab_stabilized(sim);
    r.rounds = sim.round() - start;
    const auto members = selfstab_mis_members(sim);
    r.mis_size = mis::member_count(members);
    r.valid_mis = mis::is_mis(sim.graph(), members);
  }
  if (metrics != nullptr) {
    metrics->counter("runner.runs_total").inc();
    metrics->counter("runner.rounds_total").inc(r.rounds);
    metrics->digest("runner.rounds_to_stabilize")
        .add(static_cast<double>(r.rounds));
    if (!r.stabilized) metrics->counter("runner.budget_exhausted").inc();
    if (!r.valid_mis) metrics->counter("runner.invalid_mis").inc();
  }
  return r;
}

RunResult run_to_stabilization(core::Engine& engine, beep::Round max_rounds,
                               obs::MetricsRegistry* metrics) {
  RunResult r;
  {
    obs::ScopedTimer timer(metrics, "runner.run_to_stabilization");
    r.rounds = engine.run_to_stabilization(max_rounds);
    r.stabilized = engine.is_stabilized();
    const auto members = engine.mis_members();
    r.mis_size = mis::member_count(members);
    r.valid_mis = mis::is_mis(engine.graph(), members);
  }
  if (metrics != nullptr) {
    metrics->counter("runner.runs_total").inc();
    metrics->counter("runner.rounds_total").inc(r.rounds);
    metrics->digest("runner.rounds_to_stabilize")
        .add(static_cast<double>(r.rounds));
    if (!r.stabilized) metrics->counter("runner.budget_exhausted").inc();
    if (!r.valid_mis) metrics->counter("runner.invalid_mis").inc();
  }
  return r;
}

RunResult run_variant(const graph::Graph& g, Variant variant,
                      core::InitPolicy init, std::uint64_t seed,
                      beep::Round max_rounds, std::int32_t c1,
                      obs::MetricsRegistry* metrics,
                      obs::RoundObserver* observer, core::EngineKind kind,
                      std::size_t shard_threads) {
  core::EngineConfig config;
  config.variant = variant;
  config.kind = kind;
  config.seed = seed;
  config.c1 = c1;
  config.shard_threads = shard_threads;
  auto engine = core::make_engine(g, config);
  engine->set_observer(observer);
  engine->set_metrics(metrics);
  // The init policy's randomness is keyed off the same seed but a distinct
  // stream, so (seed → run) stays a pure function.
  support::Rng init_rng = support::Rng(seed).derive_stream(0xfadedcafe);
  core::apply_init(*engine, init, init_rng);
  return run_to_stabilization(*engine, max_rounds, metrics);
}

beep::Round default_round_budget(std::size_t n) {
  std::size_t log2n = 1;
  while ((std::size_t{1} << log2n) < n) ++log2n;
  return 3000 + 400 * static_cast<beep::Round>(log2n);
}

beep::Round default_recovery_bound(std::size_t n) {
  // Same O(log n) w.h.p. horizon as the run budget: Thm 2.1/2.2 promise
  // re-stabilization from *any* configuration in O(log n) rounds, so a
  // recovery epoch that outlives the from-scratch budget is a stall by the
  // paper's own yardstick.
  return default_round_budget(n);
}

}  // namespace beepmis::exp
