#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "src/beep/network.hpp"
#include "src/core/engine.hpp"
#include "src/core/init.hpp"
#include "src/core/lmax.hpp"
#include "src/core/selfstab_mis.hpp"
#include "src/core/selfstab_mis2.hpp"
#include "src/graph/graph.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/sink.hpp"

namespace beepmis::exp {

/// Which of the paper's three algorithm variants to run. The enum lives in
/// core (the engine factory dispatches on it); re-exported here because the
/// whole experiment layer spells it exp::Variant.
using Variant = core::Variant;
using core::variant_name;

/// Outcome of one run-to-stabilization.
struct RunResult {
  bool stabilized = false;   ///< reached S_t = V within the round budget
  beep::Round rounds = 0;    ///< rounds until stabilization (or budget)
  std::size_t mis_size = 0;  ///< |I_t| at stop
  bool valid_mis = false;    ///< verifier-confirmed MIS at stop
};

/// Builds a simulation of the requested variant on `g`, with the
/// paper-default constant c1 for the variant if `c1` is 0.
std::unique_ptr<beep::Simulation> make_selfstab_sim(const graph::Graph& g,
                                                    Variant variant,
                                                    std::uint64_t seed,
                                                    std::int32_t c1 = 0);

/// Applies an initial-configuration policy to a simulation built by
/// make_selfstab_sim (dispatches on the concrete algorithm type).
void apply_init(beep::Simulation& sim, core::InitPolicy policy,
                support::Rng& rng);

/// True iff the simulation's algorithm reports S_t = V (dispatches on type).
bool selfstab_stabilized(const beep::Simulation& sim);

/// Current I_t of the simulation's algorithm.
std::vector<bool> selfstab_mis_members(const beep::Simulation& sim);

/// Runs until stabilization or `max_rounds`, verifying the final MIS.
/// Counts rounds from the simulation's *current* round, so it also measures
/// re-stabilization after mid-run fault injection. When `metrics` is given,
/// the run is timed ("runner.run_to_stabilization") and its outcome lands in
/// the runner.* counters and the "runner.rounds_to_stabilize" digest.
RunResult run_to_stabilization(beep::Simulation& sim, beep::Round max_rounds,
                               obs::MetricsRegistry* metrics = nullptr);

/// Engine-interface counterpart: same timer, counters and verification for
/// a run driven through core::Engine (fast or reference).
RunResult run_to_stabilization(core::Engine& engine, beep::Round max_rounds,
                               obs::MetricsRegistry* metrics = nullptr);

/// One-shot: build, initialize, run. The workhorse of the sweeps. Routed
/// through core::make_engine — `kind` selects the executor and `kernel` the
/// fast engine's round kernel (Auto = fast / sharded; results are engine-
/// and kernel-independent because all executors are stream-identical under
/// the same seed). `observer`, if given, receives one obs::RoundEvent per
/// round.
/// `shard_threads` sizes the fast engine's intra-round sharded pool (see
/// core::EngineConfig::shard_threads); 1 keeps the round serial.
RunResult run_variant(const graph::Graph& g, Variant variant,
                      core::InitPolicy init, std::uint64_t seed,
                      beep::Round max_rounds, std::int32_t c1 = 0,
                      obs::MetricsRegistry* metrics = nullptr,
                      obs::RoundObserver* observer = nullptr,
                      core::EngineKind kind = core::EngineKind::Auto,
                      core::KernelKind kernel = core::KernelKind::Auto,
                      std::size_t shard_threads = 1);

/// A generous default budget: stabilization is Θ(log n), so this failing
/// indicates a real bug rather than bad luck.
beep::Round default_round_budget(std::size_t n);

/// Default classification bound for recovery epochs (obs::RecoveryConfig::
/// recovery_bound): re-stabilization after a fault within this many rounds
/// counts as recovered-within-bound, later is a stall. Currently equal to
/// default_round_budget — the theorems make no distinction between
/// from-scratch and post-fault convergence.
beep::Round default_recovery_bound(std::size_t n);

}  // namespace beepmis::exp
