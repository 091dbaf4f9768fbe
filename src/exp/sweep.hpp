#pragma once

#include <cstdint>
#include <vector>

#include "src/exp/families.hpp"
#include "src/exp/runner.hpp"
#include "src/obs/digest.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/sink.hpp"
#include "src/support/fit.hpp"
#include "src/support/table.hpp"
#include "src/support/task_pool.hpp"

namespace beepmis::exp {

/// Aggregated stabilization-time measurements at one (family, n) point.
/// `rounds` is a streaming obs::Digest: exact at the default seed counts
/// (≤ Digest::kExact samples) and fixed-memory for arbitrarily long sweeps;
/// support::SampleSet remains the exact oracle used by the tests.
struct SweepPoint {
  Family family;
  std::size_t n = 0;            ///< actual vertex count of the instance
  obs::Digest rounds;           ///< stabilization rounds across seeds
  std::size_t failures = 0;     ///< runs that did not stabilize in budget
  std::size_t invalid = 0;      ///< runs whose final set was not a valid MIS
};

/// Configuration of a scaling sweep T(n).
struct SweepConfig {
  Variant variant = Variant::GlobalDelta;
  core::InitPolicy init = core::InitPolicy::UniformRandom;
  std::vector<std::size_t> sizes;   ///< n values
  std::size_t seeds = 20;           ///< runs per (family, n)
  std::uint64_t base_seed = 1;
  std::int32_t c1 = 0;              ///< 0 = paper default for the variant
  /// Executor selection, routed through core::make_engine. Auto resolves to
  /// the fast engine for every variant and init policy (proven
  /// round-identical to the reference simulator; see test_fast_engine.cpp),
  /// so sweeps never fall back to the slow path; Reference exists for
  /// cross-checks.
  core::EngineKind engine = core::EngineKind::Auto;
  /// Round-kernel selection for the fast engine (scalar / sharded, both
  /// stream-identical — Auto resolves to sharded). Purely a wall-clock
  /// knob: sweep results never depend on it.
  core::KernelKind kernel = core::KernelKind::Auto;
  /// Optional telemetry: per-run wall time ("sweep.run" timer), the
  /// "sweep.rounds_to_stabilize" quantile digest and sweep.* counters land
  /// here; the fast engines also route their internal timers and
  /// settlement-refresh digests into it.
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional per-round event observer, attached to every run regardless of
  /// the engine (simulation or fast path). One obs::RoundEvent per round.
  /// Under parallelism each replica buffers its events privately and the
  /// coordinator replays them here in ascending (size, seed) order, so the
  /// observer only ever runs on the calling thread and sees the exact
  /// stream a serial sweep would produce.
  obs::RoundObserver* observer = nullptr;
  /// Worker threads for replica-level parallelism (every (n, seed) replica
  /// is an independent task): 1 = run inline on the calling thread,
  /// 0 = one worker per hardware thread. Results — tables, SweepPoint
  /// digests, merged metrics (modulo wall-clock timer values), observer
  /// streams — are bit-identical for every value; see docs/architecture.md.
  std::size_t threads = 1;
  /// Worker threads *inside* each replica's rounds (the fast engine's
  /// sharded kernel; see core::EngineConfig::shard_threads). Orthogonal to
  /// `threads`: replica-level parallelism scales across runs, sharding
  /// scales one giant instance. Results are bit-identical for every value.
  std::size_t shard_threads = 1;
};

/// Master seed of the (family, n, s) replica: a splitmix64 sponge folding
/// each coordinate through a full avalanche, so distinct sweep points never
/// collide (the previous affine formula collided for adjacent n whenever s
/// spanned more than 1009 seeds). Graph draw, per-node streams and the init
/// draw all derive from this one value; the derivation is pinned by a
/// golden test (tests/test_sweep_parallel.cpp) because stored artifacts
/// reference it.
std::uint64_t sweep_seed(std::uint64_t base_seed, Family family,
                         std::size_t n, std::size_t s);

/// Runs the sweep for one family. Each run gets an independent seed; the
/// graph instance is redrawn per seed for randomized families. Replicas
/// execute through a support::TaskPool of config.threads workers; all
/// aggregation (SweepPoint digests, metrics merge, observer replay) happens
/// on the calling thread in ascending (size, seed) order — P² digests are
/// order-sensitive, so folding stays with the coordinator by design.
std::vector<SweepPoint> run_scaling_sweep(Family family,
                                          const SweepConfig& config);

/// Renders sweep points as a table: n, mean, median, p95, max, failures.
support::Table sweep_table(const std::vector<SweepPoint>& points);

/// Extracts (n, median rounds) pairs and ranks growth models by R².
std::vector<std::pair<support::GrowthModel, support::FitResult>>
rank_sweep_growth(const std::vector<SweepPoint>& points);

/// Standard size ladder 2^lo .. 2^hi.
std::vector<std::size_t> pow2_sizes(unsigned lo, unsigned hi);

}  // namespace beepmis::exp
