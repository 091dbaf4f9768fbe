#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/beep/network.hpp"
#include "src/graph/graph.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/sink.hpp"
#include "src/obs/trace.hpp"
#include "src/support/rng.hpp"

namespace beepmis::obs {
class RecoveryTracker;  // see obs/recovery.hpp
}

namespace beepmis::core {

/// Which of the paper's three algorithm variants to run. Lives in core (the
/// engines dispatch on it); exp re-exports it as exp::Variant.
enum class Variant {
  GlobalDelta,  ///< Algorithm 1 + Thm 2.1 lmax policy
  OwnDegree,    ///< Algorithm 1 + Thm 2.2 lmax policy
  TwoChannel,   ///< Algorithm 2 + Cor 2.3 lmax policy
};

std::string variant_name(Variant v);

/// Executor selection for make_engine. Fast and Reference are proven
/// coin-for-coin identical under the same seed on noise-free configs
/// (test_fast_engine.cpp, test_engine.cpp), so Auto picks the fast path for
/// those and the reference path under receiver noise, which the fast
/// engine does not model.
enum class EngineKind {
  Auto,       ///< let the factory choose (Fast unless the config is noisy)
  Fast,       ///< O(active)-per-round settled-state engine; noise-free only
  Reference,  ///< beep::Simulation driving the textbook algorithm
};

std::string engine_kind_name(EngineKind k);
/// Returns false (leaving `out` untouched) on an unknown name.
bool parse_engine_kind(const std::string& name, EngineKind* out);

/// The sharded kernel's barrier-phased round, in execution order: its span
/// names and phase keys, defined next to the tracer that records the spans.
using obs::kShardPhaseCount;
using obs::kShardPhaseKeys;
using obs::kShardPhaseNames;

/// Cumulative phase telemetry of a sharded-kernel run, accumulated only over
/// instrumented rounds (config.phase_telemetry or a live tracing session).
/// Everything is a running total so samplers can diff two snapshots to get
/// exact per-window means without the kernel keeping any history:
/// per-round phase wall = phase_ms[i] / rounds, load imbalance over a window
/// = Δmax_busy_ms / (Δbusy_ms / shards), barrier-wait share
/// = barrier_wait_ms / (barrier_wait_ms + busy_ms). The work counters are
/// summed over shards and rounds. active_vertices, coin_beepers and
/// crosser_rows are functions of the trajectory alone, equal at every shard
/// count; settled_candidates is not deterministic even at a fixed shard
/// count, because a neighbor count that several shards push to can reach
/// zero more than once, depending on how the pushes interleave. The timings
/// are wall-clock, never deterministic.
struct ShardTelemetry {
  std::size_t shards = 0;     ///< shard == worker count of the private pool
  std::uint64_t rounds = 0;   ///< instrumented rounds folded into the totals
  std::array<double, kShardPhaseCount> phase_ms{};  ///< coordinator wall
  double busy_ms = 0.0;          ///< Σ rounds Σ shards task-body time
  double max_busy_ms = 0.0;      ///< Σ rounds max-shard task-body time
  double barrier_wait_ms = 0.0;  ///< Σ rounds Σ phases idle-at-barrier time
  std::uint64_t active_vertices = 0;     ///< pre-round |active|
  std::uint64_t coin_beepers = 0;        ///< coin-frontier beepers
  std::uint64_t crosser_rows = 0;        ///< boundary-crosser rows (dp+dc)
  std::uint64_t settled_candidates = 0;  ///< settle candidates harvested

  /// max/mean per-shard busy time over the accumulated rounds (1.0 =
  /// perfectly balanced); 0 when nothing was accumulated.
  double imbalance() const noexcept {
    return busy_ms > 0.0 && shards > 0
               ? max_busy_ms / (busy_ms / static_cast<double>(shards))
               : 0.0;
  }
};

/// Everything make_engine needs besides the graph. A run is a pure function
/// of (graph, config): the seed fixes per-node streams, noise draws, and —
/// via the caller's derived init/fault streams — the whole trajectory.
struct EngineConfig {
  Variant variant = Variant::GlobalDelta;
  EngineKind kind = EngineKind::Auto;
  std::uint64_t seed = 1;
  std::int32_t c1 = 0;  ///< lmax constant override (0 = paper default)
  beep::ChannelNoise noise = {};
  beep::Duplex duplex = beep::Duplex::Full;
  /// Worker threads for the fast engine's intra-round sharded execution:
  /// 1 = serial, one shard whose phases run inline; 0 = one per hardware
  /// thread. Results are bit-identical for every value
  /// — per-vertex state is written only by its owner shard and every
  /// cross-shard write is an OR or a sum (see docs/architecture.md,
  /// "Intra-round sharding").
  std::size_t shard_threads = 1;
  /// Collect ShardTelemetry every round even without a tracing session (the
  /// sharded kernel also collects whenever the tracer is live). Never changes
  /// a result — only clock reads and shard-owned tallies; the
  /// BM_EngineRunSharded_Telemetry bench pair holds the cost at <= 2%.
  bool phase_telemetry = false;
};

/// Uniform runtime interface over the self-stabilizing MIS executors: the
/// policy-templated fast engine and the reference beep::Simulation adapter.
/// Everything above core (exp::runner, exp::sweep, the CLI tools, the
/// benches) drives runs through this surface, so engine selection is a
/// config knob instead of a compile-time fork.
class Engine {
 public:
  virtual ~Engine() = default;

  /// Executor identity for manifests/logs, e.g. "fast-alg1".
  virtual std::string name() const = 0;
  /// Round-kernel identity for manifests/logs: "sharded" on the fast
  /// engine, "none" for executors without a kernel layer (reference).
  virtual std::string kernel_name() const { return "none"; }
  /// Vertex shards each round runs on: the round kernel's shard count
  /// (shard_threads clamped to the graph's size), else 1.
  virtual std::size_t shard_count() const noexcept { return 1; }
  virtual const graph::Graph& graph() const noexcept = 0;
  /// Rounds executed so far.
  virtual std::uint64_t round() const noexcept = 0;
  virtual std::int32_t level(graph::VertexId v) const = 0;
  virtual std::int32_t lmax(graph::VertexId v) const = 0;
  /// The level encoding MIS membership (-lmax(v) for Algorithm 1, 0 for
  /// Algorithm 2) — what initial-configuration policies need to plant
  /// members without knowing the variant.
  virtual std::int32_t member_level(graph::VertexId v) const = 0;
  /// Sets ℓ(v) (initial-configuration setup); checked against the variant's
  /// admissible range.
  virtual void set_level(graph::VertexId v, std::int32_t level) = 0;

  /// Executes one synchronous round.
  virtual void step() = 0;
  /// Runs until stabilization or `max_rounds` additional rounds; returns the
  /// number of rounds executed.
  virtual std::uint64_t run_to_stabilization(std::uint64_t max_rounds) = 0;
  /// True iff S_t = V (every vertex is an MIS member or dominated by one).
  virtual bool is_stabilized() const = 0;
  /// Current I_t.
  virtual std::vector<bool> mis_members() const = 0;
  /// Packs the level bits every verification reads, in one pass: bit
  /// v % 64 of word v / 64 of `capped` is ℓ(v) = lmax(v), of `candidate`
  /// is ℓ(v) = member_level(v). Both spans hold ⌈n/64⌉ words; bits past n
  /// are zero. Returns whether every ℓ(v) lies in the variant's admissible
  /// window [member_level(v), lmax(v)] — true at every round of a correct
  /// run.
  virtual bool pack_levels(std::span<std::uint64_t> capped,
                           std::span<std::uint64_t> candidate) const = 0;

  /// Overwrites v's RAM with an arbitrary in-range value drawn from `rng` —
  /// the paper's transient-fault model, mid-run. Draw-for-draw identical
  /// across engines.
  virtual void corrupt(graph::VertexId v, support::Rng& rng) = 0;

  /// Attaches a non-owning per-round observer (one obs::RoundEvent per
  /// step(), identical streams across engines). Use obs::TeeObserver to fan
  /// out to several. Null detaches where supported.
  virtual void set_observer(obs::RoundObserver* observer) = 0;
  /// Routes internal timers into `registry` (may be null to detach; a no-op
  /// for engines without internal instrumentation).
  virtual void set_metrics(obs::MetricsRegistry* registry) = 0;

  /// Snapshots the cumulative shard-phase telemetry. Returns false (leaving
  /// `out` untouched) on executors without a sharded kernel or when nothing
  /// was accumulated yet — callers degrade to round-only sampling.
  virtual bool shard_telemetry(ShardTelemetry* out) const {
    (void)out;
    return false;
  }
};

/// Builds the requested executor for `config.variant` on `g`. EngineKind::
/// Auto resolves to the fast engine for noise-free configs (faults and
/// duplex included) and to the reference engine when either noise rate is
/// nonzero. Aborts on EngineKind::Fast with noise and, through
/// beep::Simulation, on a noise rate outside [0, 1].
std::unique_ptr<Engine> make_engine(const graph::Graph& g,
                                    const EngineConfig& config);

/// Fault-injection helpers mirroring beep::FaultInjector draw-for-draw
/// (same Floyd k-subset selection, same per-node corruption draws), so
/// engine-routed runs reproduce Simulation-routed ones exactly. When
/// `recovery` is given, the injection is reported to it as a fault onset
/// (opening a recovery epoch at the current engine round); the RNG draw
/// sequence is identical with or without a tracker.
std::vector<graph::VertexId> corrupt_random(
    Engine& engine, std::size_t count, support::Rng& rng,
    obs::RecoveryTracker* recovery = nullptr);
void corrupt_nodes(Engine& engine, std::span<const graph::VertexId> nodes,
                   support::Rng& rng,
                   obs::RecoveryTracker* recovery = nullptr);
void corrupt_all(Engine& engine, support::Rng& rng,
                 obs::RecoveryTracker* recovery = nullptr);

}  // namespace beepmis::core
