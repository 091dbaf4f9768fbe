/// E11 — micro-benchmarks of the simulator and the algorithms: round
/// throughput (node·rounds/s), per-component costs (decide, feedback, OR
/// aggregation, stabilization detector), and graph construction. These are
/// engineering numbers for the simulator substrate, not paper claims.
///
/// Unlike the other benches this one has a custom main: every reported run
/// is also captured into an obs::MetricsRegistry and written as a
/// "beepmis.run.v1" document (default BENCH_micro.json, --bench-out=FILE),
/// so the numbers are machine-readable alongside the console table.

#include <benchmark/benchmark.h>

#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <ostream>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include "src/beep/network.hpp"
#include "src/core/engine.hpp"
#include "src/core/fast_engine.hpp"
#include "src/core/init.hpp"
#include "src/core/invariant.hpp"
#include "src/core/lmax.hpp"
#include "src/core/observers.hpp"
#include "src/core/selfstab_mis.hpp"
#include "src/core/selfstab_mis2.hpp"
#include "src/exp/families.hpp"
#include "src/exp/runner.hpp"
#include "src/exp/sweep.hpp"
#include "src/graph/generators.hpp"
#include "src/mis/verifier.hpp"
#include "src/obs/manifest.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/recovery.hpp"
#include "src/obs/session.hpp"
#include "src/obs/sink.hpp"
#include "src/obs/trace.hpp"
#include "src/support/task_pool.hpp"

namespace {

using namespace beepmis;

graph::Graph make_er(std::size_t n) {
  support::Rng rng(1);
  return graph::make_erdos_renyi_avg_degree(n, 8.0, rng);
}

void BM_SimulationRound_Algo1(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const graph::Graph g = make_er(n);
  auto algo = std::make_unique<core::SelfStabMis>(
      g, core::lmax_global_delta(g));
  auto* a = algo.get();
  beep::Simulation sim(g, std::move(algo), 3);
  support::Rng irng(5);
  core::apply_init(*a, core::InitPolicy::UniformRandom, irng);
  for (auto _ : state) sim.step();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SimulationRound_Algo1)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

void BM_SimulationRound_Algo2(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const graph::Graph g = make_er(n);
  auto algo = std::make_unique<core::SelfStabMisTwoChannel>(
      g, core::lmax_one_hop(g));
  auto* a = algo.get();
  beep::Simulation sim(g, std::move(algo), 3);
  support::Rng irng(5);
  core::apply_init(*a, core::InitPolicy::UniformRandom, irng);
  for (auto _ : state) sim.step();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SimulationRound_Algo2)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

void BM_StabilizationDetector(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const graph::Graph g = make_er(n);
  core::SelfStabMis a(g, core::lmax_global_delta(g));
  support::Rng irng(5);
  core::apply_init(a, core::InitPolicy::UniformRandom, irng);
  for (auto _ : state) benchmark::DoNotOptimize(a.is_stabilized());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_StabilizationDetector)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

void BM_AnalysisSnapshot(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const graph::Graph g = make_er(n);
  core::SelfStabMis a(g, core::lmax_global_delta(g));
  support::Rng irng(5);
  core::apply_init(a, core::InitPolicy::UniformRandom, irng);
  for (auto _ : state) benchmark::DoNotOptimize(core::analysis_snapshot(a));
}
BENCHMARK(BM_AnalysisSnapshot)->Arg(1 << 10)->Arg(1 << 14);

void BM_FullStabilizationRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const graph::Graph g = make_er(n);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    auto algo = std::make_unique<core::SelfStabMis>(
        g, core::lmax_global_delta(g));
    auto* a = algo.get();
    beep::Simulation sim(g, std::move(algo), ++seed);
    support::Rng irng(seed);
    core::apply_init(*a, core::InitPolicy::UniformRandom, irng);
    sim.run_until(
        [&](const beep::Simulation&) { return a->is_stabilized(); }, 100000);
    benchmark::DoNotOptimize(sim.round());
  }
}
BENCHMARK(BM_FullStabilizationRun)->Arg(1 << 10)->Arg(1 << 13);

void BM_FullStabilizationRun_FastEngine(benchmark::State& state) {
  // Same workload as BM_FullStabilizationRun, on the settled-set-skipping
  // engine (equivalence is proven in test_fast_engine.cpp; this measures
  // what the optimization buys).
  const auto n = static_cast<std::size_t>(state.range(0));
  const graph::Graph g = make_er(n);
  const auto lmax = core::lmax_global_delta(g);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    core::FastMisEngine fast(g, lmax, ++seed);
    support::Rng irng(seed);
    for (graph::VertexId v = 0; v < g.vertex_count(); ++v) {
      const auto span = static_cast<std::uint64_t>(2 * lmax[v] + 1);
      fast.set_level(v,
                     static_cast<std::int32_t>(irng.below(span)) - lmax[v]);
    }
    fast.run_to_stabilization(100000);
    benchmark::DoNotOptimize(fast.round());
  }
}
BENCHMARK(BM_FullStabilizationRun_FastEngine)->Arg(1 << 10)->Arg(1 << 13);

/// Fast-vs-reference pair per paper variant, both routed through the
/// core::make_engine factory exactly as exp::run_variant builds them —
/// measures what the fast path buys at the Engine-interface level (virtual
/// step dispatch and all), not just in a hand-rolled loop.
void BM_EngineRun(benchmark::State& state, core::Variant variant,
                  core::EngineKind kind,
                  core::KernelKind kernel = core::KernelKind::Auto) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const graph::Graph g = make_er(n);
  std::uint64_t seed = 0;
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    core::EngineConfig config;
    config.variant = variant;
    config.kind = kind;
    config.kernel = kernel;
    config.seed = ++seed;
    auto engine = core::make_engine(g, config);
    support::Rng irng = support::Rng(seed).derive_stream(0xfadedcafe);
    core::apply_init(*engine, core::InitPolicy::UniformRandom, irng);
    rounds += engine->run_to_stabilization(100000);
    benchmark::DoNotOptimize(engine->round());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(rounds) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK_CAPTURE(BM_EngineRun, v1_fast, core::Variant::GlobalDelta,
                  core::EngineKind::Fast)
    ->Arg(1 << 10);
BENCHMARK_CAPTURE(BM_EngineRun, v1_reference, core::Variant::GlobalDelta,
                  core::EngineKind::Reference)
    ->Arg(1 << 10);
BENCHMARK_CAPTURE(BM_EngineRun, v2_fast, core::Variant::OwnDegree,
                  core::EngineKind::Fast)
    ->Arg(1 << 10);
BENCHMARK_CAPTURE(BM_EngineRun, v2_reference, core::Variant::OwnDegree,
                  core::EngineKind::Reference)
    ->Arg(1 << 10);
BENCHMARK_CAPTURE(BM_EngineRun, v3_fast, core::Variant::TwoChannel,
                  core::EngineKind::Fast)
    ->Arg(1 << 10);
BENCHMARK_CAPTURE(BM_EngineRun, v3_reference, core::Variant::TwoChannel,
                  core::EngineKind::Reference)
    ->Arg(1 << 10);
// The oracle kernel on the same factory-built workload, so a scalar
// regression shows up at the Engine-interface level too (v1_fast above runs
// the Auto kernel, sharded).
BENCHMARK_CAPTURE(BM_EngineRun, v1_fast_scalar, core::Variant::GlobalDelta,
                  core::EngineKind::Fast, core::KernelKind::Scalar)
    ->Arg(1 << 10);

/// Swallows everything — lets the sink-overhead pair measure event
/// formatting without mixing in filesystem throughput.
class NullBuf final : public std::streambuf {
 protected:
  int overflow(int c) override { return c; }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    return n;
  }
};

/// Baseline for the telemetry-overhead claim: full fast-engine
/// stabilization runs at n ≈ 10k with no observer attached.
void BM_FastEngineRun_NoSink(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const graph::Graph g = make_er(n);
  const auto lmax = core::lmax_global_delta(g);
  std::uint64_t seed = 0;
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    core::FastMisEngine fast(g, lmax, ++seed);
    support::Rng irng(seed);
    for (graph::VertexId v = 0; v < g.vertex_count(); ++v) {
      const auto span = static_cast<std::uint64_t>(2 * lmax[v] + 1);
      fast.set_level(v,
                     static_cast<std::int32_t>(irng.below(span)) - lmax[v]);
    }
    rounds += fast.run_to_stabilization(100000);
    benchmark::DoNotOptimize(fast.round());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(rounds) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FastEngineRun_NoSink)->Arg(10240);

/// The kernel A/B anchor: the NoSink workload (n = 10240 Erdős–Rényi,
/// avg degree 8, uniform-random init, run to stabilization) pinned to one
/// round kernel. beepmis_report pairs each kernel against scalar — the
/// headline claim is ≥ 5× for the sharded kernel on this point.
void BM_FastEngineKernel(benchmark::State& state, core::KernelKind kernel) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const graph::Graph g = make_er(n);
  const auto lmax = core::lmax_global_delta(g);
  std::uint64_t seed = 0;
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    core::FastMisEngine fast(g, lmax, ++seed, beep::Duplex::Full, kernel);
    support::Rng irng(seed);
    for (graph::VertexId v = 0; v < g.vertex_count(); ++v) {
      const auto span = static_cast<std::uint64_t>(2 * lmax[v] + 1);
      fast.set_level(v,
                     static_cast<std::int32_t>(irng.below(span)) - lmax[v]);
    }
    rounds += fast.run_to_stabilization(100000);
    benchmark::DoNotOptimize(fast.round());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(rounds) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK_CAPTURE(BM_FastEngineKernel, scalar, core::KernelKind::Scalar)
    ->Arg(10240);
BENCHMARK_CAPTURE(BM_FastEngineKernel, sharded, core::KernelKind::Sharded)
    ->Arg(10240);

/// Intra-round sharding A/B at n = 10⁶ (Erdős–Rényi, avg degree 8): the
/// same stabilization run with the sharded kernel at 1/2/4/8 worker
/// threads; /1 is the serial run. The claim CI checks (real time,
/// core-count-aware): /8 vs /1 approaching the core count on machines that
/// have the cores. Built once — a 10⁶ graph takes seconds to generate, so
/// every arm shares one static instance.
constexpr std::size_t kShardBenchN = 1000000;

const graph::Graph& shard_bench_graph() {
  static const graph::Graph g = [] {
    support::Rng rng(1);
    return graph::make_erdos_renyi_avg_degree(kShardBenchN, 8.0, rng);
  }();
  return g;
}

const std::vector<std::int32_t>& shard_bench_lmax() {
  static const std::vector<std::int32_t> lmax =
      core::lmax_global_delta(shard_bench_graph());
  return lmax;
}

void run_shard_bench(benchmark::State& state, core::KernelKind kernel,
                     std::size_t shard_threads, bool phase_telemetry = false) {
  const graph::Graph& g = shard_bench_graph();
  const auto& lmax = shard_bench_lmax();
  std::uint64_t seed = 0;
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    core::FastMisEngine fast(g, lmax, ++seed, beep::Duplex::Full,
                             kernel, shard_threads, phase_telemetry);
    support::Rng irng(seed);
    for (graph::VertexId v = 0; v < g.vertex_count(); ++v) {
      const auto span = static_cast<std::uint64_t>(2 * lmax[v] + 1);
      fast.set_level(v,
                     static_cast<std::int32_t>(irng.below(span)) - lmax[v]);
    }
    rounds += fast.run_to_stabilization(100000);
    benchmark::DoNotOptimize(fast.round());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(rounds) *
                          static_cast<std::int64_t>(kShardBenchN));
}

void BM_EngineRunSharded(benchmark::State& state) {
  run_shard_bench(state, core::KernelKind::Sharded,
                  static_cast<std::size_t>(state.range(0)));
}
/// One iteration is a whole n=10⁶ run, so a single sample is at the mercy
/// of the scheduler: every arm repeats kShardBenchReps times and records
/// the median, with its spread beside it (see RecordingReporter).
constexpr int kShardBenchReps = 5;
BENCHMARK(BM_EngineRunSharded)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Repetitions(kShardBenchReps)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Telemetry-overhead A/B: the same sharded run with per-round
/// ShardTelemetry collection forced on (what EngineConfig::phase_telemetry
/// and a live tracer enable). CI gates this against the bare
/// BM_EngineRunSharded arm at the same thread count — the phase clocks and
/// per-shard tallies must stay within a few percent of free.
void BM_EngineRunSharded_Telemetry(benchmark::State& state) {
  run_shard_bench(state, core::KernelKind::Sharded,
                  static_cast<std::size_t>(state.range(0)),
                  /*phase_telemetry=*/true);
}
BENCHMARK(BM_EngineRunSharded_Telemetry)
    ->Arg(1)
    ->Arg(4)
    ->Repetitions(kShardBenchReps)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Fault-wave repair: one stabilized n = 2^17 Erdős–Rényi instance (avg
/// degree 8, sharded kernel, one shard) takes a 100-vertex corrupt_random
/// wave per iteration and re-stabilizes. The kernel patches its settlement
/// around each corrupted vertex, so an iteration costs work local to the
/// wave plus the recovery rounds — no O(n + m) rebuild.
void BM_FaultWave(benchmark::State& state) {
  constexpr std::size_t kN = std::size_t{1} << 17;
  const graph::Graph g = make_er(kN);
  core::FastMisEngine fast(g, core::lmax_global_delta(g), 1,
                           beep::Duplex::Full, core::KernelKind::Sharded, 1);
  support::Rng irng(1);
  core::apply_init(fast, core::InitPolicy::UniformRandom, irng);
  fast.run_to_stabilization(100000);
  support::Rng frng(2);
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    core::corrupt_random(fast, 100, frng);
    rounds += fast.run_to_stabilization(100000);
    benchmark::DoNotOptimize(fast.round());
  }
  state.counters["rounds_per_wave"] =
      static_cast<double>(rounds) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_FaultWave)
    ->Repetitions(5)
    ->Unit(benchmark::kMicrosecond);

/// Verifying a settled MIS from the levels: one stabilized n = 2^20
/// Erdős–Rényi instance (avg degree 8, sharded kernel, one shard). The
/// harness arm is what runners and the e2e bench do after a solve —
/// mis_members() plus mis::is_mis; the probe arm is one invariant probe
/// at a stabilization edge with no snapshot to patch: the level pack,
/// then I_t and its domination derived from the packed bits.
void BM_VerifySettled(benchmark::State& state, bool probe) {
  constexpr std::size_t kN = std::size_t{1} << 20;
  const graph::Graph g = make_er(kN);
  core::FastMisEngine fast(g, core::lmax_global_delta(g), 1,
                           beep::Duplex::Full, core::KernelKind::Sharded, 1);
  support::Rng irng(1);
  core::apply_init(fast, core::InitPolicy::UniformRandom, irng);
  fast.run_to_stabilization(100000);
  bool ok = true;
  for (auto _ : state) {
    if (probe) {
      const obs::InvariantProbeResult r = core::probe_invariants(fast, true);
      ok = ok && r.independent && r.maximal && r.levels_in_range;
    } else {
      ok = ok && mis::is_mis(g, fast.mis_members());
    }
    benchmark::DoNotOptimize(ok);
  }
  if (!ok) state.SkipWithError("settled configuration failed verification");
}
BENCHMARK_CAPTURE(BM_VerifySettled, harness, false)
    ->Repetitions(5)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_VerifySettled, probe, true)
    ->Repetitions(5)
    ->Unit(benchmark::kMillisecond);

/// Verifying after a fault wave: the BM_VerifySettled instance takes a
/// corrupt_random(1000) wave per iteration and re-stabilizes (untimed),
/// then one settled probe is timed. The fresh arm is the stateless full
/// check; the incremental arm is one long-lived make_invariant_probe,
/// whose snapshot from the previous wave leaves only the O(n) level pack
/// and the rows around the touched vertices.
void BM_VerifyAfterWave(benchmark::State& state, bool incremental) {
  constexpr std::size_t kN = std::size_t{1} << 20;
  const graph::Graph g = make_er(kN);
  core::FastMisEngine fast(g, core::lmax_global_delta(g), 1,
                           beep::Duplex::Full, core::KernelKind::Sharded, 1);
  support::Rng irng(1);
  core::apply_init(fast, core::InitPolicy::UniformRandom, irng);
  fast.run_to_stabilization(100000);
  const obs::InvariantProbe probe = core::make_invariant_probe(fast);
  bool ok = probe(true).maximal;
  support::Rng frng(2);
  for (auto _ : state) {
    state.PauseTiming();
    core::corrupt_random(fast, 1000, frng);
    fast.run_to_stabilization(100000);
    state.ResumeTiming();
    const obs::InvariantProbeResult r =
        incremental ? probe(true) : core::probe_invariants(fast, true);
    ok = ok && r.independent && r.maximal && r.levels_in_range;
    benchmark::DoNotOptimize(ok);
  }
  if (!ok) state.SkipWithError("re-stabilized configuration failed a probe");
}
BENCHMARK_CAPTURE(BM_VerifyAfterWave, fresh, false)
    ->Repetitions(5)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_VerifyAfterWave, incremental, true)
    ->Repetitions(5)
    ->Unit(benchmark::kMillisecond);

/// Same workload with a JsonlSink (analysis off) attached — the ratio of
/// this to BM_FastEngineRun_NoSink is the sink's wall-clock overhead.
void BM_FastEngineRun_JsonlSink(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const graph::Graph g = make_er(n);
  const auto lmax = core::lmax_global_delta(g);
  NullBuf nullbuf;
  std::ostream devnull(&nullbuf);
  std::uint64_t seed = 0;
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    core::FastMisEngine fast(g, lmax, ++seed);
    obs::JsonlSink sink(devnull, /*with_analysis=*/false);
    fast.set_observer(&sink);
    support::Rng irng(seed);
    for (graph::VertexId v = 0; v < g.vertex_count(); ++v) {
      const auto span = static_cast<std::uint64_t>(2 * lmax[v] + 1);
      fast.set_level(v,
                     static_cast<std::int32_t>(irng.below(span)) - lmax[v]);
    }
    rounds += fast.run_to_stabilization(100000);
    benchmark::DoNotOptimize(fast.round());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(rounds) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FastEngineRun_JsonlSink)->Arg(10240);

/// Same workload with a MetricsRegistry attached (set_metrics), so every
/// settlement refresh feeds both the TimerStat and the streaming quantile
/// digest — the ratio of this to BM_FastEngineRun_NoSink is the digest
/// path's wall-clock overhead (budgeted at ≤ 2%).
void BM_FastEngineRun_Digest(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const graph::Graph g = make_er(n);
  const auto lmax = core::lmax_global_delta(g);
  std::uint64_t seed = 0;
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    core::FastMisEngine fast(g, lmax, ++seed);
    obs::MetricsRegistry metrics;
    fast.set_metrics(&metrics);
    support::Rng irng(seed);
    for (graph::VertexId v = 0; v < g.vertex_count(); ++v) {
      const auto span = static_cast<std::uint64_t>(2 * lmax[v] + 1);
      fast.set_level(v,
                     static_cast<std::int32_t>(irng.below(span)) - lmax[v]);
    }
    rounds += fast.run_to_stabilization(100000);
    benchmark::DoNotOptimize(fast.round());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(rounds) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FastEngineRun_Digest)->Arg(10240);

/// Swallows the event stream — the observed-run baseline. An observed
/// round takes the same kernel path as a bare one (on AVX-512 hosts the
/// dense sweeps count the event census from their lane masks), so the
/// ratio of this to NoSink is the cost of *having* an observer — event
/// assembly — and the cost of each specific observer is measured against
/// this.
class NullObserver final : public obs::RoundObserver {
 public:
  void on_round(const obs::RoundEvent& event) override {
    benchmark::DoNotOptimize(event.round);
  }
};

/// The observed-run baseline: the NoSink workload with a do-nothing
/// observer attached.
void BM_FastEngineRun_Observer(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const graph::Graph g = make_er(n);
  const auto lmax = core::lmax_global_delta(g);
  std::uint64_t seed = 0;
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    core::FastMisEngine fast(g, lmax, ++seed);
    NullObserver null;
    fast.set_observer(&null);
    support::Rng irng(seed);
    for (graph::VertexId v = 0; v < g.vertex_count(); ++v) {
      const auto span = static_cast<std::uint64_t>(2 * lmax[v] + 1);
      fast.set_level(v,
                     static_cast<std::int32_t>(irng.below(span)) - lmax[v]);
    }
    rounds += fast.run_to_stabilization(100000);
    benchmark::DoNotOptimize(fast.round());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(rounds) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FastEngineRun_Observer)->Arg(10240);

/// Same workload with the online invariant monitor attached at the default
/// cadence (level-range probe every 64 rounds, independence/maximality at
/// stabilization edges) plus a recovery tracker, built through the
/// obs::ObserverStack beepmis_cli --monitor arms. The ratio of this to
/// BM_FastEngineRun_Observer is the monitor's own wall-clock overhead: an
/// O(n) level-range probe per cadence window plus one O(n + m) settlement
/// check per stabilization edge, shared by the monitor and the tracker.
/// The ratio to BM_FastEngineRun_NoSink is what a monitored run costs over
/// a bare one; CI gates it at ≤ 1.35.
void BM_FastEngineRun_Monitor(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const graph::Graph g = make_er(n);
  const auto lmax = core::lmax_global_delta(g);
  obs::ObserverOptions monitored;
  monitored.monitor = true;
  monitored.recovery.recovery_bound = exp::default_recovery_bound(n);
  std::uint64_t seed = 0;
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    core::FastMisEngine fast(g, lmax, ++seed);
    obs::ObserverStack stack(monitored, obs::FlightContext{}, nullptr,
                             core::make_invariant_probe(fast));
    fast.set_observer(&stack.tee());
    support::Rng irng(seed);
    for (graph::VertexId v = 0; v < g.vertex_count(); ++v) {
      const auto span = static_cast<std::uint64_t>(2 * lmax[v] + 1);
      fast.set_level(v,
                     static_cast<std::int32_t>(irng.below(span)) - lmax[v]);
    }
    rounds += fast.run_to_stabilization(100000);
    stack.finalize(fast.round());
    benchmark::DoNotOptimize(fast.round());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(rounds) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FastEngineRun_Monitor)->Arg(10240);

/// Same workload with a live tracing session (ring capacity 64k, counter
/// tracks every 16 rounds) — the ratio of this to BM_FastEngineRun_NoSink
/// is the tracer's wall-clock overhead (budgeted at ≤ 2%). The engine's
/// per-round span plus the sampled counter emissions are the hot path
/// being measured; the export is outside the timed loop.
void BM_FastEngineRun_Tracer(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const graph::Graph g = make_er(n);
  const auto lmax = core::lmax_global_delta(g);
  obs::Tracer::instance().enable(/*capacity_per_thread=*/65536,
                                 /*counter_every=*/16);
  std::uint64_t seed = 0;
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    core::FastMisEngine fast(g, lmax, ++seed);
    support::Rng irng(seed);
    for (graph::VertexId v = 0; v < g.vertex_count(); ++v) {
      const auto span = static_cast<std::uint64_t>(2 * lmax[v] + 1);
      fast.set_level(v,
                     static_cast<std::int32_t>(irng.below(span)) - lmax[v]);
    }
    rounds += fast.run_to_stabilization(100000);
    benchmark::DoNotOptimize(fast.round());
  }
  obs::Tracer::instance().disable();
  state.SetItemsProcessed(static_cast<std::int64_t>(rounds) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FastEngineRun_Tracer)->Arg(10240);

/// Pre-pool baseline for the sweep-parallelization claim: the exact serial
/// replica loop run_scaling_sweep used before the worker pool existed —
/// direct run_variant calls against one shared registry, no task dispatch,
/// no scratch registries, no merge. BM_SweepParallel/1 against this is the
/// pool's overhead A/B (budgeted at ≤ 2%); BM_SweepParallel/8 against
/// BM_SweepParallel/1 is the speedup claim (≥ 3× on an 8-way machine).
constexpr std::size_t kSweepBenchN = 4096;
constexpr std::size_t kSweepBenchSeeds = 32;

void BM_SweepSerial(benchmark::State& state) {
  obs::MetricsRegistry metrics;
  std::uint64_t runs = 0;
  for (auto _ : state) {
    for (std::size_t s = 0; s < kSweepBenchSeeds; ++s) {
      const std::uint64_t seed = exp::sweep_seed(
          99, exp::Family::ErdosRenyiAvg8, kSweepBenchN, s);
      support::Rng graph_rng = support::Rng(seed).derive_stream(0x6ea9);
      const graph::Graph g =
          exp::make_family(exp::Family::ErdosRenyiAvg8, kSweepBenchN,
                           graph_rng);
      const auto r = exp::run_variant(
          g, core::Variant::GlobalDelta, core::InitPolicy::UniformRandom,
          seed, exp::default_round_budget(kSweepBenchN), 0, &metrics,
          nullptr, core::EngineKind::Fast);
      benchmark::DoNotOptimize(r.rounds);
      ++runs;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(runs));
}
BENCHMARK(BM_SweepSerial)->UseRealTime()->Unit(benchmark::kMillisecond);

/// The same workload through run_scaling_sweep's worker pool at 1/2/4/8
/// threads. Real time (not CPU) is the honest axis: the point of the pool
/// is wall-clock, and CPU time only grows with thread count.
void BM_SweepParallel(benchmark::State& state) {
  obs::MetricsRegistry metrics;
  exp::SweepConfig cfg;
  cfg.variant = core::Variant::GlobalDelta;
  cfg.init = core::InitPolicy::UniformRandom;
  cfg.sizes = {kSweepBenchN};
  cfg.seeds = kSweepBenchSeeds;
  cfg.base_seed = 99;
  cfg.engine = core::EngineKind::Fast;
  cfg.metrics = &metrics;
  cfg.threads = static_cast<std::size_t>(state.range(0));
  std::uint64_t runs = 0;
  for (auto _ : state) {
    const auto points =
        exp::run_scaling_sweep(exp::Family::ErdosRenyiAvg8, cfg);
    benchmark::DoNotOptimize(points.front().rounds.count());
    runs += kSweepBenchSeeds;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(runs));
}
BENCHMARK(BM_SweepParallel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_GraphGeneration_ER(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  support::Rng rng(2);
  for (auto _ : state)
    benchmark::DoNotOptimize(graph::make_erdos_renyi_avg_degree(n, 8.0, rng));
}
BENCHMARK(BM_GraphGeneration_ER)->Arg(1 << 12)->Arg(1 << 16);

void BM_RngBernoulliPow2(benchmark::State& state) {
  support::Rng rng(3);
  unsigned k = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.bernoulli_pow2(k));
    k = k % 20 + 1;
  }
}
BENCHMARK(BM_RngBernoulliPow2);

/// Console output as usual, plus every benchmark captured as gauges for
/// the machine-readable dump: "<name>.real_ns", ".cpu_ns", ".iterations",
/// and one ".<counter>" gauge per user counter (items_per_second and any
/// the benchmark sets). A benchmark run with
/// Repetitions() is recorded by its median aggregate under the same names,
/// plus ".real_ns_stddev" (the spread of its repetitions) and
/// ".repetitions"; ".iterations" is then the count per repetition.
class RecordingReporter final : public benchmark::ConsoleReporter {
 public:
  explicit RecordingReporter(obs::MetricsRegistry& metrics)
      : metrics_(&metrics) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      // Without its "repeats:N" part, so that repeating a benchmark keeps
      // the gauge names CI and beepmis_report read.
      benchmark::BenchmarkName bench = run.run_name;
      bench.repetitions.clear();
      const std::string name = bench.str();
      // Adjusted times come in the benchmark's own Unit(); rescale to ns.
      const double to_ns =
          1e9 / benchmark::GetTimeUnitMultiplier(run.time_unit);
      if (run.run_type == Run::RT_Aggregate) {
        if (run.aggregate_name == "median")
          record(name, run, to_ns);
        else if (run.aggregate_name == "stddev")
          metrics_->gauge(name + ".real_ns_stddev")
              .set(run.GetAdjustedRealTime() * to_ns);
        continue;
      }
      metrics_->gauge(name + ".iterations")
          .set(static_cast<double>(run.iterations));
      if (run.repetitions > 1)
        metrics_->gauge(name + ".repetitions")
            .set(static_cast<double>(run.repetitions));
      else
        record(name, run, to_ns);
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  void record(const std::string& name, const Run& run, double to_ns) {
    metrics_->gauge(name + ".real_ns").set(run.GetAdjustedRealTime() * to_ns);
    metrics_->gauge(name + ".cpu_ns").set(run.GetAdjustedCPUTime() * to_ns);
    for (const auto& [cname, counter] : run.counters)
      metrics_->gauge(name + "." + cname).set(counter);
  }

  obs::MetricsRegistry* metrics_;
};

}  // namespace

int main(int argc, char** argv) {
  // Our one extra flag is stripped before google-benchmark sees the args.
  std::string bench_out = "BENCH_micro.json";
  std::vector<char*> passthrough;
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (constexpr std::string_view kFlag = "--bench-out=";
        arg.rfind(kFlag, 0) == 0) {
      bench_out = std::string(arg.substr(kFlag.size()));
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  int pargc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pargc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pargc, passthrough.data()))
    return 1;

  const auto wall_start = std::chrono::steady_clock::now();
  beepmis::obs::MetricsRegistry metrics;
  RecordingReporter reporter(metrics);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (!bench_out.empty()) {
    beepmis::obs::RunManifest man;
    man.tool = "bench_e11_micro";
    man.graph_name = "er-avg8 (per-benchmark sizes)";
    man.family = "er-avg8";
    man.algorithm = "micro-benchmarks";
    man.wall_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - wall_start)
                      .count();
    std::ofstream out(bench_out);
    if (!out) {
      std::cerr << "cannot open " << bench_out << "\n";
      return 1;
    }
    beepmis::obs::write_run_json(out, man, &metrics);
    std::cout << "wrote " << bench_out << "\n";
  }
  return 0;
}
