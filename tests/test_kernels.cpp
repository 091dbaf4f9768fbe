#include "src/core/round_kernel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <vector>

#include "src/core/engine.hpp"
#include "src/core/fast_engine.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/graph.hpp"
#include "src/support/task_pool.hpp"

namespace beepmis::core {
namespace {

// The kernel contract: Scalar (the oracle) and Sharded produce the same
// level vector, the same settlement, the same MIS and the same RoundEvent
// stream, round for round, from any starting configuration, under full and
// half duplex, across mid-run corruption — at EVERY shard count. The worker
// count only changes who computes each word, never what is computed: coins
// are pure functions of (seed, node, round), every per-vertex write is
// shard-owned, and the only cross-shard writes — row pushes into heard
// words, neighbor counts and member-neighbor words — are ORs and sums.
//
// Every case runs twice: observed (an EventLog on both engines, so each
// event is compared) and unobserved. Both take the sharded kernel's dense
// AVX-512 sweeps (kernel_simd.hpp) on hosts that have them: the unobserved
// run proves the sweeps' levels and settlement bit-identical, the observed
// run also proves the census the update sweep counts from its lane masks.
// Elsewhere both runs check the indexed loops.

/// Captures the engine's per-round event stream for exact comparison.
struct EventLog final : obs::RoundObserver {
  std::vector<obs::RoundEvent> events;
  void on_round(const obs::RoundEvent& event) override {
    events.push_back(event);
  }
};

template <typename Policy>
struct Duo {
  FastEngine<Policy> scalar;
  FastEngine<Policy> sharded;
  EventLog scalar_log;
  EventLog sharded_log;
  bool observed;

  Duo(const graph::Graph& g, const LmaxVector& lmax, std::uint64_t seed,
      std::size_t shard_threads, bool observed_, beep::Duplex duplex)
      : scalar(g, lmax, seed, {}, duplex, KernelKind::Scalar),
        sharded(g, lmax, seed, {}, duplex, KernelKind::Sharded,
                shard_threads),
        observed(observed_) {
    if (observed) {
      scalar.set_observer(&scalar_log);
      sharded.set_observer(&sharded_log);
    }
  }

  // Identical adversarial starting levels on both engines: the scalar
  // engine corrupts from a seeded stream, the sharded one copies its levels.
  void corrupt_init(std::uint64_t seed) {
    support::Rng c(seed);
    const std::size_t n = scalar.graph().vertex_count();
    for (graph::VertexId v = 0; v < n; ++v) scalar.corrupt(v, c);
    for (graph::VertexId v = 0; v < n; ++v)
      sharded.set_level(v, scalar.level(v));
  }

  void run_lockstep(int rounds, const std::vector<int>& corrupt_at,
                    std::size_t corrupt_count) {
    support::Rng f1(0xc0), f2(0xc0);
    const std::size_t n = scalar.graph().vertex_count();
    for (int r = 0; r < rounds; ++r) {
      for (int cr : corrupt_at) {
        if (cr != r) continue;
        const auto a = corrupt_random(scalar, corrupt_count, f1);
        const auto b = corrupt_random(sharded, corrupt_count, f2);
        ASSERT_EQ(a, b) << "round " << r;
      }
      scalar.step();
      sharded.step();
      for (graph::VertexId v = 0; v < n; ++v) {
        ASSERT_EQ(sharded.level(v), scalar.level(v))
            << "round " << r << " vertex " << v;
      }
      ASSERT_EQ(sharded.active_count(), scalar.active_count())
          << "round " << r;
      if (observed) {
        ASSERT_EQ(sharded_log.events.back(), scalar_log.events.back())
            << "round " << r;
      }
    }
    EXPECT_EQ(sharded_log.events, scalar_log.events);
    EXPECT_EQ(sharded.mis_members(), scalar.mis_members());
    EXPECT_EQ(sharded.is_stabilized(), scalar.is_stabilized());
  }
};

// Worker counts exercised everywhere below: 1 (one shard, phases inline), 3
// (odd shard split), 8 (more workers than this host has cores —
// oversubscribed), 0 (one per hardware thread, host-dependent).
constexpr std::size_t kShardCounts[] = {1, 3, 8, 0};

/// Scalar-vs-sharded lockstep of one case at every shard count, observed
/// and unobserved.
template <typename Policy>
void check_lockstep(const graph::Graph& g, const LmaxVector& lmax,
                    std::uint64_t seed, std::uint64_t init_seed, int rounds,
                    beep::Duplex duplex = beep::Duplex::Full,
                    const std::vector<int>& corrupt_at = {},
                    std::size_t corrupt_count = 0) {
  for (std::size_t st : kShardCounts) {
    for (bool observed : {true, false}) {
      SCOPED_TRACE(::testing::Message()
                   << g.name() << " shard_threads=" << st
                   << " observed=" << observed);
      Duo<Policy> duo(g, lmax, seed, st, observed, duplex);
      duo.corrupt_init(init_seed);
      duo.run_lockstep(rounds, corrupt_at, corrupt_count);
    }
  }
}

TEST(Kernels, LockstepAlg1) {
  support::Rng grng(31);
  const auto graphs = {
      graph::make_path(48),
      graph::make_grid(9, 9),
      graph::make_erdos_renyi_avg_degree(192, 8.0, grng),
      graph::make_barabasi_albert(130, 3, grng),
  };
  for (const auto& g : graphs)
    check_lockstep<Alg1Policy>(g, lmax_global_delta(g), 1234, 7, 250);
}

TEST(Kernels, LockstepAlg2) {
  support::Rng grng(32);
  const auto graphs = {
      graph::make_star(48),
      graph::make_erdos_renyi_avg_degree(192, 8.0, grng),
      graph::make_barabasi_albert(130, 3, grng),
  };
  for (const auto& g : graphs)
    check_lockstep<Alg2Policy>(g, lmax_one_hop(g), 4321, 9, 250);
}

TEST(Kernels, LockstepSurvivesMidRunCorruption) {
  support::Rng grng(33);
  const auto g = graph::make_erdos_renyi_avg_degree(160, 8.0, grng);
  const std::vector<int> waves = {60, 140, 260};
  check_lockstep<Alg1Policy>(g, lmax_global_delta(g), 55, 3, 400,
                             beep::Duplex::Full, waves, 24);
  check_lockstep<Alg2Policy>(g, lmax_one_hop(g), 56, 4, 400,
                             beep::Duplex::Full, waves, 24);
}

TEST(Kernels, HalfDuplexLockstep) {
  support::Rng grng(34);
  const auto g = graph::make_erdos_renyi_avg_degree(160, 8.0, grng);
  check_lockstep<Alg1Policy>(g, lmax_global_delta(g), 77, 5, 300,
                             beep::Duplex::Half);
  check_lockstep<Alg2Policy>(g, lmax_one_hop(g), 78, 6, 300,
                             beep::Duplex::Half);
}

TEST(Kernels, SweepSizedGraphMatchesScalar) {
  // Large enough that the dense-sweep gate (shard range >= 64,
  // |shard active| * 8 >= range) holds for the whole chaos phase on
  // AVX-512 hosts and the endgame drops below it — both paths and the
  // crossover are exercised in one run. Also checks the shard-count clamp
  // (more workers than words is fine). Both policies under both duplex
  // modes, so every census field the observed sweep counts (heard per
  // channel, heard-any, prominent) and the dominated census beside it meet
  // the oracle; the corruption waves re-densify a settled run, sending the
  // kernel back onto the sweep mid-run.
  support::Rng grng(35);
  const auto g = graph::make_erdos_renyi_avg_degree(1024, 8.0, grng);
  for (beep::Duplex duplex : {beep::Duplex::Full, beep::Duplex::Half}) {
    check_lockstep<Alg1Policy>(g, lmax_global_delta(g), 99, 11, 200, duplex);
    check_lockstep<Alg2Policy>(g, lmax_one_hop(g), 98, 12, 200, duplex);
  }
  check_lockstep<Alg2Policy>(g, lmax_one_hop(g), 97, 13, 300,
                             beep::Duplex::Full, {40, 150}, 400);
}

TEST(Kernels, MultiChunkSweepMatchesScalar) {
  // A shard range spanning several fixed-size update-sweep chunks, the last
  // one partial: the chunked harvest must stay in ascending vertex order.
  support::Rng grng(37);
  const auto g = graph::make_erdos_renyi_avg_degree(9000, 8.0, grng);
  check_lockstep<Alg1Policy>(g, lmax_global_delta(g), 101, 17, 120);
  check_lockstep<Alg2Policy>(g, lmax_one_hop(g), 102, 18, 120);
}

/// Two hubs adjacent to every vertex over a sparse ER background, on
/// n = 64·60 + 37 vertices: 61 mask words, so 8 workers make 8 non-empty
/// shards (the last one 5 words, ending in a ragged 37-vertex word). Every
/// hub row spans every shard, so all 8 shards push into the same words and
/// counts in the same phase.
graph::Graph make_hubbed_background() {
  constexpr std::size_t n = 64 * 60 + 37;
  support::Rng grng(38);
  const auto bg = graph::make_erdos_renyi_avg_degree(n, 4.0, grng);
  graph::GraphBuilder b(n, "hubs2_er_n3877");
  for (graph::VertexId v = 0; v < n; ++v) {
    for (graph::VertexId u : bg.neighbors(v))
      if (u > v) b.add_edge(v, u);
    if (v != 0) b.add_edge(0, v);
    if (v != n - 1) b.add_edge(v, static_cast<graph::VertexId>(n - 1));
  }
  return std::move(b).build();
}

TEST(Kernels, MultiShardRowPushesMatchScalar) {
  // Rows that cross every shard boundary, pushed concurrently by up to 8
  // shards: the relaxed atomic pushes of stamp, apply and fold must land
  // the oracle's counts and masks, and a count that several shards drive
  // to zero must still route its vertex to the owner's settle candidates.
  const auto g = make_hubbed_background();
  const std::vector<int> waves = {50, 140};
  for (beep::Duplex duplex : {beep::Duplex::Full, beep::Duplex::Half}) {
    check_lockstep<Alg1Policy>(g, lmax_global_delta(g), 201, 21, 260, duplex,
                               waves, 300);
    check_lockstep<Alg2Policy>(g, lmax_one_hop(g), 202, 22, 260, duplex,
                               waves, 300);
  }
}

TEST(Kernels, ShardTelemetryWorkCountersIgnoreShardCount) {
  // The vertex tallies (active, coin beepers, crosser rows) are functions
  // of the trajectory alone; only timings and settled_candidates (which
  // follow the push interleaving) may differ between shard counts.
  const auto g = make_hubbed_background();
  const auto lmax = lmax_global_delta(g);
  std::vector<ShardTelemetry> tel;
  for (std::size_t st : {1, 3, 8}) {
    FastEngine<Alg1Policy> e(g, lmax, 203, {}, beep::Duplex::Full,
                             KernelKind::Sharded, st,
                             /*phase_telemetry=*/true);
    support::Rng irng(23);
    for (graph::VertexId v = 0; v < g.vertex_count(); ++v) e.corrupt(v, irng);
    support::Rng frng(24);
    for (int r = 0; r < 200; ++r) {
      if (r == 60) corrupt_random(e, 300, frng);
      e.step();
    }
    ShardTelemetry t;
    ASSERT_TRUE(e.shard_telemetry(&t)) << st;
    EXPECT_EQ(t.shards, st);
    EXPECT_EQ(t.rounds, 200u) << st;
    tel.push_back(t);
  }
  EXPECT_GT(tel[0].coin_beepers, 0u);
  EXPECT_GT(tel[0].crosser_rows, 0u);
  for (std::size_t i = 1; i < tel.size(); ++i) {
    EXPECT_EQ(tel[i].active_vertices, tel[0].active_vertices) << i;
    EXPECT_EQ(tel[i].coin_beepers, tel[0].coin_beepers) << i;
    EXPECT_EQ(tel[i].crosser_rows, tel[0].crosser_rows) << i;
  }
}

TEST(Kernels, AutoResolvesToSharded) {
  EXPECT_EQ(resolve_kernel(KernelKind::Auto), KernelKind::Sharded);
  EXPECT_EQ(resolve_kernel(KernelKind::Scalar), KernelKind::Scalar);
  EXPECT_EQ(resolve_kernel(KernelKind::Sharded), KernelKind::Sharded);
}

TEST(Kernels, ParsesOnlyLiveKernelNames) {
  KernelKind k = KernelKind::Scalar;
  for (const char* gone : {"bit", "frontier", ""})
    EXPECT_FALSE(parse_kernel_kind(gone, &k)) << gone;
  EXPECT_EQ(k, KernelKind::Scalar);  // untouched on failure
  ASSERT_TRUE(parse_kernel_kind("sharded", &k));
  EXPECT_EQ(k, KernelKind::Sharded);
  ASSERT_TRUE(parse_kernel_kind("auto", &k));
  EXPECT_EQ(k, KernelKind::Auto);
}

TEST(Kernels, EngineExposesResolvedKernelName) {
  const auto g = graph::make_path(8);
  const auto lmax = lmax_global_delta(g);
  for (std::size_t st : kShardCounts) {
    FastEngine<Alg1Policy> autok(g, lmax, 1, {}, beep::Duplex::Full,
                                 KernelKind::Auto, st);
    EXPECT_EQ(autok.kernel_name(), "sharded") << st;
  }
  FastEngine<Alg1Policy> scalar(g, lmax, 1, {}, beep::Duplex::Full,
                                KernelKind::Scalar);
  EXPECT_EQ(scalar.kernel_name(), "scalar");
}

/// Counts every task the process-wide pool observer sees.
struct TaskCounter final : support::TaskPool::Observer {
  std::atomic<std::size_t> tasks{0};
  void on_task(const char*, std::size_t, std::size_t,
               std::chrono::steady_clock::time_point,
               std::chrono::steady_clock::time_point) override {
    tasks.fetch_add(1, std::memory_order_relaxed);
  }
};

std::size_t pool_tasks_of_run(std::size_t shard_threads) {
  support::Rng grng(36);
  const auto g = graph::make_erdos_renyi_avg_degree(1024, 8.0, grng);
  TaskCounter counter;
  support::TaskPool::set_observer(&counter);
  FastEngine<Alg1Policy> e(g, lmax_global_delta(g), 5, {}, beep::Duplex::Full,
                           KernelKind::Sharded, shard_threads);
  support::Rng irng(6);
  for (graph::VertexId v = 0; v < g.vertex_count(); ++v) e.corrupt(v, irng);
  e.run_to_stabilization(10000);
  support::TaskPool::set_observer(nullptr);
  EXPECT_TRUE(e.is_stabilized());
  return counter.tasks.load();
}

TEST(Kernels, OneShardRoundsNeverEnterThePool) {
  // One shard calls every phase inline: a serial run fires no pool task,
  // so replica-level pool observers see only their own tasks.
  EXPECT_EQ(pool_tasks_of_run(1), 0u);
  // Control: several shards do dispatch through the observed pool.
  EXPECT_GT(pool_tasks_of_run(3), 0u);
}

}  // namespace
}  // namespace beepmis::core
