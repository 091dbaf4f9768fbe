#include "src/core/fast_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/beep/fault.hpp"
#include "src/beep/network.hpp"
#include "src/core/engine.hpp"
#include "src/core/init.hpp"
#include "src/core/selfstab_mis.hpp"
#include "src/core/selfstab_mis2.hpp"
#include "src/exp/families.hpp"
#include "src/graph/generators.hpp"
#include "src/mis/verifier.hpp"

namespace beepmis::core {
namespace {

/// Reference pair: the generic simulator running SelfStabMis.
struct Reference {
  std::unique_ptr<beep::Simulation> sim;
  SelfStabMis* algo;
};

Reference make_reference(const graph::Graph& g, const LmaxVector& lmax,
                         std::uint64_t seed,
                         beep::Duplex duplex = beep::Duplex::Full) {
  auto a = std::make_unique<SelfStabMis>(g, lmax);
  auto* raw = a.get();
  // Counter mode: the engines draw counter-keyed coins, so the reference
  // must reseed its per-node streams from the same (seed, node, round)
  // coordinates to stay coin-for-coin identical.
  return {std::make_unique<beep::Simulation>(g, std::move(a), seed,
                                             beep::ChannelNoise{}, duplex,
                                             beep::RngMode::Counter),
          raw};
}

/// Same for Algorithm 2.
struct Reference2 {
  std::unique_ptr<beep::Simulation> sim;
  SelfStabMisTwoChannel* algo;
};

Reference2 make_reference2(const graph::Graph& g, const LmaxVector& lmax,
                           std::uint64_t seed,
                           beep::Duplex duplex = beep::Duplex::Full) {
  auto a = std::make_unique<SelfStabMisTwoChannel>(g, lmax);
  auto* raw = a.get();
  return {std::make_unique<beep::Simulation>(g, std::move(a), seed,
                                             beep::ChannelNoise{}, duplex,
                                             beep::RngMode::Counter),
          raw};
}

/// Drives a (reference simulation, fast engine) pair in lockstep for
/// `rounds` rounds, asserting level-for-level equality after every round
/// and event-for-event equality at the end. At each round listed in
/// `corrupt_at`, `corrupt_count` random nodes are corrupted on both sides
/// with identically-seeded streams (FaultInjector on the simulation, the
/// engine-level corrupt_random on the fast path).
template <typename Algo, typename Fast>
void run_lockstep(const graph::Graph& g, beep::Simulation& sim, Algo* ref,
                  Fast& fast, int rounds,
                  const std::vector<int>& corrupt_at = {},
                  std::size_t corrupt_count = 0) {
  obs::MemorySink ref_sink(/*with_analysis=*/true);
  obs::MemorySink fast_sink(/*with_analysis=*/true);
  sim.add_observer(&ref_sink);
  fast.set_observer(&fast_sink);
  support::Rng ref_frng = support::Rng(0xfa17).derive_stream(9);
  support::Rng fast_frng = support::Rng(0xfa17).derive_stream(9);
  for (int r = 0; r < rounds; ++r) {
    if (std::find(corrupt_at.begin(), corrupt_at.end(), r) !=
        corrupt_at.end()) {
      const auto ref_chosen =
          beep::FaultInjector::corrupt_random(sim, corrupt_count, ref_frng);
      const auto fast_chosen = corrupt_random(fast, corrupt_count, fast_frng);
      ASSERT_EQ(ref_chosen, fast_chosen) << g.name() << " round " << r;
      for (graph::VertexId v = 0; v < g.vertex_count(); ++v)
        ASSERT_EQ(fast.level(v), ref->level(v))
            << g.name() << " post-corrupt round " << r << " vertex " << v;
    }
    sim.step();
    fast.step();
    for (graph::VertexId v = 0; v < g.vertex_count(); ++v)
      ASSERT_EQ(fast.level(v), ref->level(v))
          << g.name() << " round " << r << " vertex " << v;
  }
  ASSERT_EQ(ref_sink.events().size(), fast_sink.events().size());
  for (std::size_t i = 0; i < ref_sink.events().size(); ++i)
    ASSERT_EQ(ref_sink.events()[i], fast_sink.events()[i])
        << g.name() << " event " << i;
}

/// Identical arbitrary starting levels on both sides of a pair, via
/// identical corrupt draws (the standard trick of the equivalence tests).
template <typename Algo, typename Fast>
void corrupt_init(const graph::Graph& g, Algo* ref, Fast& fast,
                  std::uint64_t seed) {
  support::Rng c(seed);
  for (graph::VertexId v = 0; v < g.vertex_count(); ++v)
    ref->corrupt_node(v, c);
  for (graph::VertexId v = 0; v < g.vertex_count(); ++v)
    fast.set_level(v, ref->level(v));
}

TEST(FastEngine, RoundForRoundIdenticalToReferenceSimulator) {
  // The headline equivalence: same seed, same initial levels → identical
  // level vectors after EVERY round, on assorted graphs.
  support::Rng grng(4);
  const auto graphs = {
      graph::make_path(24),   graph::make_star(24),
      graph::make_grid(5, 5), graph::make_erdos_renyi(64, 0.08, grng),
      graph::make_barabasi_albert(64, 3, grng),
  };
  for (const auto& g : graphs) {
    const auto lmax = lmax_global_delta(g);
    auto ref = make_reference(g, lmax, 99);
    FastMisEngine fast(g, lmax, 99);
    // Identical arbitrary starting levels via identical corrupt draws.
    support::Rng c1(7);
    for (graph::VertexId v = 0; v < g.vertex_count(); ++v)
      ref.algo->corrupt_node(v, c1);
    for (graph::VertexId v = 0; v < g.vertex_count(); ++v)
      fast.set_level(v, ref.algo->level(v));

    for (int r = 0; r < 400; ++r) {
      ref.sim->step();
      fast.step();
      for (graph::VertexId v = 0; v < g.vertex_count(); ++v)
        ASSERT_EQ(fast.level(v), ref.algo->level(v))
            << g.name() << " round " << r << " vertex " << v;
    }
    EXPECT_EQ(fast.is_stabilized(), ref.algo->is_stabilized()) << g.name();
    EXPECT_EQ(fast.mis_members(), ref.algo->mis_members()) << g.name();
  }
}

TEST(FastEngine, StabilizationRoundCountsMatchReference) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    support::Rng grng(40 + seed);
    const auto g = graph::make_erdos_renyi_avg_degree(128, 8.0, grng);
    const auto lmax = lmax_global_delta(g);
    auto ref = make_reference(g, lmax, seed);
    FastMisEngine fast(g, lmax, seed);
    support::Rng c(seed + 100);
    for (graph::VertexId v = 0; v < g.vertex_count(); ++v)
      ref.algo->corrupt_node(v, c);
    for (graph::VertexId v = 0; v < g.vertex_count(); ++v)
      fast.set_level(v, ref.algo->level(v));

    beep::Round ref_rounds = 0;
    while (!ref.algo->is_stabilized() && ref_rounds < 100000) {
      ref.sim->step();
      ++ref_rounds;
    }
    const auto fast_rounds = fast.run_to_stabilization(100000);
    EXPECT_EQ(fast_rounds, ref_rounds) << "seed " << seed;
    EXPECT_TRUE(fast.is_stabilized());
    EXPECT_TRUE(mis::is_mis(g, fast.mis_members()));
  }
}

TEST(FastEngine, ActiveCountShrinksMonotonicallyToZero) {
  support::Rng grng(5);
  const auto g = graph::make_erdos_renyi_avg_degree(256, 8.0, grng);
  FastMisEngine fast(g, lmax_global_delta(g), 3);
  std::size_t prev = fast.active_count();
  EXPECT_EQ(prev, g.vertex_count());
  while (!fast.is_stabilized() && fast.round() < 100000) {
    fast.step();
    EXPECT_LE(fast.active_count(), prev);
    prev = fast.active_count();
  }
  EXPECT_TRUE(fast.is_stabilized());
  EXPECT_EQ(fast.active_count(), 0u);
}

TEST(FastEngine, DetectsPreStabilizedConfigurations) {
  const auto g = graph::make_star(8);
  const auto lmax = lmax_global_delta(g);
  FastMisEngine fast(g, lmax, 1);
  fast.set_level(0, -fast.lmax(0));
  for (graph::VertexId v = 1; v < 8; ++v) fast.set_level(v, fast.lmax(v));
  EXPECT_TRUE(fast.is_stabilized());
  EXPECT_EQ(fast.run_to_stabilization(100), 0u);
  EXPECT_EQ(mis::member_count(fast.mis_members()), 1u);
}

TEST(FastEngine, SettlesVertexReturningToCapNextToOldMember) {
  // Regression for the late-settlement case: stabilize a star, then knock
  // one leaf off its cap; it must re-settle and is_stabilized() recover.
  const auto g = graph::make_star(6);
  const auto lmax = lmax_global_delta(g);
  FastMisEngine fast(g, lmax, 2);
  fast.set_level(0, -fast.lmax(0));
  for (graph::VertexId v = 1; v < 6; ++v) fast.set_level(v, fast.lmax(v));
  ASSERT_TRUE(fast.is_stabilized());
  fast.set_level(3, 2);  // transient fault on one leaf
  EXPECT_FALSE(fast.is_stabilized());
  const auto rounds = fast.run_to_stabilization(1000);
  EXPECT_TRUE(fast.is_stabilized());
  // The member keeps beeping; the leaf climbs back: lmax - 2 rounds.
  EXPECT_EQ(rounds, static_cast<std::uint64_t>(fast.lmax(3) - 2));
}

/// Sets the same level on both sides: the member level, the cap, or a
/// uniform admissible value, one third each, so members, capped neighbors
/// and near-misses all occur in an unstabilized configuration.
template <typename Algo, typename Fast>
void set_biased_levels(const graph::Graph& g, Algo& ref, Fast& fast,
                       support::Rng& rng) {
  for (graph::VertexId v = 0; v < g.vertex_count(); ++v) {
    const std::int32_t cap = fast.lmax(v);
    const std::int32_t lo = fast.member_level(v);
    const auto span = static_cast<std::uint64_t>(cap - lo + 1);
    const std::int32_t pick[3] = {
        lo, cap, lo + static_cast<std::int32_t>(rng.below(span))};
    const std::int32_t l = pick[rng.below(3)];
    ref.set_level(v, l);
    fast.set_level(v, l);
  }
}

/// FastEngine::mis_members against the reference algorithm's plain loop,
/// on the same levels: first as set, then after the kernel ran a few rounds
/// (the reference re-reads the engine's levels).
template <typename Algo, typename Fast>
void expect_members_match(const graph::Graph& g, Algo& ref, Fast& fast,
                          const std::string& what) {
  ASSERT_FALSE(ref.is_stabilized()) << what;
  EXPECT_EQ(fast.mis_members(), ref.mis_members()) << what;
  for (int r = 0; r < 3; ++r) fast.step();
  for (graph::VertexId v = 0; v < g.vertex_count(); ++v)
    ref.set_level(v, fast.level(v));
  EXPECT_EQ(fast.mis_members(), ref.mis_members()) << what << " stepped";
}

TEST(FastEngine, MisMembersMatchesLevelDefinition) {
  support::Rng grng(41);
  std::vector<graph::Graph> graphs;
  graphs.push_back(graph::make_erdos_renyi_avg_degree(1000, 8.0, grng));
  graphs.push_back(graph::make_barabasi_albert(500, 3, grng));
  graphs.push_back(graph::make_star(70));
  graphs.push_back(graph::make_path(65));
  graph::GraphBuilder b(100);  // isolated vertices around a few edges
  for (graph::VertexId v = 20; v < 80; v += 3) b.add_edge(v, v + 1);
  graphs.push_back(std::move(b).build());

  const std::pair<KernelKind, std::size_t> kernels[] = {
      {KernelKind::Scalar, 1}, {KernelKind::Sharded, 1},
      {KernelKind::Sharded, 3}};
  for (const graph::Graph& g : graphs) {
    for (const auto& [kind, threads] : kernels) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const std::string what = g.name() + " " + kernel_kind_name(kind) +
                                 "/" + std::to_string(threads) + " seed " +
                                 std::to_string(seed);
        support::Rng lr(seed);
        {
          const auto lmax = lmax_global_delta(g);
          SelfStabMis ref(g, lmax);
          FastMisEngine fast(g, lmax, seed, beep::Duplex::Full, kind, threads);
          set_biased_levels(g, ref, fast, lr);
          expect_members_match(g, ref, fast, "alg1 " + what);
        }
        {
          const auto lmax = lmax_one_hop(g);
          SelfStabMisTwoChannel ref(g, lmax);
          FastMisEngine2 fast(g, lmax, seed, beep::Duplex::Full, kind, threads);
          set_biased_levels(g, ref, fast, lr);
          expect_members_match(g, ref, fast, "alg2 " + what);
        }
      }
    }
  }
}

TEST(FastEngineDeath, BadLmaxRejected) {
  const auto g = graph::make_path(3);
  EXPECT_DEATH(FastMisEngine(g, LmaxVector(3, 1), 1), "at least 2");
  EXPECT_DEATH(FastMisEngine(g, LmaxVector(2, 5), 1), "wrong graph");
}


// --- Algorithm 2 fast engine ---------------------------------------------------

TEST(FastEngine2, RoundForRoundIdenticalToReferenceSimulator) {
  support::Rng grng(9);
  const auto graphs = {
      graph::make_path(24),   graph::make_star(24),
      graph::make_grid(5, 5), graph::make_erdos_renyi(64, 0.08, grng),
  };
  for (const auto& g : graphs) {
    const auto lmax = lmax_one_hop(g);
    auto ref_algo = std::make_unique<SelfStabMisTwoChannel>(g, lmax);
    auto* ref = ref_algo.get();
    beep::Simulation ref_sim(g, std::move(ref_algo), 77, {},
                             beep::Duplex::Full, beep::RngMode::Counter);
    FastMisEngine2 fast(g, lmax, 77);
    support::Rng c1(3);
    for (graph::VertexId v = 0; v < g.vertex_count(); ++v)
      ref->corrupt_node(v, c1);
    for (graph::VertexId v = 0; v < g.vertex_count(); ++v)
      fast.set_level(v, ref->level(v));

    for (int r = 0; r < 300; ++r) {
      ref_sim.step();
      fast.step();
      for (graph::VertexId v = 0; v < g.vertex_count(); ++v)
        ASSERT_EQ(fast.level(v), ref->level(v))
            << g.name() << " round " << r << " vertex " << v;
    }
    EXPECT_EQ(fast.is_stabilized(), ref->is_stabilized()) << g.name();
    EXPECT_EQ(fast.mis_members(), ref->mis_members()) << g.name();
  }
}

TEST(FastEngine2, StabilizesToValidMis) {
  support::Rng grng(10);
  const auto g = graph::make_barabasi_albert(200, 3, grng);
  FastMisEngine2 fast(g, lmax_one_hop(g), 5);
  support::Rng irng(6);
  for (graph::VertexId v = 0; v < g.vertex_count(); ++v)
    fast.set_level(v, static_cast<std::int32_t>(
                          irng.below(static_cast<std::uint64_t>(fast.lmax(v)) + 1)));
  fast.run_to_stabilization(100000);
  ASSERT_TRUE(fast.is_stabilized());
  EXPECT_TRUE(mis::is_mis(g, fast.mis_members()));
}

TEST(FastEngine2Death, NegativeLevelRejected) {
  const auto g = graph::make_path(3);
  FastMisEngine2 fast(g, LmaxVector(3, 4), 1);
  EXPECT_DEATH(fast.set_level(0, -1), "outside");
}

// --- Full model surface on the fast path: faults, half-duplex ----------
//
// Each test drives the fast engine and beep::Simulation in lockstep under
// the same seed and asserts level-for-level AND event-for-event equality —
// the same standard of proof the plain equivalence tests set, now for the
// extended model features.

TEST(FastEngineFaults, RandomCorruptionStreamIdenticalAlg1) {
  // Corrupt random nodes at random rounds — some waves land mid-convergence,
  // some after stabilization — and require exact agreement throughout.
  support::Rng grng(21);
  support::Rng schedule(77);
  const auto graphs = {
      graph::make_star(32),
      graph::make_grid(6, 6),
      graph::make_erdos_renyi_avg_degree(96, 8.0, grng),
  };
  for (const auto& g : graphs) {
    std::vector<int> corrupt_at;
    for (int i = 0; i < 5; ++i)
      corrupt_at.push_back(static_cast<int>(schedule.below(250)));
    const auto lmax = lmax_global_delta(g);
    auto ref = make_reference(g, lmax, 123);
    FastMisEngine fast(g, lmax, 123);
    corrupt_init(g, ref.algo, fast, 7);
    run_lockstep(g, *ref.sim, ref.algo, fast, 400, corrupt_at,
                 /*corrupt_count=*/1 + schedule.below(8));
  }
}

TEST(FastEngineFaults, RandomCorruptionStreamIdenticalAlg2) {
  support::Rng grng(22);
  support::Rng schedule(78);
  const auto graphs = {
      graph::make_star(32),
      graph::make_erdos_renyi_avg_degree(96, 8.0, grng),
  };
  for (const auto& g : graphs) {
    std::vector<int> corrupt_at;
    for (int i = 0; i < 5; ++i)
      corrupt_at.push_back(static_cast<int>(schedule.below(250)));
    const auto lmax = lmax_one_hop(g);
    auto ref = make_reference2(g, lmax, 321);
    FastMisEngine2 fast(g, lmax, 321);
    corrupt_init(g, ref.algo, fast, 8);
    run_lockstep(g, *ref.sim, ref.algo, fast, 400, corrupt_at,
                 /*corrupt_count=*/1 + schedule.below(8));
  }
}

TEST(FastEngineFaults, CorruptionAfterStabilizationResettlesLocally) {
  // The point of the engine-level corrupt: after recovery the settled-set
  // bookkeeping must again report stabilization and a valid MIS.
  support::Rng grng(23);
  const auto g = graph::make_erdos_renyi_avg_degree(128, 8.0, grng);
  FastMisEngine fast(g, lmax_global_delta(g), 11);
  ASSERT_GT(fast.run_to_stabilization(100000), 0u);
  support::Rng frng(5);
  for (int wave = 0; wave < 4; ++wave) {
    corrupt_random(fast, 16, frng);
    fast.run_to_stabilization(100000);
    ASSERT_TRUE(fast.is_stabilized()) << "wave " << wave;
    ASSERT_TRUE(mis::is_mis(g, fast.mis_members())) << "wave " << wave;
  }
}

TEST(FastEngineDuplex, HalfDuplexStreamIdenticalAlg1) {
  support::Rng grng(27);
  const auto graphs = {
      graph::make_star(32),
      graph::make_grid(6, 6),
      graph::make_erdos_renyi_avg_degree(80, 8.0, grng),
  };
  for (const auto& g : graphs) {
    const auto lmax = lmax_global_delta(g);
    auto ref = make_reference(g, lmax, 58, beep::Duplex::Half);
    FastMisEngine fast(g, lmax, 58, beep::Duplex::Half);
    corrupt_init(g, ref.algo, fast, 12);
    run_lockstep(g, *ref.sim, ref.algo, fast, 300);
  }
}

TEST(FastEngineDuplex, HalfDuplexStreamIdenticalAlg2) {
  support::Rng grng(28);
  const auto graphs = {
      graph::make_star(32),
      graph::make_erdos_renyi_avg_degree(80, 8.0, grng),
  };
  for (const auto& g : graphs) {
    const auto lmax = lmax_one_hop(g);
    auto ref = make_reference2(g, lmax, 59, beep::Duplex::Half);
    FastMisEngine2 fast(g, lmax, 59, beep::Duplex::Half);
    corrupt_init(g, ref.algo, fast, 13);
    run_lockstep(g, *ref.sim, ref.algo, fast, 300);
  }
}

TEST(FastEngineDuplex, HalfDuplexWithFaultsStreamIdentical) {
  support::Rng grng(29);
  const auto g = graph::make_erdos_renyi_avg_degree(96, 8.0, grng);
  const auto lmax = lmax_global_delta(g);
  auto ref = make_reference(g, lmax, 60, beep::Duplex::Half);
  FastMisEngine fast(g, lmax, 60, beep::Duplex::Half);
  corrupt_init(g, ref.algo, fast, 14);
  run_lockstep(g, *ref.sim, ref.algo, fast, 300, {30, 90, 150}, 7);
}

}  // namespace
}  // namespace beepmis::core
