#include "src/mis/verifier.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "src/graph/generators.hpp"

namespace beepmis::mis {
namespace {

using graph::Graph;
using graph::make_complete;
using graph::make_cycle;
using graph::make_path;
using graph::make_star;

TEST(Verifier, IndependenceOnPath) {
  const Graph g = make_path(5);
  EXPECT_TRUE(is_independent(g, {true, false, true, false, true}));
  EXPECT_FALSE(is_independent(g, {true, true, false, false, false}));
  EXPECT_TRUE(is_independent(g, {false, false, false, false, false}));
}

TEST(Verifier, MaximalityOnPath) {
  const Graph g = make_path(5);
  EXPECT_TRUE(is_maximal(g, {true, false, true, false, true}));
  // {0, 3}: vertex 1 dominated by 0, vertex 2 dominated by 3, 4 by 3 — maximal.
  EXPECT_TRUE(is_maximal(g, {true, false, false, true, false}));
  // {0}: vertices 2,3,4 undominated.
  EXPECT_FALSE(is_maximal(g, {true, false, false, false, false}));
  // Empty set on a non-empty graph is never maximal.
  EXPECT_FALSE(is_maximal(g, {false, false, false, false, false}));
}

TEST(Verifier, MisOnCompleteGraphIsSingleton) {
  const Graph g = make_complete(6);
  std::vector<bool> one(6, false);
  one[3] = true;
  EXPECT_TRUE(is_mis(g, one));
  std::vector<bool> two(6, false);
  two[0] = two[5] = true;
  EXPECT_FALSE(is_mis(g, two));
  EXPECT_FALSE(is_mis(g, std::vector<bool>(6, false)));
}

TEST(Verifier, StarMisEitherCenterOrAllLeaves) {
  const Graph g = make_star(6);
  std::vector<bool> center(6, false);
  center[0] = true;
  EXPECT_TRUE(is_mis(g, center));
  std::vector<bool> leaves(6, true);
  leaves[0] = false;
  EXPECT_TRUE(is_mis(g, leaves));
  // Center plus one leaf is dependent.
  std::vector<bool> both(6, false);
  both[0] = both[1] = true;
  EXPECT_FALSE(is_mis(g, both));
}

TEST(Verifier, EmptyGraphEdgeCases) {
  const Graph g = graph::GraphBuilder(0).build();
  EXPECT_TRUE(is_mis(g, {}));
}

TEST(Verifier, IsolatedVerticesMustBeMembers) {
  graph::GraphBuilder b(3);
  b.add_edge(0, 1);
  const Graph g = std::move(b).build();
  EXPECT_FALSE(is_mis(g, {true, false, false}));  // isolated 2 undominated
  EXPECT_TRUE(is_mis(g, {true, false, true}));
}

TEST(Verifier, MemberCount) {
  EXPECT_EQ(member_count({true, false, true, true}), 3u);
  EXPECT_EQ(member_count({}), 0u);
}

TEST(Verifier, GreedyMisIsAlwaysValid) {
  support::Rng rng(1);
  for (int i = 0; i < 10; ++i) {
    const Graph g = graph::make_erdos_renyi(120, 0.05, rng);
    const auto mis = greedy_mis(g);
    EXPECT_TRUE(is_mis(g, mis));
  }
}

TEST(Verifier, GreedyIdentityOrderOnPath) {
  const auto mis = greedy_mis(make_path(5));
  EXPECT_EQ(mis, (std::vector<bool>{true, false, true, false, true}));
}

TEST(Verifier, RandomGreedyMisValidAcrossSeeds) {
  support::Rng graph_rng(2);
  const Graph g = graph::make_barabasi_albert(200, 3, graph_rng);
  for (std::uint64_t s = 0; s < 10; ++s) {
    support::Rng rng(s);
    EXPECT_TRUE(is_mis(g, random_greedy_mis(g, rng)));
  }
}

/// The MIS definition read vertex by vertex, as the oracle for check().
MisCheck naive_check(const Graph& g, const std::vector<bool>& m) {
  MisCheck r;
  for (graph::VertexId v = 0; v < g.vertex_count(); ++v) {
    bool member_neighbor = false;
    for (graph::VertexId u : g.neighbors(v))
      member_neighbor = member_neighbor || m[u];
    if (m[v] && member_neighbor) r.independent = false;
    if (!m[v] && !member_neighbor) r.maximal = false;
  }
  return r;
}

TEST(Verifier, FusedCheckMatchesDefinition) {
  const auto expect_matches = [](const Graph& g, const std::vector<bool>& m) {
    const MisCheck want = naive_check(g, m);
    const MisCheck got = check(g, m);
    EXPECT_EQ(got.independent, want.independent) << g.name();
    EXPECT_EQ(got.maximal, want.maximal) << g.name();
    EXPECT_EQ(is_mis(g, m), want.independent && want.maximal) << g.name();
  };
  support::Rng rng(11);
  std::vector<Graph> graphs;
  for (std::size_t n : {0, 1, 63, 64, 65, 1000}) {
    const double p = n > 8 ? 8.0 / static_cast<double>(n) : 1.0;
    graphs.push_back(graph::make_erdos_renyi(n, p, rng));
    graphs.push_back(make_complete(n));
  }
  for (std::size_t n : {2, 64, 65, 1000}) graphs.push_back(make_star(n));
  graphs.push_back(graph::make_barabasi_albert(1000, 3, rng));
  // Rows of 199 and 39999 entries, whose neighbors cross many 64-bit word
  // boundaries of the membership bits.
  graphs.push_back(make_complete(200));
  graphs.push_back(make_star(40000));
  // Isolated vertices, before, between and after the edges.
  graph::GraphBuilder b(130);
  for (graph::VertexId v = 10; v < 60; v += 2) b.add_edge(v, v + 1);
  for (graph::VertexId v = 70; v < 100; ++v) b.add_edge(70, v + 1);
  graphs.push_back(std::move(b).build());

  for (const Graph& g : graphs) {
    const std::size_t n = g.vertex_count();
    std::vector<std::vector<bool>> sets = {std::vector<bool>(n, false),
                                           std::vector<bool>(n, true)};
    for (double p : {0.05, 0.5}) {
      std::vector<bool> m(n);
      for (std::size_t v = 0; v < n; ++v) m[v] = rng.bernoulli(p);
      sets.push_back(m);
    }
    for (int i = 0; i < 3 && n > 0; ++i) {
      const std::vector<bool> mis = random_greedy_mis(g, rng);
      sets.push_back(mis);
      // One vertex added, one removed.
      std::vector<bool> flipped = mis;
      const auto v = static_cast<graph::VertexId>(rng.below(n));
      flipped[v] = !flipped[v];
      sets.push_back(flipped);
    }
    for (const std::vector<bool>& m : sets) expect_matches(g, m);
  }

  // A non-member hub dominated only by the first 999 entries of its
  // 40000-entry row: hub 0, leaves 1..L, leaf i >= 1000 owning pendant
  // L + i (L + i is isolated for i < 1000). Members are leaves 1..999 and
  // every L + i.
  constexpr graph::VertexId kLeaves = 40000;
  graph::GraphBuilder hub_builder(2 * kLeaves + 1, "late-dominated-hub");
  std::vector<bool> mis(2 * kLeaves + 1, false);
  for (graph::VertexId i = 1; i <= kLeaves; ++i) {
    hub_builder.add_edge(0, i);
    mis[kLeaves + i] = true;
    if (i < 1000)
      mis[i] = true;
    else
      hub_builder.add_edge(i, kLeaves + i);
  }
  const Graph hub = std::move(hub_builder).build();
  expect_matches(hub, mis);
  EXPECT_TRUE(is_mis(hub, mis));
  for (graph::VertexId v : {0u, 1u, 999u, kLeaves, 2 * kLeaves}) {
    std::vector<bool> flipped = mis;
    flipped[v] = !flipped[v];
    expect_matches(hub, flipped);
  }
}

TEST(VerifierDeath, GreedyOrderOutOfRangeAborts) {
  const Graph g = make_path(3);
  const std::vector<graph::VertexId> order = {0, 3, 1};
  EXPECT_DEATH(greedy_mis(g, order), "out of range");
}

TEST(VerifierDeath, SizeMismatchAborts) {
  const Graph g = make_path(3);
  EXPECT_DEATH(is_independent(g, {true}), "size mismatch");
}

}  // namespace
}  // namespace beepmis::mis
