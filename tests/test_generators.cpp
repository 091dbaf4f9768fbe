#include "src/graph/generators.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "src/exp/families.hpp"
#include "src/graph/properties.hpp"

namespace beepmis::graph {
namespace {

TEST(Generators, PathShape) {
  const Graph g = make_path(10);
  EXPECT_EQ(g.vertex_count(), 10u);
  EXPECT_EQ(g.edge_count(), 9u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(9), 1u);
  for (VertexId v = 1; v < 9; ++v) EXPECT_EQ(g.degree(v), 2u);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, CycleIsTwoRegular) {
  const Graph g = make_cycle(12);
  EXPECT_EQ(g.edge_count(), 12u);
  EXPECT_TRUE(is_regular(g, 2));
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, StarDegrees) {
  const Graph g = make_star(9);
  EXPECT_EQ(g.degree(0), 8u);
  for (VertexId v = 1; v < 9; ++v) EXPECT_EQ(g.degree(v), 1u);
  EXPECT_EQ(g.max_degree(), 8u);
}

TEST(Generators, CompleteGraph) {
  const Graph g = make_complete(7);
  EXPECT_EQ(g.edge_count(), 21u);
  EXPECT_TRUE(is_regular(g, 6));
}

TEST(Generators, CompleteBipartite) {
  const Graph g = make_complete_bipartite(3, 4);
  EXPECT_EQ(g.vertex_count(), 7u);
  EXPECT_EQ(g.edge_count(), 12u);
  for (VertexId v = 0; v < 3; ++v) EXPECT_EQ(g.degree(v), 4u);
  for (VertexId v = 3; v < 7; ++v) EXPECT_EQ(g.degree(v), 3u);
  EXPECT_TRUE(is_triangle_free(g));
}

TEST(Generators, GridAndTorus) {
  const Graph grid = make_grid(4, 5);
  EXPECT_EQ(grid.vertex_count(), 20u);
  EXPECT_EQ(grid.edge_count(), 4u * 4 + 5u * 3);  // 31
  EXPECT_EQ(grid.max_degree(), 4u);
  const Graph torus = make_grid(4, 5, /*torus=*/true);
  EXPECT_TRUE(is_regular(torus, 4));
  EXPECT_EQ(torus.edge_count(), 40u);
}

TEST(Generators, BinaryTree) {
  const Graph g = make_binary_tree(15);
  EXPECT_EQ(g.edge_count(), 14u);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.max_degree(), 3u);
}

TEST(Generators, Hypercube) {
  const Graph g = make_hypercube(4);
  EXPECT_EQ(g.vertex_count(), 16u);
  EXPECT_TRUE(is_regular(g, 4));
  EXPECT_EQ(g.edge_count(), 32u);
  EXPECT_EQ(diameter(g), 4u);
}

TEST(Generators, Caterpillar) {
  const Graph g = make_caterpillar(5, 3);
  EXPECT_EQ(g.vertex_count(), 20u);
  EXPECT_EQ(g.edge_count(), 19u);  // a tree
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, Lollipop) {
  const Graph g = make_lollipop(6, 4);
  EXPECT_EQ(g.vertex_count(), 10u);
  EXPECT_EQ(g.edge_count(), 15u + 4u);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(g.degree(9), 1u);  // end of the stick
}

TEST(Generators, StarOfCliques) {
  const Graph g = make_star_of_cliques(4, 5);
  EXPECT_EQ(g.vertex_count(), 21u);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(g.degree(0), 4u);  // hub touches one vertex per clique
  // Clique gateway vertices have degree k-1 (clique) + 1 (hub).
  EXPECT_EQ(g.degree(1), 5u);
}

TEST(Generators, ErdosRenyiEdgeCountNearExpectation) {
  support::Rng rng(1);
  const std::size_t n = 2000;
  const double p = 0.005;
  const Graph g = make_erdos_renyi(n, p, rng);
  const double expected = p * n * (n - 1) / 2.0;
  const double sigma = std::sqrt(expected * (1 - p));
  EXPECT_NEAR(static_cast<double>(g.edge_count()), expected, 6 * sigma);
}

TEST(Generators, ErdosRenyiExtremeProbabilities) {
  support::Rng rng(2);
  EXPECT_EQ(make_erdos_renyi(50, 0.0, rng).edge_count(), 0u);
  EXPECT_EQ(make_erdos_renyi(20, 1.0, rng).edge_count(), 190u);
}

TEST(Generators, ErdosRenyiAvgDegree) {
  support::Rng rng(3);
  const Graph g = make_erdos_renyi_avg_degree(3000, 8.0, rng);
  const auto s = degree_stats(g);
  EXPECT_NEAR(s.mean, 8.0, 0.5);
}

TEST(Generators, RandomRegularIsRegularAndSimple) {
  support::Rng rng(4);
  for (std::size_t d : {2, 3, 4, 6}) {
    const std::size_t n = d % 2 ? 100 : 101;  // make n*d even
    const std::size_t nn = (n * d) % 2 ? n + 1 : n;
    const Graph g = make_random_regular(nn, d, rng);
    EXPECT_TRUE(is_regular(g, d)) << "d=" << d;
    EXPECT_EQ(g.edge_count(), nn * d / 2);
  }
}

TEST(Generators, BarabasiAlbertDegrees) {
  support::Rng rng(5);
  const Graph g = make_barabasi_albert(1000, 3, rng);
  EXPECT_EQ(g.vertex_count(), 1000u);
  const auto s = degree_stats(g);
  // Every non-seed vertex attaches with >= 1 distinct edge... min degree >= 1,
  // and preferential attachment produces hubs far above the mean.
  EXPECT_GE(s.min, 1u);
  EXPECT_GT(s.max, 3 * static_cast<std::size_t>(s.mean));
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, RandomGeometricMatchesBruteForce) {
  support::Rng rng(6);
  const Graph g = make_random_geometric(400, 0.08, rng);
  // Same seed → same points; verify the grid-binned construction against an
  // O(n²) rebuild is impossible without the points, so instead check basic
  // sanity: expected average degree ≈ π r² (n-1) in the bulk (edge effects
  // lower it slightly).
  const auto s = degree_stats(g);
  const double bulk = 3.14159265 * 0.08 * 0.08 * 399;
  EXPECT_GT(s.mean, 0.5 * bulk);
  EXPECT_LT(s.mean, 1.2 * bulk);
}

TEST(Generators, RandomTreeIsTree) {
  support::Rng rng(7);
  const Graph g = make_random_tree(500, rng);
  EXPECT_EQ(g.edge_count(), 499u);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, DeterministicForSameSeed) {
  support::Rng a(9), b(9);
  const Graph ga = make_erdos_renyi(300, 0.02, a);
  const Graph gb = make_erdos_renyi(300, 0.02, b);
  ASSERT_EQ(ga.edge_count(), gb.edge_count());
  for (VertexId v = 0; v < 300; ++v) {
    const auto na = ga.neighbors(v), nb = gb.neighbors(v);
    ASSERT_EQ(na.size(), nb.size());
    for (std::size_t i = 0; i < na.size(); ++i) EXPECT_EQ(na[i], nb[i]);
  }
}

class GeneratorSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GeneratorSizeSweep, AllFamiliesWellFormed) {
  const std::size_t n = GetParam();
  support::Rng rng(n);
  for (const Graph& g :
       {make_path(n), make_cycle(n), make_star(n), make_binary_tree(n),
        make_erdos_renyi_avg_degree(n, 6.0, rng),
        make_barabasi_albert(n, 2, rng), make_random_tree(n, rng)}) {
    EXPECT_EQ(g.vertex_count(), n);
    std::size_t degsum = 0;
    for (VertexId v = 0; v < n; ++v) {
      degsum += g.degree(v);
      for (VertexId u : g.neighbors(v)) {
        EXPECT_NE(u, v);
        EXPECT_TRUE(g.has_edge(u, v));
      }
    }
    EXPECT_EQ(degsum, 2 * g.edge_count());
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, GeneratorSizeSweep,
                         ::testing::Values(16, 33, 64, 100, 257));

// Pins every randomized generator's output and its effect on the caller's
// Rng: an FNV-1a digest of (name, CSR offsets, adjacency) plus the caller
// Rng's next draw after generation. Any change to a draw sequence, an edge
// order, a name format or the CSR layout shows up here.

namespace {

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void bytes(const void* p, std::size_t len) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < len; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ULL;
    }
  }
  void word(std::uint64_t x) { bytes(&x, sizeof x); }
};

std::uint64_t pin(const Graph& g, support::Rng& rng) {
  Fnv1a f;
  f.bytes(g.name().data(), g.name().size());
  std::uint64_t offset = 0;
  f.word(offset);
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    offset += g.degree(v);
    f.word(offset);
  }
  for (VertexId v = 0; v < g.vertex_count(); ++v)
    for (VertexId u : g.neighbors(v)) f.word(u);
  f.word(rng());
  return f.h;
}

}  // namespace

TEST(Generators, OutputPinned) {
  using exp::Family;
  struct Case {
    std::string label;
    std::uint64_t digest;
  };
  std::vector<Case> got;
  for (Family fam :
       {Family::ErdosRenyiAvg8, Family::Random4Regular, Family::Torus,
        Family::BarabasiAlbert3, Family::GeometricAvg8, Family::RandomTree,
        Family::Cycle, Family::Star})
    for (std::size_t n : {600u, 5000u})
      for (std::uint64_t seed : {1u, 7u}) {
        support::Rng rng(seed);
        const Graph g = exp::make_family(fam, n, rng);
        got.push_back({exp::family_name(fam) + "/n" + std::to_string(n) +
                           "/s" + std::to_string(seed),
                       pin(g, rng)});
      }
  {
    support::Rng rng(5);
    const Graph g = make_erdos_renyi(40, 1.0, rng);
    got.push_back({"er-p1/n40/s5", pin(g, rng)});
  }
  for (std::uint64_t seed : {1u, 7u}) {
    support::Rng rng(seed);
    const Graph ws = make_watts_strogatz(600, 4, 0.1, rng);
    got.push_back({"ws/n600/s" + std::to_string(seed), pin(ws, rng)});
    const Graph sbm = make_planted_partition(600, 4, 0.1, 0.005, rng);
    got.push_back({"sbm/n600/s" + std::to_string(seed), pin(sbm, rng)});
  }

  const std::vector<Case> want = {
      {"er-avg8/n600/s1", 0xed3d0b3bcb83bf35ULL},
      {"er-avg8/n600/s7", 0xe3be463a7b0c4a3aULL},
      {"er-avg8/n5000/s1", 0xcf7dba40b9a2addaULL},
      {"er-avg8/n5000/s7", 0x2dee32ea3ad6eccbULL},
      {"4-regular/n600/s1", 0x0f1bf54d75745de8ULL},
      {"4-regular/n600/s7", 0x4fa32ca30e3869bcULL},
      {"4-regular/n5000/s1", 0x0f9437a97ce0bcd5ULL},
      {"4-regular/n5000/s7", 0x9f7f0ae5c7a27d03ULL},
      {"torus/n600/s1", 0xc65defc42b3f0fc6ULL},
      {"torus/n600/s7", 0x542eb4e8a07d15a9ULL},
      {"torus/n5000/s1", 0xa7f40b7388b6a961ULL},
      {"torus/n5000/s7", 0x7645cb5c72f3222aULL},
      {"ba-m3/n600/s1", 0xd00c65518cbc51d1ULL},
      {"ba-m3/n600/s7", 0x930437d97c322358ULL},
      {"ba-m3/n5000/s1", 0x980ed7b15dd17726ULL},
      {"ba-m3/n5000/s7", 0x12f725aedf944908ULL},
      {"rgg-avg8/n600/s1", 0xb05c0c65b2984369ULL},
      {"rgg-avg8/n600/s7", 0x14b7987de0f032d5ULL},
      {"rgg-avg8/n5000/s1", 0x6d1a887c4eb63313ULL},
      {"rgg-avg8/n5000/s7", 0xf712a16ca021375eULL},
      {"rand-tree/n600/s1", 0xb5bd07f553a8ae8cULL},
      {"rand-tree/n600/s7", 0xea90391526de0aaaULL},
      {"rand-tree/n5000/s1", 0xb6954262773a5e0cULL},
      {"rand-tree/n5000/s7", 0x1af9aee1084d5e38ULL},
      {"cycle/n600/s1", 0x71377df46b4a23deULL},
      {"cycle/n600/s7", 0x4b2f760214fea001ULL},
      {"cycle/n5000/s1", 0x2ea3f20e195a37a8ULL},
      {"cycle/n5000/s7", 0xd0494877754ea28fULL},
      {"star/n600/s1", 0x22b01d5e7f8ad7fcULL},
      {"star/n600/s7", 0xaefbc8ed81d70ec3ULL},
      {"star/n5000/s1", 0x13c3b7c6f9c11109ULL},
      {"star/n5000/s7", 0x1f6216e808237eb2ULL},
      {"er-p1/n40/s5", 0xaab1a475bbfb8198ULL},
      {"ws/n600/s1", 0x630b3ea591ae0dc7ULL},
      {"sbm/n600/s1", 0xc3127977e4f4247eULL},
      {"ws/n600/s7", 0x3be1fbe6deee4063ULL},
      {"sbm/n600/s7", 0xecf9bac9304ed411ULL},
  };
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].label, want[i].label);
    EXPECT_EQ(got[i].digest, want[i].digest)
        << "{\"" << got[i].label << "\", 0x" << std::hex << got[i].digest
        << "ULL},";
  }
}

}  // namespace
}  // namespace beepmis::graph
