#include "src/graph/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include "src/graph/generators.hpp"
#include "src/support/rng.hpp"

namespace beepmis::graph {
namespace {

TEST(GraphBuilder, EmptyGraph) {
  Graph g = GraphBuilder(0).build();
  EXPECT_EQ(g.vertex_count(), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_EQ(g.max_degree(), 0u);
}

TEST(GraphBuilder, SingleVertexNoEdges) {
  Graph g = GraphBuilder(1).build();
  EXPECT_EQ(g.vertex_count(), 1u);
  EXPECT_EQ(g.degree(0), 0u);
  EXPECT_TRUE(g.neighbors(0).empty());
}

TEST(GraphBuilder, Triangle) {
  GraphBuilder b(3, "tri");
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 0);
  Graph g = std::move(b).build();
  EXPECT_EQ(g.vertex_count(), 3u);
  EXPECT_EQ(g.edge_count(), 3u);
  EXPECT_EQ(g.max_degree(), 2u);
  EXPECT_EQ(g.name(), "tri");
  for (VertexId v = 0; v < 3; ++v) EXPECT_EQ(g.degree(v), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_TRUE(g.has_edge(2, 0));
}

TEST(GraphBuilder, DeduplicatesParallelEdges) {
  GraphBuilder b(2);
  b.add_edge(0, 1);
  b.add_edge(1, 0);
  b.add_edge(0, 1);
  Graph g = std::move(b).build();
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 1u);
}

TEST(GraphBuilder, NeighborhoodsAreSorted) {
  GraphBuilder b(6);
  b.add_edge(3, 5);
  b.add_edge(3, 1);
  b.add_edge(3, 4);
  b.add_edge(3, 0);
  Graph g = std::move(b).build();
  const auto nb = g.neighbors(3);
  EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
  EXPECT_EQ(nb.size(), 4u);
}

TEST(Graph, HasEdgeNegativeCases) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  Graph g = std::move(b).build();
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(1, 3));
  EXPECT_FALSE(g.has_edge(0, 3));
}

TEST(GraphBuilderDeath, SelfLoopAborts) {
  GraphBuilder b(3);
  EXPECT_DEATH(b.add_edge(1, 1), "Self-loops|self-loops");
}

TEST(GraphBuilderDeath, OutOfRangeEndpointAborts) {
  GraphBuilder b(3);
  EXPECT_DEATH(b.add_edge(0, 3), "out of range");
}

TEST(Graph, DegreeSumEqualsTwiceEdges) {
  GraphBuilder b(5);
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  b.add_edge(3, 4);
  Graph g = std::move(b).build();
  std::size_t total = 0;
  for (VertexId v = 0; v < g.vertex_count(); ++v) total += g.degree(v);
  EXPECT_EQ(total, 2 * g.edge_count());
}


TEST(Graph, HasEdgeMatchesNeighborLists) {
  GraphBuilder b(6);
  b.add_edge(0, 1);
  b.add_edge(0, 3);
  b.add_edge(1, 4);
  b.add_edge(2, 5);
  b.add_edge(4, 5);
  Graph g = std::move(b).build();
  for (VertexId u = 0; u < g.vertex_count(); ++u) {
    for (VertexId v = 0; v < g.vertex_count(); ++v) {
      const auto nb = g.neighbors(u);
      const bool expect = std::find(nb.begin(), nb.end(), v) != nb.end();
      EXPECT_EQ(g.has_edge(u, v), expect) << u << "-" << v;
      EXPECT_EQ(g.has_edge(v, u), expect) << v << "-" << u;
    }
  }
}

TEST(Graph, HasEdgeOnHighDegreeVertex) {
  // Exercises the binary search over a long sorted neighborhood (has_edge
  // relies on build() emitting sorted adjacency lists).
  constexpr VertexId kN = 300;
  GraphBuilder b(kN);
  for (VertexId v = 1; v < kN; ++v)
    if (v % 3 != 0) b.add_edge(0, v);
  Graph g = std::move(b).build();
  EXPECT_TRUE(std::is_sorted(g.neighbors(0).begin(), g.neighbors(0).end()));
  for (VertexId v = 1; v < kN; ++v)
    EXPECT_EQ(g.has_edge(0, v), v % 3 != 0) << v;
  EXPECT_FALSE(g.has_edge(0, 0));
}

// The streaming builder against an independent oracle: one std::set per
// row, filled from the same edges in both orientations.
using Rows = std::vector<std::set<VertexId>>;

void link(Rows& rows, VertexId u, VertexId v) {
  rows[u].insert(v);
  rows[v].insert(u);
}

void expect_rows(const Graph& g, const Rows& want) {
  ASSERT_EQ(g.vertex_count(), want.size());
  std::size_t arcs = 0, max_degree = 0;
  for (VertexId v = 0; v < want.size(); ++v) {
    const auto nb = g.neighbors(v);
    EXPECT_EQ(std::vector<VertexId>(nb.begin(), nb.end()),
              std::vector<VertexId>(want[v].begin(), want[v].end()))
        << "row " << v;
    arcs += want[v].size();
    max_degree = std::max(max_degree, want[v].size());
  }
  EXPECT_EQ(g.edge_count(), arcs / 2);
  EXPECT_EQ(g.max_degree(), max_degree);
}

TEST(StreamingCsrBuilder, EmptyStream) {
  expect_rows(StreamingCsrBuilder(0, 0).finish(), Rows(0));
  expect_rows(StreamingCsrBuilder(3, 5).finish(), Rows(3));
  support::Rng rng(11);
  expect_rows(make_erdos_renyi(2, 0.0, rng), Rows(2));
}

// Runs of every length, vertices that stream nothing, and an edge hint of
// zero, so the adjacency array outgrows its reservation.
TEST(StreamingCsrBuilder, ExpandsLowerRunsIntoRows) {
  const std::vector<std::pair<VertexId, VertexId>> stream = {
      {2, 0}, {2, 1}, {4, 1}, {4, 3}, {5, 0}, {5, 2}, {5, 4}, {7, 6}};
  Rows want(8);
  StreamingCsrBuilder b(8, 0, "hand");
  for (const auto& [u, w] : stream) {
    b.add_lower_edge(u, w);
    link(want, u, w);
  }
  const Graph g = std::move(b).finish();
  EXPECT_EQ(g.name(), "hand");
  expect_rows(g, want);
}

TEST(StreamingCsrBuilder, SortRowsOrdersUnsortedRuns) {
  Rows want(6);
  StreamingCsrBuilder b(6, 4);
  for (const auto& [u, w] : std::vector<std::pair<VertexId, VertexId>>{
           {3, 2}, {3, 0}, {5, 4}, {5, 1}, {5, 3}}) {
    b.add_lower_edge(u, w);
    link(want, u, w);
  }
  expect_rows(std::move(b).finish(/*sort_rows=*/true), want);
}

// p = 1: every lower run is the whole prefix, and the last row is all lower.
TEST(StreamingCsrBuilder, CompleteErdosRenyi) {
  constexpr VertexId kN = 60;
  Rows want(kN);
  for (VertexId u = 0; u < kN; ++u)
    for (VertexId v = u + 1; v < kN; ++v) link(want, u, v);
  support::Rng rng(12);
  expect_rows(make_erdos_renyi(kN, 1.0, rng), want);
}

// Preferential attachment with a std::set per new vertex, as the generator
// is specified: the same draws must give the same rows, hub included, and
// leave the caller's Rng in the same state.
TEST(StreamingCsrBuilder, BarabasiAlbertHubRowMatchesOracle) {
  constexpr std::size_t kN = 3000, kM = 3;
  support::Rng rng(13), oracle_rng(13);
  const Graph g = make_barabasi_albert(kN, kM, rng);
  Rows want(kN);
  std::vector<VertexId> targets;
  const auto attach = [&](VertexId v, VertexId u) {
    link(want, v, u);
    targets.push_back(u);
    targets.push_back(v);
  };
  for (VertexId i = 0; i < kM; ++i) attach(kM, i);
  for (VertexId v = kM + 1; v < kN; ++v) {
    std::set<VertexId> chosen;
    while (chosen.size() < kM)
      chosen.insert(targets[oracle_rng.below(targets.size())]);
    for (VertexId u : chosen) attach(v, u);
  }
  expect_rows(g, want);
  EXPECT_EQ(rng(), oracle_rng());
  VertexId hub = 0;
  for (VertexId v = 1; v < kN; ++v)
    if (g.degree(v) > g.degree(hub)) hub = v;
  EXPECT_GT(g.degree(hub), 20 * kM);  // a hub, whose row is mostly appends
}

TEST(StreamingCsrBuilder, GraphBuilderMergesDuplicatesAndReversedPairs) {
  constexpr VertexId kN = 40;
  support::Rng rng(14);
  Rows want(kN);
  GraphBuilder b(kN);
  for (int i = 0; i < 600; ++i) {
    const auto u = static_cast<VertexId>(rng.below(kN));
    const auto v = static_cast<VertexId>(rng.below(kN));
    if (u == v) continue;
    b.add_edge(u, v);
    b.add_edge(v, u);
    link(want, u, v);
  }
  expect_rows(std::move(b).build(), want);
}

TEST(StreamingCsrBuilderDeath, RejectsMalformedStreams) {
  EXPECT_DEATH(
      {
        StreamingCsrBuilder b(5, 0);
        b.add_lower_edge(3, 1);
        b.add_lower_edge(2, 0);
      },
      "grouped by ascending u");
  EXPECT_DEATH(StreamingCsrBuilder(5, 0).add_lower_edge(2, 2), "w < u");
  EXPECT_DEATH(StreamingCsrBuilder(5, 0).add_lower_edge(1, 3), "w < u");
  EXPECT_DEATH(StreamingCsrBuilder(5, 0).add_lower_edge(5, 0),
               "out of range");
  EXPECT_DEATH(
      {
        StreamingCsrBuilder b(5, 0);
        b.add_lower_edge(3, 1);
        b.add_lower_edge(3, 1);
        (void)std::move(b).finish();
      },
      "strictly ascending");
  EXPECT_DEATH(
      {
        StreamingCsrBuilder b(5, 0);
        b.add_lower_edge(3, 2);
        b.add_lower_edge(3, 1);
        (void)std::move(b).finish(/*sort_rows=*/false);
      },
      "strictly ascending");
}

TEST(RelabelByDegree, PermutationIsDegreeSortedAndConsistent) {
  support::Rng grng(33);
  const auto g = make_barabasi_albert(150, 3, grng);
  const RelabeledGraph r = relabel_by_degree(g);
  ASSERT_EQ(r.graph.vertex_count(), g.vertex_count());
  EXPECT_EQ(r.graph.edge_count(), g.edge_count());
  // perm and inverse are mutually inverse bijections.
  std::set<VertexId> seen(r.perm.begin(), r.perm.end());
  EXPECT_EQ(seen.size(), g.vertex_count());
  for (VertexId nv = 0; nv < g.vertex_count(); ++nv)
    EXPECT_EQ(r.inverse[r.perm[nv]], nv);
  // New ids are ordered by descending original degree, ties by original id.
  for (VertexId nv = 1; nv < g.vertex_count(); ++nv) {
    const VertexId a = r.perm[nv - 1], b = r.perm[nv];
    EXPECT_TRUE(g.degree(a) > g.degree(b) ||
                (g.degree(a) == g.degree(b) && a < b));
  }
  // Adjacency is preserved under the permutation.
  for (VertexId nv = 0; nv < g.vertex_count(); ++nv) {
    std::vector<VertexId> mapped;
    for (VertexId nu : r.graph.neighbors(nv)) mapped.push_back(r.perm[nu]);
    std::sort(mapped.begin(), mapped.end());
    const auto nb = g.neighbors(r.perm[nv]);
    EXPECT_EQ(mapped, std::vector<VertexId>(nb.begin(), nb.end()));
  }
}

TEST(RelabelByDegree, GoldenPermutationPinsTieBreak) {
  // A caterpillar has massive degree ties (every leaf has degree 1, inner
  // spine vertices tie too), so this pins the stable tie-break by original
  // id: any drift to an unstable sort or a different comparator reshuffles
  // the golden values below.
  const auto g = make_caterpillar(/*spine=*/4, /*legs=*/3);
  // Degrees: spine 0 and 3 have 1 spine edge + 3 legs = 4; spine 1, 2 have
  // 2 spine edges + 3 legs = 5; leaves 4..15 have 1.
  const RelabeledGraph r = relabel_by_degree(g);
  const std::vector<VertexId> golden = {1, 2,  0,  3,  4,  5,  6,  7,
                                        8, 9, 10, 11, 12, 13, 14, 15};
  EXPECT_EQ(r.perm, golden);
  EXPECT_EQ(r.graph.name(), "caterpillar_s4_l3_degord");

  // And a randomized instance stays exactly reproducible end to end.
  support::Rng grng(35);
  const auto ba = make_barabasi_albert(24, 2, grng);
  const RelabeledGraph rb = relabel_by_degree(ba);
  std::vector<VertexId> expect(ba.vertex_count());
  std::iota(expect.begin(), expect.end(), VertexId{0});
  std::stable_sort(expect.begin(), expect.end(),
                   [&](VertexId a, VertexId b) {
                     if (ba.degree(a) != ba.degree(b))
                       return ba.degree(a) > ba.degree(b);
                     return a < b;
                   });
  EXPECT_EQ(rb.perm, expect);
}

}  // namespace
}  // namespace beepmis::graph
