#include "src/graph/properties.hpp"

#include <algorithm>
#include <queue>

#include "src/support/check.hpp"

namespace beepmis::graph {

DegreeStats degree_stats(const Graph& g) {
  DegreeStats s;
  const std::size_t n = g.vertex_count();
  if (n == 0) return s;
  s.min = g.degree(0);
  for (VertexId v = 0; v < n; ++v) {
    const std::size_t d = g.degree(v);
    s.min = std::min(s.min, d);
    s.max = std::max(s.max, d);
    s.mean += static_cast<double>(d);
    if (d == 0) ++s.isolated;
  }
  s.mean /= static_cast<double>(n);
  return s;
}

std::vector<std::size_t> two_hop_max_degree(const Graph& g) {
  const std::size_t n = g.vertex_count();
  std::vector<std::size_t> d2(n);
  for (VertexId v = 0; v < n; ++v) {
    std::size_t m = g.degree(v);
    for (VertexId u : g.neighbors(v)) m = std::max(m, g.degree(u));
    d2[v] = m;
  }
  return d2;
}

namespace {

/// BFS from `src`, writing hop distances into `dist` (SIZE_MAX = unreached).
/// Returns the number of reached vertices.
std::size_t bfs(const Graph& g, VertexId src, std::vector<std::size_t>& dist) {
  dist.assign(g.vertex_count(), static_cast<std::size_t>(-1));
  std::queue<VertexId> q;
  dist[src] = 0;
  q.push(src);
  std::size_t reached = 1;
  while (!q.empty()) {
    const VertexId v = q.front();
    q.pop();
    for (VertexId u : g.neighbors(v)) {
      if (dist[u] == static_cast<std::size_t>(-1)) {
        dist[u] = dist[v] + 1;
        q.push(u);
        ++reached;
      }
    }
  }
  return reached;
}

}  // namespace

std::size_t connected_component_count(const Graph& g) {
  const std::size_t n = g.vertex_count();
  std::vector<bool> seen(n, false);
  std::vector<std::size_t> dist;
  std::size_t components = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (seen[v]) continue;
    ++components;
    bfs(g, v, dist);
    for (VertexId u = 0; u < n; ++u)
      if (dist[u] != static_cast<std::size_t>(-1)) seen[u] = true;
  }
  return components;
}

bool is_connected(const Graph& g) {
  if (g.vertex_count() <= 1) return true;
  std::vector<std::size_t> dist;
  return bfs(g, 0, dist) == g.vertex_count();
}

bool is_regular(const Graph& g, std::size_t d) {
  for (VertexId v = 0; v < g.vertex_count(); ++v)
    if (g.degree(v) != d) return false;
  return true;
}

bool is_triangle_free(const Graph& g) {
  for (VertexId v = 0; v < g.vertex_count(); ++v)
    for (VertexId u : g.neighbors(v)) {
      if (u < v) continue;
      for (VertexId w : g.neighbors(u))
        if (w > u && g.has_edge(v, w)) return false;
    }
  return true;
}

std::vector<std::size_t> bfs_distances(const Graph& g, VertexId src) {
  std::vector<std::size_t> dist;
  bfs(g, src, dist);
  return dist;
}

Graph graph_power(const Graph& g, std::size_t k) {
  BEEPMIS_CHECK(k >= 1, "graph power needs k >= 1");
  const std::size_t n = g.vertex_count();
  GraphBuilder b(n, g.name() + "^" + std::to_string(k));
  std::vector<std::size_t> dist;
  for (VertexId v = 0; v < n; ++v) {
    bfs(g, v, dist);
    for (VertexId u = v + 1; u < n; ++u)
      if (dist[u] != static_cast<std::size_t>(-1) && dist[u] <= k)
        b.add_edge(v, u);
  }
  return std::move(b).build();
}

std::vector<std::pair<VertexId, VertexId>> edge_list(const Graph& g) {
  std::vector<std::pair<VertexId, VertexId>> edges;
  edges.reserve(g.edge_count());
  for (VertexId v = 0; v < g.vertex_count(); ++v)
    for (VertexId u : g.neighbors(v))
      if (v < u) edges.emplace_back(v, u);
  return edges;
}

Graph line_graph(const Graph& g) {
  const auto edges = edge_list(g);
  GraphBuilder b(edges.size(), "L(" + g.name() + ")");
  // Group edge ids by endpoint; edges sharing an endpoint form a clique.
  std::vector<std::vector<VertexId>> incident(g.vertex_count());
  for (VertexId e = 0; e < edges.size(); ++e) {
    incident[edges[e].first].push_back(e);
    incident[edges[e].second].push_back(e);
  }
  for (const auto& bucket : incident)
    for (std::size_t i = 0; i < bucket.size(); ++i)
      for (std::size_t j = i + 1; j < bucket.size(); ++j)
        b.add_edge(bucket[i], bucket[j]);
  return std::move(b).build();
}

std::size_t diameter(const Graph& g) {
  const std::size_t n = g.vertex_count();
  if (n <= 1) return 0;
  std::size_t diam = 0;
  std::vector<std::size_t> dist;
  for (VertexId v = 0; v < n; ++v) {
    const std::size_t reached = bfs(g, v, dist);
    BEEPMIS_CHECK(reached == n, "diameter of a disconnected graph");
    for (std::size_t d : dist) diam = std::max(diam, d);
  }
  return diam;
}

}  // namespace beepmis::graph
