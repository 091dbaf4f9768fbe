#include "src/graph/graph.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "src/support/check.hpp"
#include "src/support/huge_pages.hpp"

namespace beepmis::graph {

bool Graph::has_edge(VertexId u, VertexId v) const {
  BEEPMIS_CHECK(u < vertex_count() && v < vertex_count(), "vertex out of range");
  const auto nb = neighbors(u);
  return std::binary_search(nb.begin(), nb.end(), v);
}

GraphBuilder::GraphBuilder(std::size_t vertex_count, std::string name)
    : n_(vertex_count), name_(std::move(name)) {
  // The text parsers size a builder from an untrusted header: refuse counts
  // no VertexId can address before build() allocates offsets for them.
  BEEPMIS_CHECK(n_ <= std::numeric_limits<VertexId>::max(),
                "graph: vertex count exceeds 32-bit vertex ids");
}

void GraphBuilder::add_edge(VertexId u, VertexId v) {
  BEEPMIS_CHECK(u < n_ && v < n_, "edge endpoint out of range");
  BEEPMIS_CHECK(u != v, "self-loops are not allowed in a simple graph");
  if (u < v) std::swap(u, v);
  edges_.emplace_back(u, v);
}

Graph GraphBuilder::build() && {
  // Sorted (larger, smaller) pairs are exactly the streaming builder's
  // order: grouped by ascending larger endpoint, each group's lower
  // neighbours ascending, so finish() needs no row sort.
  std::sort(edges_.begin(), edges_.end());
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());
  StreamingCsrBuilder b(n_, edges_.size(), std::move(name_));
  for (const auto& [u, w] : edges_) b.add_lower_edge(u, w);
  return std::move(b).finish(/*sort_rows=*/false);
}

StreamingCsrBuilder::StreamingCsrBuilder(std::size_t vertex_count,
                                         std::size_t edge_hint,
                                         std::string name)
    : n_(vertex_count) {
  // Degrees share a 64-bit slot with the lower-run counts, 32 bits each.
  BEEPMIS_CHECK(n_ <= std::numeric_limits<VertexId>::max(),
                "graph: vertex count exceeds 32-bit vertex ids");
  g_.name_ = std::move(name);
  support::reserve_huge(g_.offsets_, n_ + 1);
  g_.offsets_.assign(n_ + 1, 0);
  // finish() grows the recorded lower runs to both arcs of every edge.
  support::reserve_huge(g_.adjacency_, 2 * edge_hint);
}

Graph StreamingCsrBuilder::finish(bool sort_rows) && {
  std::vector<std::size_t>& off = g_.offsets_;
  std::vector<VertexId>& adj = g_.adjacency_;
  const std::size_t m = adj.size();
  // The recorded lower runs move to the back half. Walking u upwards then
  // moves u's run to the head of row u and appends u to each lower
  // neighbour's upper part. No write passes the read position: rows below
  // u hold sum(lower) + sum(upper) <= sum(lower) + m arcs, which is where
  // u's run is read from.
  adj.resize(2 * m);
  std::copy(adj.begin(), adj.begin() + static_cast<std::ptrdiff_t>(m),
            adj.begin() + static_cast<std::ptrdiff_t>(m));
  std::size_t read = m, row = 0;
  for (std::size_t u = 0; u < n_; ++u) {
    const std::size_t lower = off[u] >> 32;
    const std::size_t degree = off[u] & (kLowerOne - 1);
    for (std::size_t i = 0; i < lower; ++i) {
      const VertexId w = adj[read + i];
      adj[row + i] = w;
      adj[off[w]++] = static_cast<VertexId>(u);
    }
    // From here on offsets_[u] is row u's write cursor: it ends at the row
    // end, and the shift below turns cursors into offsets.
    off[u] = row + lower;
    row += degree;
    read += lower;
  }
  for (std::size_t v = n_; v >= 1; --v) off[v] = off[v - 1];
  off[0] = 0;
  for (std::size_t v = 0; v < n_; ++v) {
    const auto first = adj.begin() + static_cast<std::ptrdiff_t>(off[v]);
    const auto last = adj.begin() + static_cast<std::ptrdiff_t>(off[v + 1]);
    if (sort_rows) std::sort(first, last);
    BEEPMIS_CHECK(std::adjacent_find(first, last,
                                     [](VertexId a, VertexId b) {
                                       return a >= b;
                                     }) == last,
                  "streamed CSR row not strictly ascending "
                  "(duplicate or out-of-order edge)");
    g_.max_degree_ = std::max(g_.max_degree_, off[v + 1] - off[v]);
  }
  return std::move(g_);
}

RelabeledGraph relabel_by_degree(const Graph& g) {
  const std::size_t n = g.vertex_count();
  RelabeledGraph out;
  out.perm.resize(n);
  std::iota(out.perm.begin(), out.perm.end(), VertexId{0});
  std::stable_sort(out.perm.begin(), out.perm.end(),
                   [&](VertexId a, VertexId b) {
                     return g.degree(a) != g.degree(b)
                                ? g.degree(a) > g.degree(b)
                                : a < b;
                   });
  out.inverse.resize(n);
  for (VertexId new_id = 0; new_id < n; ++new_id)
    out.inverse[out.perm[new_id]] = new_id;

  GraphBuilder b(n, g.name() + "_degord");
  for (VertexId v = 0; v < n; ++v)
    for (VertexId u : g.neighbors(v))
      if (v < u) b.add_edge(out.inverse[v], out.inverse[u]);
  out.graph = std::move(b).build();
  return out;
}

}  // namespace beepmis::graph
