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
  if (u > v) std::swap(u, v);
  edges_.emplace_back(u, v);
}

Graph GraphBuilder::build() && {
  std::sort(edges_.begin(), edges_.end());
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());
  // Sorted (u, v) pairs with u < v reach every row in ascending order — a
  // row's smaller neighbors arrive as (u, row) pairs before its larger ones
  // as (row, v) — so the streaming fill needs no row sort, and its
  // strictly-ascending check holds.
  StreamingCsrBuilder b(n_, std::move(name_));
  for (const auto& [u, v] : edges_) b.count_edge(u, v);
  b.begin_fill();
  for (const auto& [u, v] : edges_) b.fill_edge(u, v);
  return std::move(b).finish(/*sort_rows=*/false);
}

StreamingCsrBuilder::StreamingCsrBuilder(std::size_t vertex_count,
                                         std::string name)
    : n_(vertex_count) {
  g_.name_ = std::move(name);
  support::reserve_huge(g_.offsets_, n_ + 1);
  g_.offsets_.assign(n_ + 1, 0);
}

void StreamingCsrBuilder::count_edge(VertexId u, VertexId v) {
  BEEPMIS_CHECK(!filling_, "count_edge after begin_fill");
  BEEPMIS_CHECK(u < n_ && v < n_, "edge endpoint out of range");
  BEEPMIS_CHECK(u != v, "self-loops are not allowed in a simple graph");
  ++g_.offsets_[u + 1];
  ++g_.offsets_[v + 1];
}

void StreamingCsrBuilder::begin_fill() {
  BEEPMIS_CHECK(!filling_, "begin_fill called twice");
  filling_ = true;
  for (std::size_t i = 1; i <= n_; ++i) g_.offsets_[i] += g_.offsets_[i - 1];
  // During the fill pass offsets_[v] doubles as row v's write cursor: it
  // starts at the row head, ends at the row end, and finish() shifts the
  // whole array one slot right to recover the real offsets.
  support::reserve_huge(g_.adjacency_, g_.offsets_[n_]);
  g_.adjacency_.resize(g_.offsets_[n_]);
}

Graph StreamingCsrBuilder::finish(bool sort_rows) && {
  BEEPMIS_CHECK(filling_, "finish before begin_fill");
  BEEPMIS_CHECK(filled_ * 2 == g_.adjacency_.size(),
                "fill pass replayed a different edge count than pass 1");
  for (std::size_t v = n_; v >= 1; --v) g_.offsets_[v] = g_.offsets_[v - 1];
  g_.offsets_[0] = 0;
  for (std::size_t v = 0; v < n_; ++v) {
    const auto first = g_.adjacency_.begin() +
                       static_cast<std::ptrdiff_t>(g_.offsets_[v]);
    const auto last = g_.adjacency_.begin() +
                      static_cast<std::ptrdiff_t>(g_.offsets_[v + 1]);
    if (sort_rows) std::sort(first, last);
    BEEPMIS_CHECK(std::adjacent_find(first, last,
                                     [](VertexId a, VertexId b) {
                                       return a >= b;
                                     }) == last,
                  "streamed CSR row not strictly ascending "
                  "(duplicate or out-of-order edge)");
    g_.max_degree_ =
        std::max(g_.max_degree_, g_.offsets_[v + 1] - g_.offsets_[v]);
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
