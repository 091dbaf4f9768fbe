#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace beepmis::graph {

using VertexId = std::uint32_t;

/// Immutable simple undirected graph in compressed-sparse-row form.
///
/// The beeping simulator iterates neighborhoods every round for every node,
/// so adjacency locality dominates simulation throughput; CSR keeps each
/// neighborhood contiguous. Vertices are anonymous to algorithms (the model
/// forbids identities); VertexId exists only for the simulator and verifiers.
class Graph {
 public:
  Graph() = default;

  std::size_t vertex_count() const noexcept { return offsets_.empty() ? 0 : offsets_.size() - 1; }
  std::size_t edge_count() const noexcept { return adjacency_.size() / 2; }

  std::span<const VertexId> neighbors(VertexId v) const {
    return {adjacency_.data() + offsets_[v], adjacency_.data() + offsets_[v + 1]};
  }

  std::size_t degree(VertexId v) const { return offsets_[v + 1] - offsets_[v]; }

  /// Maximum degree Δ; 0 for the empty graph.
  std::size_t max_degree() const noexcept { return max_degree_; }

  bool has_edge(VertexId u, VertexId v) const;

  /// Human-readable label recorded by the generator ("er_n1024_p0.008", ...).
  const std::string& name() const noexcept { return name_; }

 private:
  friend class GraphBuilder;
  friend class StreamingCsrBuilder;
  // io.hpp: reads the packed file straight into offsets_ and adjacency_,
  // then validates them in place.
  friend Graph read_packed(std::istream& is, std::string name);
  std::vector<std::size_t> offsets_;
  std::vector<VertexId> adjacency_;
  std::size_t max_degree_ = 0;
  std::string name_;
};

/// Accumulates edges, then freezes into a CSR Graph through a
/// StreamingCsrBuilder. Deduplicates parallel edges and rejects self-loops
/// (the model is on simple graphs). A vertex count beyond 32-bit VertexIds
/// aborts at construction.
class GraphBuilder {
 public:
  explicit GraphBuilder(std::size_t vertex_count, std::string name = "graph");

  /// Adds undirected edge {u, v}. Self-loops abort; duplicates are merged at
  /// build() time.
  void add_edge(VertexId u, VertexId v);

  std::size_t vertex_count() const noexcept { return n_; }

  /// Freezes into an immutable Graph. The builder is consumed.
  Graph build() &&;

 private:
  std::size_t n_;
  std::string name_;
  std::vector<std::pair<VertexId, VertexId>> edges_;
};

/// Two-pass streaming CSR construction. Pass 1 replays the edge stream
/// through count_edge to accumulate degrees; begin_fill() prefix-sums them
/// into offsets and allocates the adjacency array; pass 2 replays the SAME
/// stream through fill_edge; finish() freezes the Graph. Unlike
/// GraphBuilder no edge list is ever materialized — peak memory is the
/// final CSR itself — which is what lets n = 10^7 instances fit. The
/// caller owns replay fidelity (the random generators replay from a copied
/// Rng) and must not emit duplicate edges; self-loops abort as in
/// GraphBuilder.
class StreamingCsrBuilder {
 public:
  explicit StreamingCsrBuilder(std::size_t vertex_count,
                               std::string name = "graph");

  /// Pass 1: record the existence of undirected edge {u, v}.
  void count_edge(VertexId u, VertexId v);

  /// Ends pass 1: turns degree counts into CSR offsets and allocates the
  /// adjacency array.
  void begin_fill();

  /// Pass 2: writes both arcs of undirected edge {u, v}.
  void fill_edge(VertexId u, VertexId v) {
    g_.adjacency_[g_.offsets_[u]++] = v;
    g_.adjacency_[g_.offsets_[v]++] = u;
    ++filled_;
  }

  std::size_t vertex_count() const noexcept { return n_; }

  /// Freezes into an immutable Graph; the builder is consumed. Pass
  /// sort_rows = true when the generator does not emit each neighborhood in
  /// ascending order (e.g. geometric graphs). Rows must end up strictly
  /// ascending — a duplicate edge aborts, matching the simple-graph
  /// contract (dedup is the caller's job here, unlike GraphBuilder).
  Graph finish(bool sort_rows = false) &&;

 private:
  std::size_t n_;
  std::size_t filled_ = 0;
  bool filling_ = false;
  Graph g_;
};

/// Degree-ordered relabeling: vertices sorted by descending degree (ties by
/// original id, so the permutation is deterministic), which gives hub
/// vertices adjacent ids. Returns the relabeled graph — named with a
/// `_degord` suffix — plus the permutation, with `perm[new_id] == old_id`.
struct RelabeledGraph {
  Graph graph;
  std::vector<VertexId> perm;     ///< new id -> old id
  std::vector<VertexId> inverse;  ///< old id -> new id
};
RelabeledGraph relabel_by_degree(const Graph& g);

}  // namespace beepmis::graph
