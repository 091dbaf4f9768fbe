#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/support/check.hpp"

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

/// One-pass streaming CSR construction. The caller streams each undirected
/// edge once, as (u, w) with w < u, grouped by ascending u; the builder
/// appends w to the CSR's own adjacency array and counts both degrees.
/// finish() then expands the recorded lower runs into full rows in place.
/// No edge list is ever materialized beside the CSR, so peak memory is the
/// final CSR itself, which is what lets n = 10^7 instances fit. The caller
/// must not emit duplicate edges (finish() aborts on one); a self-loop, an
/// endpoint out of range or a stream out of u-order aborts at once.
class StreamingCsrBuilder {
 public:
  /// `edge_hint` sizes the adjacency array: the expected edge count, or an
  /// upper bound that real streams stay under. It only places memory: a
  /// stream that outgrows it still builds the same graph, after a
  /// reallocation.
  StreamingCsrBuilder(std::size_t vertex_count, std::size_t edge_hint,
                      std::string name = "graph");

  /// Records undirected edge {u, w}, which needs w < u and u no smaller
  /// than any earlier call's.
  void add_lower_edge(VertexId u, VertexId w) {
    BEEPMIS_CHECK(u < n_, "edge endpoint out of range");
    BEEPMIS_CHECK(w < u, "streamed edge (u, w) needs w < u (no self-loops)");
    BEEPMIS_CHECK(u >= last_u_, "streamed edges not grouped by ascending u");
    last_u_ = u;
    // offsets_[v] packs v's degree (low 32 bits) and the count of lower
    // neighbours v streamed (high 32 bits) until finish().
    g_.offsets_[u] += kLowerOne + 1;
    ++g_.offsets_[w];
    g_.adjacency_.push_back(w);
  }

  /// Freezes into an immutable Graph; the builder is consumed. Pass
  /// sort_rows = true when the stream does not give each u its lower
  /// neighbours in ascending order (e.g. geometric graphs). Rows must end up
  /// strictly ascending — a duplicate edge aborts, matching the
  /// simple-graph contract (dedup is the caller's job here, unlike
  /// GraphBuilder).
  Graph finish(bool sort_rows = false) &&;

 private:
  static constexpr std::size_t kLowerOne = std::size_t{1} << 32;
  std::size_t n_;
  VertexId last_u_ = 0;
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
