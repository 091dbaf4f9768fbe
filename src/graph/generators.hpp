#pragma once

#include <cstddef>

#include "src/graph/graph.hpp"
#include "src/support/rng.hpp"

namespace beepmis::graph {

using support::Rng;

// Deterministic families -----------------------------------------------------

/// Path P_n: 0-1-2-…-(n-1).
Graph make_path(std::size_t n);
/// Cycle C_n (n >= 3).
Graph make_cycle(std::size_t n);
/// Star K_{1,n-1} with center 0.
Graph make_star(std::size_t n);
/// Complete graph K_n.
Graph make_complete(std::size_t n);
/// Complete bipartite K_{a,b} (parts [0,a) and [a,a+b)).
Graph make_complete_bipartite(std::size_t a, std::size_t b);
/// rows×cols 2D grid; `torus` adds wraparound edges.
Graph make_grid(std::size_t rows, std::size_t cols, bool torus = false);
/// Complete binary tree on n vertices (heap indexing).
Graph make_binary_tree(std::size_t n);
/// d-dimensional hypercube Q_d (2^d vertices).
Graph make_hypercube(std::size_t dim);
/// Caterpillar: a spine path of `spine` vertices, `legs` pendant leaves per
/// spine vertex. Degenerate-degree family used in heterogeneity tests.
Graph make_caterpillar(std::size_t spine, std::size_t legs);
/// Lollipop: K_m glued to a path of p extra vertices. Classic mixing-time
/// pathology; exercises the asymmetric-lmax code paths.
Graph make_lollipop(std::size_t clique, std::size_t path);
/// Star of cliques: `cliques` disjoint K_k, one designated vertex of each
/// clique connected to a global hub. Extreme degree heterogeneity — the
/// regime where Thm 2.1 (global Δ) and Thm 2.2 (own degree) lmax policies
/// diverge most.
Graph make_star_of_cliques(std::size_t cliques, std::size_t k);

// Random families -------------------------------------------------------------
//
// Every generator advances the caller's Rng by exactly the draws it makes.
// Erdős–Rényi, Barabási–Albert and the random geometric graph replay their
// edge stream twice through a StreamingCsrBuilder (count pass from a copy
// of the Rng, fill pass from the Rng itself), so they never materialize an
// edge list and peak memory is the final CSR itself. That is what makes
// n = 10^7 instances fit under a few GiB. The other random families collect
// edges in a GraphBuilder.

/// Erdős–Rényi G(n, p).
Graph make_erdos_renyi(std::size_t n, double p, Rng& rng);
/// G(n, p) with p chosen so the expected average degree is `avg_degree`.
Graph make_erdos_renyi_avg_degree(std::size_t n, double avg_degree, Rng& rng);
/// Random d-regular via the configuration/pairing model, resampling until the
/// multigraph is simple (n·d must be even; d < n).
Graph make_random_regular(std::size_t n, std::size_t d, Rng& rng);
/// Barabási–Albert preferential attachment: each new vertex attaches `m`
/// edges; yields a power-law degree distribution (heavy heterogeneity).
Graph make_barabasi_albert(std::size_t n, std::size_t m, Rng& rng);
/// Random geometric graph: n points uniform in the unit square, edge iff
/// distance <= radius. The canonical wireless-sensor-network topology the
/// beeping model motivates.
Graph make_random_geometric(std::size_t n, double radius, Rng& rng);
/// Uniform random labelled tree (Prüfer-free: random attachment to an
/// earlier vertex — a random recursive tree).
Graph make_random_tree(std::size_t n, Rng& rng);
/// Watts–Strogatz small world: ring lattice with k nearest neighbors per
/// side (even k), each edge rewired with probability beta. Clustering +
/// short diameter; a classic ad-hoc-network topology.
Graph make_watts_strogatz(std::size_t n, std::size_t k, double beta,
                          Rng& rng);
/// Planted-partition stochastic block model: `blocks` equal communities,
/// intra-community edge probability p_in, inter-community p_out.
Graph make_planted_partition(std::size_t n, std::size_t blocks, double p_in,
                             double p_out, Rng& rng);

}  // namespace beepmis::graph
