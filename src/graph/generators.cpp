#include "src/graph/generators.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <utility>
#include <vector>

#include "src/support/check.hpp"

namespace beepmis::graph {

namespace {

std::string fmt_name(const char* fmt, auto... args) {
  char buf[128];
  std::snprintf(buf, sizeof buf, fmt, args...);
  return buf;
}

/// Runs `edges(rng, emit)` twice through a StreamingCsrBuilder, once
/// counting and once filling. Each pass draws from its own copy of `rng`,
/// so both see the identical edge sequence; the fill pass's end state is
/// written back, so `rng` ends where a single pass would leave it. No edge
/// list is materialized.
template <typename EdgeFn>
Graph stream_two_pass(std::size_t n, std::string name, bool sort_rows,
                      Rng& rng, const EdgeFn& edges) {
  StreamingCsrBuilder b(n, std::move(name));
  edges(rng, [&b](VertexId u, VertexId v) { b.count_edge(u, v); });
  b.begin_fill();
  rng = edges(rng, [&b](VertexId u, VertexId v) { b.fill_edge(u, v); });
  return std::move(b).finish(sort_rows);
}

}  // namespace

Graph make_path(std::size_t n) {
  GraphBuilder b(n, fmt_name("path_n%zu", n));
  for (std::size_t i = 0; i + 1 < n; ++i)
    b.add_edge(static_cast<VertexId>(i), static_cast<VertexId>(i + 1));
  return std::move(b).build();
}

Graph make_cycle(std::size_t n) {
  BEEPMIS_CHECK(n >= 3, "cycle needs n >= 3");
  GraphBuilder b(n, fmt_name("cycle_n%zu", n));
  for (std::size_t i = 0; i < n; ++i)
    b.add_edge(static_cast<VertexId>(i), static_cast<VertexId>((i + 1) % n));
  return std::move(b).build();
}

Graph make_star(std::size_t n) {
  BEEPMIS_CHECK(n >= 1, "star needs n >= 1");
  GraphBuilder b(n, fmt_name("star_n%zu", n));
  for (std::size_t i = 1; i < n; ++i) b.add_edge(0, static_cast<VertexId>(i));
  return std::move(b).build();
}

Graph make_complete(std::size_t n) {
  GraphBuilder b(n, fmt_name("complete_n%zu", n));
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      b.add_edge(static_cast<VertexId>(i), static_cast<VertexId>(j));
  return std::move(b).build();
}

Graph make_complete_bipartite(std::size_t a, std::size_t b_) {
  GraphBuilder b(a + b_, fmt_name("kab_a%zu_b%zu", a, b_));
  for (std::size_t i = 0; i < a; ++i)
    for (std::size_t j = 0; j < b_; ++j)
      b.add_edge(static_cast<VertexId>(i), static_cast<VertexId>(a + j));
  return std::move(b).build();
}

Graph make_grid(std::size_t rows, std::size_t cols, bool torus) {
  BEEPMIS_CHECK(rows >= 1 && cols >= 1, "grid needs positive dimensions");
  if (torus) BEEPMIS_CHECK(rows >= 3 && cols >= 3, "torus needs dims >= 3");
  GraphBuilder b(rows * cols,
                 fmt_name(torus ? "torus_%zux%zu" : "grid_%zux%zu", rows, cols));
  auto id = [cols](std::size_t r, std::size_t c) {
    return static_cast<VertexId>(r * cols + c);
  };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) b.add_edge(id(r, c), id(r, c + 1));
      if (r + 1 < rows) b.add_edge(id(r, c), id(r + 1, c));
      if (torus) {
        if (c + 1 == cols) b.add_edge(id(r, c), id(r, 0));
        if (r + 1 == rows) b.add_edge(id(r, c), id(0, c));
      }
    }
  }
  return std::move(b).build();
}

Graph make_binary_tree(std::size_t n) {
  GraphBuilder b(n, fmt_name("btree_n%zu", n));
  for (std::size_t i = 1; i < n; ++i)
    b.add_edge(static_cast<VertexId>(i), static_cast<VertexId>((i - 1) / 2));
  return std::move(b).build();
}

Graph make_hypercube(std::size_t dim) {
  BEEPMIS_CHECK(dim < 30, "hypercube dimension too large");
  const std::size_t n = std::size_t{1} << dim;
  GraphBuilder b(n, fmt_name("hypercube_d%zu", dim));
  for (std::size_t v = 0; v < n; ++v)
    for (std::size_t bit = 0; bit < dim; ++bit) {
      const std::size_t u = v ^ (std::size_t{1} << bit);
      if (u > v) b.add_edge(static_cast<VertexId>(v), static_cast<VertexId>(u));
    }
  return std::move(b).build();
}

Graph make_caterpillar(std::size_t spine, std::size_t legs) {
  BEEPMIS_CHECK(spine >= 1, "caterpillar needs a spine");
  const std::size_t n = spine * (1 + legs);
  GraphBuilder b(n, fmt_name("caterpillar_s%zu_l%zu", spine, legs));
  for (std::size_t i = 0; i + 1 < spine; ++i)
    b.add_edge(static_cast<VertexId>(i), static_cast<VertexId>(i + 1));
  for (std::size_t i = 0; i < spine; ++i)
    for (std::size_t j = 0; j < legs; ++j)
      b.add_edge(static_cast<VertexId>(i),
                 static_cast<VertexId>(spine + i * legs + j));
  return std::move(b).build();
}

Graph make_lollipop(std::size_t clique, std::size_t path) {
  BEEPMIS_CHECK(clique >= 1, "lollipop needs a clique part");
  GraphBuilder b(clique + path, fmt_name("lollipop_k%zu_p%zu", clique, path));
  for (std::size_t i = 0; i < clique; ++i)
    for (std::size_t j = i + 1; j < clique; ++j)
      b.add_edge(static_cast<VertexId>(i), static_cast<VertexId>(j));
  for (std::size_t i = 0; i < path; ++i) {
    const std::size_t prev = i == 0 ? clique - 1 : clique + i - 1;
    b.add_edge(static_cast<VertexId>(prev), static_cast<VertexId>(clique + i));
  }
  return std::move(b).build();
}

Graph make_star_of_cliques(std::size_t cliques, std::size_t k) {
  BEEPMIS_CHECK(cliques >= 1 && k >= 1, "star_of_cliques needs positive sizes");
  const std::size_t n = 1 + cliques * k;  // vertex 0 is the hub
  GraphBuilder b(n, fmt_name("starcliques_c%zu_k%zu", cliques, k));
  for (std::size_t c = 0; c < cliques; ++c) {
    const std::size_t base = 1 + c * k;
    for (std::size_t i = 0; i < k; ++i)
      for (std::size_t j = i + 1; j < k; ++j)
        b.add_edge(static_cast<VertexId>(base + i),
                   static_cast<VertexId>(base + j));
    b.add_edge(0, static_cast<VertexId>(base));
  }
  return std::move(b).build();
}

Graph make_erdos_renyi(std::size_t n, double p, Rng& rng) {
  BEEPMIS_CHECK(p >= 0.0 && p <= 1.0, "edge probability outside [0,1]");
  // Geometric skipping (Batagelj–Brandes): expected O(n + m) time. It emits
  // (v ascending, w ascending within v), so both endpoints' rows arrive
  // sorted and duplicate-free.
  const auto edges = [n, p](Rng r, auto&& emit) {
    if (p <= 0.0 || n < 2) return r;
    const double logq = std::log1p(-p);
    std::size_t v = 1, w = static_cast<std::size_t>(-1);
    while (v < n) {
      const double u01 = r.uniform01();
      // skip length ~ Geometric(p)
      w += (p < 1.0)
               ? 1 + static_cast<std::size_t>(
                         std::floor(std::log1p(-u01) / logq))
               : 1;
      while (w >= v && v < n) {
        w -= v;
        ++v;
      }
      if (v < n) emit(static_cast<VertexId>(v), static_cast<VertexId>(w));
    }
    return r;
  };
  return stream_two_pass(n, fmt_name("er_n%zu_p%.4f", n, p),
                         /*sort_rows=*/false, rng, edges);
}

Graph make_erdos_renyi_avg_degree(std::size_t n, double avg_degree, Rng& rng) {
  BEEPMIS_CHECK(n >= 2, "need n >= 2");
  const double p = std::min(1.0, avg_degree / static_cast<double>(n - 1));
  return make_erdos_renyi(n, p, rng);
}

Graph make_random_regular(std::size_t n, std::size_t d, Rng& rng) {
  BEEPMIS_CHECK(d < n, "regular degree must be < n");
  BEEPMIS_CHECK((n * d) % 2 == 0, "n*d must be even");
  // Steger–Wormald style pairing: repeatedly draw a uniformly random pair of
  // remaining stubs, accepting only legal pairs (no loop, no parallel edge);
  // restart the construction if no progress is possible. For fixed d the
  // expected number of restarts is O(1), unlike plain configuration-model
  // rejection whose acceptance probability decays like e^{-Θ(d²)}.
  for (int attempt = 0; attempt < 10000; ++attempt) {
    std::vector<VertexId> stubs;
    stubs.reserve(n * d);
    for (std::size_t v = 0; v < n; ++v)
      for (std::size_t i = 0; i < d; ++i)
        stubs.push_back(static_cast<VertexId>(v));
    std::set<std::pair<VertexId, VertexId>> seen;
    bool stuck = false;
    while (!stubs.empty() && !stuck) {
      // Try a bounded number of random pair draws before declaring a dead
      // end (possible only near the end of the process).
      bool matched = false;
      for (int tries = 0; tries < 64; ++tries) {
        const std::size_t i = rng.below(stubs.size());
        std::size_t j = rng.below(stubs.size() - 1);
        if (j >= i) ++j;
        VertexId u = stubs[i], v = stubs[j];
        if (u == v) continue;
        if (u > v) std::swap(u, v);
        if (!seen.emplace(u, v).second) continue;
        // Remove the two stubs (larger index first).
        const std::size_t hi = std::max(i, j), lo = std::min(i, j);
        stubs[hi] = stubs.back();
        stubs.pop_back();
        stubs[lo] = stubs.back();
        stubs.pop_back();
        matched = true;
        break;
      }
      stuck = !matched;
    }
    if (stuck) continue;
    GraphBuilder b(n, fmt_name("regular_n%zu_d%zu", n, d));
    for (const auto& [u, v] : seen) b.add_edge(u, v);
    return std::move(b).build();
  }
  BEEPMIS_CHECK(false, "random regular graph: too many rejections");
  return Graph{};
}

Graph make_barabasi_albert(std::size_t n, std::size_t m, Rng& rng) {
  BEEPMIS_CHECK(m >= 1 && n > m, "BA needs n > m >= 1");
  // Rows arrive sorted: each new vertex v emits its (distinct, ascending)
  // chosen targets — all smaller than v — and lands in older rows in
  // ascending v order. The target list is the sampling structure, so both
  // passes rebuild it.
  const auto edges = [n, m](Rng r, auto&& emit) {
    // Repeated-endpoint list: sampling a uniform element of `targets` is
    // degree-proportional sampling.
    std::vector<VertexId> targets;
    targets.reserve(2 * m * (n - m));
    // Seed: star on the first m+1 vertices.
    for (std::size_t i = 0; i < m; ++i) {
      emit(static_cast<VertexId>(m), static_cast<VertexId>(i));
      targets.push_back(static_cast<VertexId>(i));
      targets.push_back(static_cast<VertexId>(m));
    }
    for (std::size_t v = m + 1; v < n; ++v) {
      std::set<VertexId> chosen;
      while (chosen.size() < m)
        chosen.insert(targets[r.below(targets.size())]);
      for (VertexId u : chosen) {
        emit(static_cast<VertexId>(v), u);
        targets.push_back(u);
        targets.push_back(static_cast<VertexId>(v));
      }
    }
    return r;
  };
  return stream_two_pass(n, fmt_name("ba_n%zu_m%zu", n, m),
                         /*sort_rows=*/false, rng, edges);
}

Graph make_random_geometric(std::size_t n, double radius, Rng& rng) {
  BEEPMIS_CHECK(radius > 0.0, "radius must be positive");
  // Points and the cell grid are drawn once and shared by both passes; only
  // the neighborhood scan repeats. The scan emits a row's neighbors in
  // cell-window order, not id order, so finish() sorts rows.
  std::vector<std::pair<double, double>> pts(n);
  for (auto& [x, y] : pts) {
    x = rng.uniform01();
    y = rng.uniform01();
  }
  // Uniform grid binning: expected O(n) for constant expected degree.
  const auto cells = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::floor(1.0 / radius)));
  const double cell = 1.0 / static_cast<double>(cells);
  std::vector<std::vector<VertexId>> grid(cells * cells);
  auto cell_of = [&](double x) {
    auto c = static_cast<std::size_t>(x / cell);
    return std::min(c, cells - 1);
  };
  for (std::size_t i = 0; i < n; ++i)
    grid[cell_of(pts[i].first) * cells + cell_of(pts[i].second)].push_back(
        static_cast<VertexId>(i));
  const double r2 = radius * radius;
  const auto edges = [&](Rng r, auto&& emit) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t cx = cell_of(pts[i].first);
      const std::size_t cy = cell_of(pts[i].second);
      for (std::size_t dx = (cx == 0 ? 0 : cx - 1);
           dx <= std::min(cx + 1, cells - 1); ++dx)
        for (std::size_t dy = (cy == 0 ? 0 : cy - 1);
             dy <= std::min(cy + 1, cells - 1); ++dy)
          for (VertexId j : grid[dx * cells + dy]) {
            if (j <= i) continue;
            const double ddx = pts[i].first - pts[j].first;
            const double ddy = pts[i].second - pts[j].second;
            if (ddx * ddx + ddy * ddy <= r2)
              emit(static_cast<VertexId>(i), j);
          }
    }
    return r;
  };
  return stream_two_pass(n, fmt_name("rgg_n%zu_r%.3f", n, radius),
                         /*sort_rows=*/true, rng, edges);
}

Graph make_watts_strogatz(std::size_t n, std::size_t k, double beta,
                          Rng& rng) {
  BEEPMIS_CHECK(k >= 2 && k % 2 == 0, "WS needs even k >= 2");
  BEEPMIS_CHECK(n > k + 1, "WS needs n > k+1");
  BEEPMIS_CHECK(beta >= 0.0 && beta <= 1.0, "rewiring prob outside [0,1]");
  // Start from the ring lattice, then rewire each lattice edge's far
  // endpoint with probability beta to a uniform non-duplicate target.
  std::set<std::pair<VertexId, VertexId>> edges;
  auto norm = [](VertexId a, VertexId b) {
    return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  };
  for (std::size_t v = 0; v < n; ++v)
    for (std::size_t j = 1; j <= k / 2; ++j)
      edges.insert(norm(static_cast<VertexId>(v),
                        static_cast<VertexId>((v + j) % n)));
  std::vector<std::pair<VertexId, VertexId>> lattice(edges.begin(),
                                                     edges.end());
  for (auto [u, v] : lattice) {
    if (!rng.bernoulli(beta)) continue;
    // Rewire v's side to a random target; skip on failure to keep counts.
    for (int tries = 0; tries < 32; ++tries) {
      const auto w = static_cast<VertexId>(rng.below(n));
      if (w == u || w == v) continue;
      if (!edges.insert(norm(u, w)).second) continue;
      edges.erase(norm(u, v));
      break;
    }
  }
  GraphBuilder b(n, fmt_name("ws_n%zu_k%zu_b%.2f", n, k, beta));
  for (const auto& [u, v] : edges) b.add_edge(u, v);
  return std::move(b).build();
}

Graph make_planted_partition(std::size_t n, std::size_t blocks, double p_in,
                             double p_out, Rng& rng) {
  BEEPMIS_CHECK(blocks >= 1 && n >= blocks, "bad block structure");
  BEEPMIS_CHECK(p_in >= 0 && p_in <= 1 && p_out >= 0 && p_out <= 1,
                "probabilities outside [0,1]");
  GraphBuilder b(n, fmt_name("sbm_n%zu_b%zu", n, blocks));
  const std::size_t per = n / blocks;
  auto block_of = [&](std::size_t v) { return std::min(v / per, blocks - 1); };
  for (std::size_t u = 0; u < n; ++u)
    for (std::size_t v = u + 1; v < n; ++v) {
      const double p = block_of(u) == block_of(v) ? p_in : p_out;
      if (rng.bernoulli(p))
        b.add_edge(static_cast<VertexId>(u), static_cast<VertexId>(v));
    }
  return std::move(b).build();
}

Graph make_random_tree(std::size_t n, Rng& rng) {
  GraphBuilder b(n, fmt_name("rtree_n%zu", n));
  for (std::size_t v = 1; v < n; ++v)
    b.add_edge(static_cast<VertexId>(v),
               static_cast<VertexId>(rng.below(v)));
  return std::move(b).build();
}

}  // namespace beepmis::graph
