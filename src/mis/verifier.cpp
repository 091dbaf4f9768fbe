#include "src/mis/verifier.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>

#include "src/support/check.hpp"

namespace beepmis::mis {

MisCheck check(const graph::Graph& g, const std::vector<bool>& membership) {
  BEEPMIS_CHECK(membership.size() == g.vertex_count(), "size mismatch");
  const std::size_t n = g.vertex_count();
  const std::size_t words = (n + 63) / 64;
  // Bit v of word v / 64: v is a member (in), v has a member neighbor
  // (dominated). Only members' rows are walked, each marking its
  // neighbors; then a member is dependent iff dominated, a non-member is
  // covered iff dominated, and both checks are word ops.
  std::vector<std::uint64_t> in(words, 0), dominated(words, 0);
  for (std::size_t w = 0; w < words; ++w) {
    const std::size_t base = w * 64;
    const std::size_t count = std::min<std::size_t>(64, n - base);
    std::uint64_t bits = 0;
    for (std::size_t k = 0; k < count; ++k)
      bits |= std::uint64_t{membership[base + k]} << k;
    in[w] = bits;
  }
  for (std::size_t w = 0; w < words; ++w) {
    for (std::uint64_t m = in[w]; m != 0; m &= m - 1) {
      const auto v = static_cast<graph::VertexId>(w * 64 + std::countr_zero(m));
      for (graph::VertexId u : g.neighbors(v))
        dominated[u >> 6] |= std::uint64_t{1} << (u & 63);
    }
  }
  MisCheck r;
  for (std::size_t w = 0; w < words; ++w) {
    const std::size_t count = std::min<std::size_t>(64, n - w * 64);
    const std::uint64_t all = ~std::uint64_t{0} >> (64 - count);
    r.independent = r.independent && (in[w] & dominated[w]) == 0;
    r.maximal = r.maximal && (in[w] | dominated[w]) == all;
  }
  return r;
}

bool is_independent(const graph::Graph& g, const std::vector<bool>& membership) {
  return check(g, membership).independent;
}

bool is_maximal(const graph::Graph& g, const std::vector<bool>& membership) {
  return check(g, membership).maximal;
}

bool is_mis(const graph::Graph& g, const std::vector<bool>& membership) {
  const MisCheck r = check(g, membership);
  return r.independent && r.maximal;
}

std::size_t member_count(const std::vector<bool>& membership) {
  return static_cast<std::size_t>(
      std::count(membership.begin(), membership.end(), true));
}

std::vector<bool> greedy_mis(const graph::Graph& g,
                             std::span<const graph::VertexId> order) {
  const std::size_t n = g.vertex_count();
  std::vector<graph::VertexId> identity;
  if (order.empty()) {
    identity.resize(n);
    std::iota(identity.begin(), identity.end(), 0);
    order = identity;
  }
  BEEPMIS_CHECK(order.size() == n, "order must be a permutation of V");
  std::vector<bool> in(n, false), blocked(n, false);
  for (graph::VertexId v : order) {
    BEEPMIS_CHECK(v < n, "order holds a vertex id out of range");
    if (blocked[v]) continue;
    in[v] = true;
    blocked[v] = true;
    for (graph::VertexId u : g.neighbors(v)) blocked[u] = true;
  }
  return in;
}

std::vector<bool> random_greedy_mis(const graph::Graph& g, support::Rng& rng) {
  std::vector<graph::VertexId> order(g.vertex_count());
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng.below(i)]);
  return greedy_mis(g, order);
}

}  // namespace beepmis::mis
