#include "src/core/lmax.hpp"

#include <algorithm>
#include <bit>

#include "src/graph/properties.hpp"
#include "src/support/check.hpp"
#include "src/support/huge_pages.hpp"

namespace beepmis::core {

std::string knowledge_name(Knowledge k) {
  switch (k) {
    case Knowledge::GlobalMaxDegree: return "global-max-degree";
    case Knowledge::OwnDegree: return "own-degree";
    case Knowledge::OneHopMaxDegree: return "one-hop-max-degree";
    case Knowledge::Custom: return "custom";
  }
  return "?";
}

namespace {

/// n entries of `value`, advised onto huge pages: every round reads ℓmax
/// at scattered vertices.
LmaxVector filled_lmax(std::size_t n, std::int32_t value) {
  LmaxVector out;
  support::reserve_huge(out, n);
  out.assign(n, value);
  return out;
}

}  // namespace

std::int32_t ceil_log2(std::size_t x) {
  if (x <= 1) return 0;
  return static_cast<std::int32_t>(std::bit_width(x - 1));
}

LmaxVector lmax_global_delta(const graph::Graph& g, std::int32_t c1) {
  BEEPMIS_CHECK(c1 >= 1, "lmax constant must be positive");
  const std::int32_t lmax =
      std::max(2, ceil_log2(g.max_degree()) + c1);  // 2 = liveness minimum
  return filled_lmax(g.vertex_count(), lmax);
}

LmaxVector lmax_own_degree(const graph::Graph& g, std::int32_t c1) {
  BEEPMIS_CHECK(c1 >= 1, "lmax constant must be positive");
  LmaxVector out = filled_lmax(g.vertex_count(), 0);
  for (graph::VertexId v = 0; v < g.vertex_count(); ++v)
    out[v] = std::max(2, 2 * ceil_log2(g.degree(v)) + c1);
  return out;
}

LmaxVector lmax_one_hop(const graph::Graph& g, std::int32_t c1) {
  BEEPMIS_CHECK(c1 >= 1, "lmax constant must be positive");
  const auto d2 = graph::two_hop_max_degree(g);
  LmaxVector out = filled_lmax(g.vertex_count(), 0);
  for (graph::VertexId v = 0; v < g.vertex_count(); ++v)
    out[v] = std::max(2, 2 * ceil_log2(d2[v]) + c1);
  return out;
}

}  // namespace beepmis::core
