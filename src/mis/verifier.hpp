#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "src/graph/graph.hpp"
#include "src/support/rng.hpp"

namespace beepmis::mis {

/// membership[v] == true iff v is in the candidate set. All checks are
/// performed by an omniscient external observer — they are verification
/// tooling, not part of any distributed algorithm.

/// Both halves of the MIS definition, as found by one check() pass.
struct MisCheck {
  bool independent = true;  ///< no two members are adjacent
  bool maximal = true;      ///< every non-member has a member neighbor
};

/// Independence and maximality in one O(n + m) pass over the members'
/// rows: a vertex is fine iff it is a member exactly when no neighbor is.
/// Scratch is 2n bits, independent of m.
MisCheck check(const graph::Graph& g, const std::vector<bool>& membership);

/// No two members are adjacent.
bool is_independent(const graph::Graph& g, const std::vector<bool>& membership);

/// Every non-member has a member neighbor (i.e. the set is dominating, which
/// for an independent set is exactly maximality).
bool is_maximal(const graph::Graph& g, const std::vector<bool>& membership);

/// Independent and maximal.
bool is_mis(const graph::Graph& g, const std::vector<bool>& membership);

std::size_t member_count(const std::vector<bool>& membership);

/// Reference sequential greedy MIS in the given vertex order (identity order
/// if `order` is empty). Used as ground truth in tests and size comparisons.
std::vector<bool> greedy_mis(const graph::Graph& g,
                             std::span<const graph::VertexId> order = {});

/// Greedy MIS in a uniformly random order.
std::vector<bool> random_greedy_mis(const graph::Graph& g, support::Rng& rng);

}  // namespace beepmis::mis
