#include "src/beep/fault.hpp"

#include <unordered_set>

#include "src/obs/recovery.hpp"
#include "src/support/check.hpp"

namespace beepmis::beep {

std::vector<graph::VertexId> FaultInjector::corrupt_random(
    Simulation& sim, std::size_t count, support::Rng& rng,
    obs::RecoveryTracker* recovery) {
  const std::size_t n = sim.graph().vertex_count();
  BEEPMIS_CHECK(count <= n, "cannot corrupt more nodes than exist");
  const auto chosen = choose_distinct(n, count, rng);
  corrupt_nodes(sim, chosen, rng);
  if (recovery != nullptr)
    recovery->on_fault(sim.round(), "corrupt-random", chosen.size());
  return chosen;
}

std::vector<graph::VertexId> FaultInjector::choose_distinct(
    std::size_t n, std::size_t count, support::Rng& rng) {
  BEEPMIS_CHECK(count <= n, "cannot choose more vertices than exist");
  std::vector<graph::VertexId> chosen;
  chosen.reserve(count);
  std::unordered_set<graph::VertexId> seen;
  seen.reserve(count);
  for (std::size_t j = n - count; j < n; ++j) {
    auto t = static_cast<graph::VertexId>(rng.below(j + 1));
    // Every earlier pick is below j, so j itself is always still free.
    if (!seen.insert(t).second) {
      t = static_cast<graph::VertexId>(j);
      seen.insert(t);
    }
    chosen.push_back(t);
  }
  return chosen;
}

void FaultInjector::corrupt_nodes(Simulation& sim,
                                  std::span<const graph::VertexId> nodes,
                                  support::Rng& rng,
                                  obs::RecoveryTracker* recovery) {
  for (graph::VertexId v : nodes) sim.algorithm().corrupt_node(v, rng);
  if (recovery != nullptr)
    recovery->on_fault(sim.round(), "corrupt-nodes", nodes.size());
}

void FaultInjector::corrupt_all(Simulation& sim, support::Rng& rng,
                                obs::RecoveryTracker* recovery) {
  const std::size_t n = sim.graph().vertex_count();
  for (graph::VertexId v = 0; v < n; ++v)
    sim.algorithm().corrupt_node(v, rng);
  if (recovery != nullptr)
    recovery->on_fault(sim.round(), "corrupt-all", n);
}

}  // namespace beepmis::beep
