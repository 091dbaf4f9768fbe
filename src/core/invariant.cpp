#include "src/core/invariant.hpp"

#include "src/mis/verifier.hpp"

namespace beepmis::core {

obs::InvariantProbeResult probe_invariants(const Engine& engine,
                                           bool claims_stabilized) {
  obs::InvariantProbeResult r;
  r.stabilized = engine.is_stabilized();
  // The state space of Algorithms 1 and 2 (arXiv 2405.04266, Section 2):
  // ℓ(v) ∈ [-ℓmax(v), ℓmax(v)], resp. [0, ℓmax(v)]. Every update rule and
  // every transient fault stays inside it, so this holds at every round.
  r.levels_in_range = engine.levels_in_range();
  if (claims_stabilized || r.stabilized) {
    // Theorems 2.1 and 2.2 and Corollary 2.3: once S_t = I_t ∪ N(I_t) = V,
    // I_t is an MIS. I_t is recomputed from the levels (a member level with
    // every neighbor at its cap), never taken from the engine's settlement.
    const mis::MisCheck mis = mis::check(engine.graph(), engine.mis_members());
    r.independent = mis.independent;
    r.maximal = mis.maximal;
  }
  return r;
}

obs::InvariantProbe make_invariant_probe(const Engine& engine) {
  const Engine* e = &engine;
  return [e](bool claims_stabilized) {
    return probe_invariants(*e, claims_stabilized);
  };
}

obs::FlightRecorder::LevelProbe make_level_probe(const Engine& engine) {
  const Engine* e = &engine;
  return [e]() {
    std::vector<std::int32_t> levels(e->graph().vertex_count());
    for (std::size_t v = 0; v < levels.size(); ++v) levels[v] = e->level(v);
    return levels;
  };
}

}  // namespace beepmis::core
