#include "src/core/invariant.hpp"

#include "src/mis/verifier.hpp"

namespace beepmis::core {

obs::InvariantProbeResult probe_invariants(const Engine& engine,
                                           bool claims_stabilized) {
  const graph::Graph& g = engine.graph();
  obs::InvariantProbeResult r;
  r.stabilized = engine.is_stabilized();
  const std::size_t n = g.vertex_count();
  for (graph::VertexId v = 0; v < n; ++v) {
    const std::int32_t l = engine.level(v);
    if (l < engine.member_level(v) || l > engine.lmax(v)) {
      r.levels_in_range = false;
      break;
    }
  }
  if (claims_stabilized || r.stabilized) {
    const std::vector<bool> members = engine.mis_members();
    r.independent = mis::is_independent(g, members);
    r.maximal = mis::is_maximal(g, members);
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
