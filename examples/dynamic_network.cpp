/// Dynamic network scenario: a mobile ad-hoc network whose links churn as
/// nodes move, and whose nodes occasionally crash (go silent, dropping all
/// links) and rejoin. The MIS clusterhead structure must keep healing. This
/// exercises the dynamic-topology extension: graph perturbation + level
/// carry-over + re-stabilization, with a convergence log dumped as CSV.

#include <algorithm>
#include <iostream>
#include <memory>

#include "src/core/init.hpp"
#include "src/core/lmax.hpp"
#include "src/core/selfstab_mis.hpp"
#include "src/core/transfer.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/perturb.hpp"
#include "src/mis/verifier.hpp"
#include "src/obs/sink.hpp"

int main() {
  using namespace beepmis;

  support::Rng grng(77);
  graph::Graph topo = graph::make_random_geometric(200, 0.12, grng);
  std::printf("mobile network: %zu nodes, %zu links initially\n\n",
              topo.vertex_count(), topo.edge_count());

  auto algo = std::make_unique<core::SelfStabMis>(
      topo, core::lmax_own_degree(topo), core::Knowledge::OwnDegree);
  auto* a = algo.get();
  auto sim = std::make_unique<beep::Simulation>(topo, std::move(algo), 11);
  support::Rng chaos(13);
  core::apply_init(*a, core::InitPolicy::UniformRandom, chaos);

  obs::MemorySink log;
  auto settle = [&](const char* what) {
    sim->add_observer(&log);  // each epoch settles a fresh simulation
    const auto start = sim->round();
    while (!a->is_stabilized() && sim->round() - start < 100000) sim->step();
    const auto members = a->mis_members();
    std::printf("%-24s +%4llu rounds  links=%5zu  clusterheads=%3zu  valid=%s\n",
                what, static_cast<unsigned long long>(sim->round() - start),
                topo.edge_count(), mis::member_count(members),
                mis::is_mis(topo, members) ? "yes" : "NO");
  };

  settle("cold start");

  // Ten epochs of mobility: each churns 5% of the links, then one epoch
  // crashes 10 nodes (isolation) and later restores fresh links for them.
  for (int epoch = 1; epoch <= 10; ++epoch) {
    const std::size_t churn = topo.edge_count() / 20;
    graph::Graph next = (epoch == 5)
                            ? graph::isolate_vertices(topo, 10, chaos)
                            : graph::perturb_edges(topo, churn, churn, chaos);
    // The simulation and algorithm borrow the graph: save the surviving
    // RAM (levels), tear the old world down, then rebuild on the new
    // topology before re-applying the levels (clamped to the new lmax).
    std::vector<std::int32_t> old_levels(topo.vertex_count());
    for (graph::VertexId v = 0; v < topo.vertex_count(); ++v)
      old_levels[v] = a->level(v);
    sim.reset();
    topo = std::move(next);
    auto algo2 = std::make_unique<core::SelfStabMis>(
        topo, core::lmax_own_degree(topo), core::Knowledge::OwnDegree);
    auto* a2 = algo2.get();
    for (graph::VertexId v = 0; v < topo.vertex_count(); ++v)
      a2->set_level(v, std::clamp(old_levels[v], -a2->lmax(v), a2->lmax(v)));
    a = a2;
    sim = std::make_unique<beep::Simulation>(topo, std::move(algo2),
                                             1000 + epoch);
    char label[40];
    std::snprintf(label, sizeof label,
                  epoch == 5 ? "epoch %d (10 crashes)" : "epoch %d (churn)",
                  epoch);
    settle(label);
  }

  std::printf("\nconvergence log: %zu observed rounds (CSV below, last 5)\n",
              log.events().size());
  const auto& pts = log.events();
  std::printf("round,prominent,stable,mis,beeps\n");
  for (std::size_t i = pts.size() >= 5 ? pts.size() - 5 : 0; i < pts.size();
       ++i)
    std::printf("%llu,%u,%u,%u,%u\n",
                static_cast<unsigned long long>(pts[i].round),
                pts[i].prominent, pts[i].stable, pts[i].mis,
                pts[i].beeps_ch1);
  return 0;
}
