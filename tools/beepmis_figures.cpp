/// beepmis_figures — renders the headline experiment figures as standalone
/// SVG files (no plotting stack required):
///   scaling.svg      T(n) medians for V1/V2/V3 on ER (log-x)  [E1-E3 shape]
///   convergence.svg  |S_t|, |I_t|, |PM_t| along one run
///   recovery.svg     re-stabilization time vs fault size      [E4 shape]
/// Sweep sizes are trimmed relative to the benches so the tool runs in a
/// few seconds; use the bench binaries for the full-precision numbers.

#include <fstream>
#include <iostream>

#include "src/beep/fault.hpp"
#include "src/exp/sweep.hpp"
#include "src/obs/sink.hpp"
#include "src/support/args.hpp"
#include "src/support/stats.hpp"
#include "src/support/svg.hpp"

namespace {

using namespace beepmis;

void scaling_figure(const std::string& dir) {
  support::SvgChart chart("stabilization time vs n (ER avg-deg 8, medians)",
                          "n (log scale)", "rounds");
  chart.set_log_x(true);
  for (auto [variant, label] :
       {std::pair{exp::Variant::GlobalDelta, "V1 global-delta (Thm 2.1)"},
        std::pair{exp::Variant::OwnDegree, "V2 own-degree (Thm 2.2)"},
        std::pair{exp::Variant::TwoChannel, "V3 two-channel (Cor 2.3)"}}) {
    exp::SweepConfig cfg;
    cfg.variant = variant;
    cfg.init = core::InitPolicy::UniformRandom;
    cfg.sizes = exp::pow2_sizes(6, 12);
    cfg.seeds = 10;
    const auto points = exp::run_scaling_sweep(exp::Family::ErdosRenyiAvg8, cfg);
    std::vector<std::pair<double, double>> xs;
    for (const auto& pt : points)
      xs.emplace_back(static_cast<double>(pt.n), pt.rounds.median());
    chart.add_series(label, std::move(xs));
  }
  std::ofstream out(dir + "/scaling.svg");
  chart.write(out);
  std::cout << "wrote " << dir << "/scaling.svg\n";
}

void convergence_figure(const std::string& dir) {
  support::Rng grng(3);
  const graph::Graph g =
      exp::make_family(exp::Family::ErdosRenyiAvg8, 512, grng);
  auto sim = exp::make_selfstab_sim(g, exp::Variant::GlobalDelta, 11);
  support::Rng irng(5);
  exp::apply_init(*sim, core::InitPolicy::UniformRandom, irng);
  obs::MemorySink log;
  sim->add_observer(&log);
  while (!exp::selfstab_stabilized(*sim) && sim->round() < 5000) sim->step();
  support::SvgChart chart("convergence anatomy (n=512, arbitrary start)",
                          "round", "vertices");
  std::vector<std::pair<double, double>> stable, mis, prom;
  for (const obs::RoundEvent& p : log.events()) {
    stable.emplace_back(static_cast<double>(p.round),
                        static_cast<double>(p.stable));
    mis.emplace_back(static_cast<double>(p.round),
                     static_cast<double>(p.mis));
    prom.emplace_back(static_cast<double>(p.round),
                      static_cast<double>(p.prominent));
  }
  chart.add_series("stable |S_t|", std::move(stable));
  chart.add_series("MIS |I_t|", std::move(mis));
  chart.add_series("prominent |PM_t|", std::move(prom));
  std::ofstream out(dir + "/convergence.svg");
  chart.write(out);
  std::cout << "wrote " << dir << "/convergence.svg\n";
}

void recovery_figure(const std::string& dir) {
  constexpr std::size_t kN = 1024;
  support::SvgChart chart("re-stabilization after k-node faults (n=1024)",
                          "faulted nodes k (log scale)", "median rounds");
  chart.set_log_x(true);
  for (auto [variant, label] :
       {std::pair{exp::Variant::GlobalDelta, "V1"},
        std::pair{exp::Variant::OwnDegree, "V2"},
        std::pair{exp::Variant::TwoChannel, "V3"}}) {
    std::vector<std::pair<double, double>> pts;
    for (std::size_t k : {1, 4, 16, 64, 256, 1024}) {
      support::SampleSet rec;
      for (std::uint64_t s = 0; s < 8; ++s) {
        support::Rng grng(31 + s);
        const graph::Graph g =
            exp::make_family(exp::Family::ErdosRenyiAvg8, kN, grng);
        auto sim = exp::make_selfstab_sim(g, variant, 41 + s);
        if (!exp::run_to_stabilization(*sim, exp::default_round_budget(kN))
                 .stabilized)
          continue;
        support::Rng frng(51 + s);
        beep::FaultInjector::corrupt_random(*sim, k, frng);
        const auto r =
            exp::run_to_stabilization(*sim, exp::default_round_budget(kN));
        if (r.stabilized) rec.add(static_cast<double>(r.rounds));
      }
      if (rec.count())
        pts.emplace_back(static_cast<double>(k), rec.median());
    }
    chart.add_series(label, std::move(pts));
  }
  std::ofstream out(dir + "/recovery.svg");
  chart.write(out);
  std::cout << "wrote " << dir << "/recovery.svg\n";
}

}  // namespace

int main(int argc, char** argv) {
  support::ArgParser args("beepmis_figures — render experiment SVGs");
  args.add_option("out-dir", ".", "directory for the .svg files");
  std::string error;
  if (!args.parse(argc, argv, &error)) {
    std::cerr << error << "\n";
    return 2;
  }
  const std::string dir = args.get("out-dir");
  scaling_figure(dir);
  convergence_figure(dir);
  recovery_figure(dir);
  return 0;
}
