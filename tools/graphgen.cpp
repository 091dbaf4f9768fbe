/// beepmis_graphgen — generate graphs from the library's families and write
/// them as edge lists, DIMACS or Graphviz DOT (stdout), or as binary packed
/// CSR (--stream-out FILE), for use with beepmis_cli --graph-file or
/// external tooling.

#include <fstream>
#include <iostream>

#include "src/exp/families.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/io.hpp"
#include "src/graph/properties.hpp"
#include "src/support/args.hpp"

int main(int argc, char** argv) {
  using namespace beepmis;
  support::ArgParser args("beepmis_graphgen — graph generator");
  args.add_option("family", "er-avg8",
                  "er-avg8 | 4-regular | torus | ba-m3 | rgg-avg8 | rand-tree"
                  " | cycle | star | ws | sbm");
  args.add_option("n", "256", "number of vertices");
  args.add_option("seed", "1", "RNG seed");
  args.add_option("ws-k", "4", "Watts-Strogatz lattice degree (family=ws)");
  args.add_option("ws-beta", "0.1", "Watts-Strogatz rewiring prob");
  args.add_option("sbm-blocks", "4", "SBM community count (family=sbm)");
  args.add_option("sbm-pin", "0.1", "SBM intra-community edge prob");
  args.add_option("sbm-pout", "0.005", "SBM inter-community edge prob");
  args.add_flag("dot", "emit Graphviz DOT instead of an edge list");
  args.add_flag("dimacs", "emit DIMACS edge format instead of an edge list");
  args.add_flag("stats", "print degree statistics to stderr");
  args.add_option("stream-out", "",
                  "write binary packed CSR to FILE instead of text (er-avg8,"
                  " ba-m3 and rgg-avg8 build without an edge list in memory"
                  " — n up to 10^7)");

  std::string error;
  if (!args.parse(argc, argv, &error)) {
    std::cerr << error << "\n";
    return 2;
  }

  // The same graph stream beepmis_cli draws from, so a written file loaded
  // with --graph-file reproduces the in-process run at the same seed.
  support::Rng rng = support::Rng(static_cast<std::uint64_t>(
                                      args.get_int("seed")))
                         .derive_stream(0x6ea9);
  const auto n = static_cast<std::size_t>(args.get_int("n"));
  const std::string fam = args.get("family");

  graph::Graph g;
  if (fam == "ws") {
    g = graph::make_watts_strogatz(
        n, static_cast<std::size_t>(args.get_int("ws-k")),
        args.get_double("ws-beta"), rng);
  } else if (fam == "sbm") {
    g = graph::make_planted_partition(
        n, static_cast<std::size_t>(args.get_int("sbm-blocks")),
        args.get_double("sbm-pin"), args.get_double("sbm-pout"), rng);
  } else {
    bool found = false;
    for (exp::Family f :
         {exp::Family::ErdosRenyiAvg8, exp::Family::Random4Regular,
          exp::Family::Torus, exp::Family::BarabasiAlbert3,
          exp::Family::GeometricAvg8, exp::Family::RandomTree,
          exp::Family::Cycle, exp::Family::Star}) {
      if (exp::family_name(f) == fam) {
        g = exp::make_family(f, n, rng);
        found = true;
        break;
      }
    }
    if (!found) {
      std::cerr << "unknown family: " << fam << "\n";
      return 2;
    }
  }

  if (args.flag("stats")) {
    const auto s = graph::degree_stats(g);
    std::cerr << g.name() << ": n=" << g.vertex_count()
              << " m=" << g.edge_count() << " deg[min=" << s.min
              << " mean=" << s.mean << " max=" << s.max
              << " isolated=" << s.isolated << "]\n";
  }
  if (const std::string out = args.get("stream-out"); !out.empty()) {
    std::ofstream os(out, std::ios::binary);
    if (!os) {
      std::cerr << "cannot open " << out << " for writing\n";
      return 2;
    }
    graph::write_packed(g, os);
  } else if (args.flag("dot")) {
    graph::write_dot(g, std::cout);
  } else if (args.flag("dimacs")) {
    graph::write_dimacs(g, std::cout);
  } else {
    graph::write_edge_list(g, std::cout);
  }
  return 0;
}
