#include "src/exp/families.hpp"

#include <cmath>

#include "src/graph/generators.hpp"
#include "src/support/check.hpp"

namespace beepmis::exp {

std::string family_name(Family f) {
  switch (f) {
    case Family::ErdosRenyiAvg8: return "er-avg8";
    case Family::Random4Regular: return "4-regular";
    case Family::Torus: return "torus";
    case Family::BarabasiAlbert3: return "ba-m3";
    case Family::GeometricAvg8: return "rgg-avg8";
    case Family::RandomTree: return "rand-tree";
    case Family::Cycle: return "cycle";
    case Family::Star: return "star";
  }
  return "?";
}

const std::vector<Family>& scaling_families() {
  static const std::vector<Family> fams = {
      Family::ErdosRenyiAvg8, Family::Random4Regular, Family::Torus,
      Family::BarabasiAlbert3, Family::GeometricAvg8,
  };
  return fams;
}

graph::Graph make_family(Family f, std::size_t n, support::Rng& rng) {
  BEEPMIS_CHECK(n >= 16, "experiment families need n >= 16");
  switch (f) {
    case Family::ErdosRenyiAvg8:
      return graph::make_erdos_renyi_avg_degree(n, 8.0, rng);
    case Family::Random4Regular: {
      const std::size_t even_n = n % 2 ? n + 1 : n;  // n*d must be even
      return graph::make_random_regular(even_n, 4, rng);
    }
    case Family::Torus: {
      const auto side = static_cast<std::size_t>(std::lround(std::sqrt(
          static_cast<double>(n))));
      return graph::make_grid(side, side, /*torus=*/true);
    }
    case Family::BarabasiAlbert3:
      return graph::make_barabasi_albert(n, 3, rng);
    case Family::GeometricAvg8: {
      // Expected degree ≈ π r² n (bulk); solve for avg degree 8.
      const double r = std::sqrt(8.0 / (3.14159265358979 * static_cast<double>(n)));
      return graph::make_random_geometric(n, r, rng);
    }
    case Family::RandomTree:
      return graph::make_random_tree(n, rng);
    case Family::Cycle:
      return graph::make_cycle(n);
    case Family::Star:
      return graph::make_star(n);
  }
  BEEPMIS_CHECK(false, "unknown family");
  return graph::Graph{};
}

}  // namespace beepmis::exp
