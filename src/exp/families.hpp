#pragma once

#include <string>
#include <vector>

#include "src/graph/graph.hpp"
#include "src/support/rng.hpp"

namespace beepmis::exp {

/// Named graph families the experiments sweep over, parameterized only by n
/// so scaling plots are one-dimensional.
enum class Family {
  ErdosRenyiAvg8,   ///< G(n, p) with expected average degree 8
  Random4Regular,   ///< random 4-regular
  Torus,            ///< ~sqrt(n) × sqrt(n) torus (constant degree 4)
  BarabasiAlbert3,  ///< preferential attachment, m = 3 (power-law degrees)
  GeometricAvg8,    ///< random unit-disk graph with expected avg degree 8
  RandomTree,       ///< random recursive tree
  Cycle,
  Star,             ///< max-degree pathology: Δ = n−1
};

std::string family_name(Family f);

/// Families used by the headline scaling experiments (excludes the
/// pathological Cycle/Star, which appear in targeted tests).
const std::vector<Family>& scaling_families();

/// Builds an n-vertex (or as close as the family allows, e.g. square torus)
/// instance. Randomized families draw from `rng` and advance it by exactly
/// the draws they make, at every n; er-avg8, ba-m3 and rgg-avg8 build
/// without an edge list (see graph/generators.hpp), so n = 10^7 fits.
graph::Graph make_family(Family f, std::size_t n, support::Rng& rng);

}  // namespace beepmis::exp
