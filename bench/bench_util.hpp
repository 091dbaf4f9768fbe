#pragma once

/// Shared header/format helpers for the experiment benches. Every bench
/// prints a banner naming the paper artifact it regenerates, then one or
/// more support::Table blocks, so bench_output.txt is self-describing.

#include <cstdio>
#include <utility>
#include <vector>

#include "src/support/fit.hpp"
#include "src/support/table.hpp"

namespace beepmis::bench {

inline void banner(const char* id, const char* claim) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", id);
  std::printf("paper claim: %s\n", claim);
  std::printf("================================================================\n");
}

inline void print_growth_ranking(
    const std::vector<std::pair<support::GrowthModel, support::FitResult>>&
        ranked,
    const char* expected) {
  std::printf("growth-model fit of median stabilization time (best first):\n");
  for (const auto& [model, fit] : ranked) {
    std::printf("  T(n) = %7.2f + %7.2f * %-18s  R^2 = %.4f\n", fit.intercept,
                fit.slope, support::growth_model_name(model).c_str(), fit.r2);
  }
  std::printf("expected by the paper: %s\n", expected);
}

}  // namespace beepmis::bench
