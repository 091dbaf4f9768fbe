#include "src/beep/fault.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "src/core/lmax.hpp"
#include "src/core/selfstab_mis.hpp"
#include "src/graph/generators.hpp"

namespace beepmis::beep {
namespace {

std::unique_ptr<Simulation> make_sim(const graph::Graph& g) {
  auto algo = std::make_unique<core::SelfStabMis>(
      g, core::lmax_global_delta(g, 15));
  return std::make_unique<Simulation>(g, std::move(algo), 7);
}

TEST(FaultInjector, CorruptRandomPicksDistinctNodes) {
  const graph::Graph g = graph::make_cycle(50);
  auto sim = make_sim(g);
  support::Rng rng(1);
  for (std::size_t k : {1u, 5u, 25u, 50u}) {
    const auto chosen = FaultInjector::corrupt_random(*sim, k, rng);
    EXPECT_EQ(chosen.size(), k);
    std::set<graph::VertexId> uniq(chosen.begin(), chosen.end());
    EXPECT_EQ(uniq.size(), k);
    for (graph::VertexId v : chosen) EXPECT_LT(v, 50u);
  }
}

TEST(FaultInjector, CorruptRandomOfEveryNodeIsAPermutation) {
  // k = n is Floyd's worst case for the membership test (most draws
  // collide), so it stays linear only while that test is O(1).
  constexpr std::size_t n = std::size_t{1} << 17;
  const graph::Graph g = graph::make_cycle(n);
  auto sim = make_sim(g);
  support::Rng rng(4);
  auto chosen = FaultInjector::corrupt_random(*sim, n, rng);
  ASSERT_EQ(chosen.size(), n);
  std::sort(chosen.begin(), chosen.end());
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(chosen[i], i);
}

TEST(FaultInjector, CorruptRandomZeroIsNoop) {
  const graph::Graph g = graph::make_cycle(10);
  auto sim = make_sim(g);
  auto& algo = dynamic_cast<core::SelfStabMis&>(sim->algorithm());
  std::vector<std::int32_t> before;
  for (graph::VertexId v = 0; v < 10; ++v) before.push_back(algo.level(v));
  support::Rng rng(1);
  EXPECT_TRUE(FaultInjector::corrupt_random(*sim, 0, rng).empty());
  for (graph::VertexId v = 0; v < 10; ++v)
    EXPECT_EQ(algo.level(v), before[v]);
}

TEST(FaultInjector, CorruptAllTouchesEveryNodeEventually) {
  // With all levels forced to 1 first, corrupt_all should move at least one
  // level away from 1 w.h.p. (range is ±(log Δ + 15)).
  const graph::Graph g = graph::make_complete(20);
  auto sim = make_sim(g);
  auto& algo = dynamic_cast<core::SelfStabMis&>(sim->algorithm());
  for (graph::VertexId v = 0; v < 20; ++v) algo.set_level(v, 1);
  support::Rng rng(2);
  FaultInjector::corrupt_all(*sim, rng);
  int changed = 0;
  for (graph::VertexId v = 0; v < 20; ++v) changed += algo.level(v) != 1;
  EXPECT_GT(changed, 10);
  // All corrupted values stay in the representable range.
  for (graph::VertexId v = 0; v < 20; ++v) {
    EXPECT_GE(algo.level(v), -algo.lmax(v));
    EXPECT_LE(algo.level(v), algo.lmax(v));
  }
}

TEST(FaultInjector, TargetedCorruption) {
  const graph::Graph g = graph::make_path(6);
  auto sim = make_sim(g);
  auto& algo = dynamic_cast<core::SelfStabMis&>(sim->algorithm());
  for (graph::VertexId v = 0; v < 6; ++v) algo.set_level(v, 2);
  support::Rng rng(3);
  const std::vector<graph::VertexId> targets = {1, 4};
  // Re-roll until both targets differ from 2 (each attempt has high success
  // probability; bound the loop for safety).
  for (int attempt = 0; attempt < 64; ++attempt) {
    FaultInjector::corrupt_nodes(*sim, targets, rng);
    if (algo.level(1) != 2 && algo.level(4) != 2) break;
  }
  EXPECT_EQ(algo.level(0), 2);
  EXPECT_EQ(algo.level(2), 2);
  EXPECT_EQ(algo.level(3), 2);
  EXPECT_EQ(algo.level(5), 2);
  EXPECT_NE(algo.level(1), 2);
  EXPECT_NE(algo.level(4), 2);
}

TEST(FaultInjectorDeath, TooManyNodesAborts) {
  const graph::Graph g = graph::make_cycle(5);
  auto sim = make_sim(g);
  support::Rng rng(1);
  EXPECT_DEATH(FaultInjector::corrupt_random(*sim, 6, rng), "more nodes");
}

}  // namespace
}  // namespace beepmis::beep
