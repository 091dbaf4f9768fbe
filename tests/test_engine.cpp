#include "src/core/engine.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "src/beep/fault.hpp"
#include "src/core/init.hpp"
#include "src/exp/runner.hpp"
#include "src/graph/generators.hpp"
#include "src/mis/verifier.hpp"

namespace beepmis::core {
namespace {

constexpr Variant kAllVariants[] = {Variant::GlobalDelta, Variant::OwnDegree,
                                    Variant::TwoChannel};

TEST(EngineKindNames, ParseRoundTrips) {
  for (EngineKind k :
       {EngineKind::Auto, EngineKind::Fast, EngineKind::Reference}) {
    EngineKind parsed;
    ASSERT_TRUE(parse_engine_kind(engine_kind_name(k), &parsed));
    EXPECT_EQ(parsed, k);
  }
  EngineKind parsed;
  EXPECT_FALSE(parse_engine_kind("turbo", &parsed));
  EXPECT_FALSE(parse_engine_kind("", &parsed));
}

TEST(EngineFactory, AutoResolvesToFastReferenceToReference) {
  support::Rng grng(1);
  const auto g = graph::make_erdos_renyi(48, 0.1, grng);
  for (Variant v : kAllVariants) {
    EngineConfig config;
    config.variant = v;
    config.kind = EngineKind::Auto;
    EXPECT_EQ(make_engine(g, config)->name().rfind("fast-", 0), 0u)
        << variant_name(v);
    config.kind = EngineKind::Fast;
    EXPECT_EQ(make_engine(g, config)->name().rfind("fast-", 0), 0u)
        << variant_name(v);
    config.kind = EngineKind::Reference;
    EXPECT_EQ(make_engine(g, config)->name().rfind("reference-", 0), 0u)
        << variant_name(v);
    // Receiver noise runs on the reference engine only.
    config.kind = EngineKind::Auto;
    config.noise = beep::ChannelNoise{0.0, 0.01};
    EXPECT_EQ(make_engine(g, config)->name().rfind("reference-", 0), 0u)
        << variant_name(v);
  }
}

TEST(EngineFactory, MemberLevelAndLmaxAgreeAcrossEngines) {
  support::Rng grng(2);
  const auto g = graph::make_barabasi_albert(48, 3, grng);
  for (Variant v : kAllVariants) {
    EngineConfig config;
    config.variant = v;
    config.kind = EngineKind::Fast;
    auto fast = make_engine(g, config);
    config.kind = EngineKind::Reference;
    auto ref = make_engine(g, config);
    for (graph::VertexId u = 0; u < g.vertex_count(); ++u) {
      ASSERT_EQ(fast->lmax(u), ref->lmax(u)) << variant_name(v);
      ASSERT_EQ(fast->member_level(u), ref->member_level(u))
          << variant_name(v);
    }
  }
}

TEST(EngineInit, ApplyInitDrawIdenticalAcrossEngines) {
  // Every init policy, applied with identically-seeded streams, must leave
  // both engines in the same level configuration — this is what lets
  // exp::run_variant switch executors without perturbing any result.
  support::Rng grng(3);
  const auto g = graph::make_erdos_renyi_avg_degree(64, 8.0, grng);
  for (Variant v : kAllVariants) {
    for (InitPolicy policy : all_init_policies()) {
      EngineConfig config;
      config.variant = v;
      config.seed = 17;
      config.kind = EngineKind::Fast;
      auto fast = make_engine(g, config);
      config.kind = EngineKind::Reference;
      auto ref = make_engine(g, config);
      support::Rng r1 = support::Rng(17).derive_stream(0xfadedcafe);
      support::Rng r2 = support::Rng(17).derive_stream(0xfadedcafe);
      apply_init(*fast, policy, r1);
      apply_init(*ref, policy, r2);
      for (graph::VertexId u = 0; u < g.vertex_count(); ++u)
        ASSERT_EQ(fast->level(u), ref->level(u))
            << variant_name(v) << " " << init_policy_name(policy)
            << " vertex " << u;
    }
  }
}

TEST(EngineFactory, FastAndReferenceAgreeEndToEnd) {
  // The whole-run contract behind EngineKind::Auto: same seed, same init →
  // same stabilization round and the same MIS, for every variant.
  support::Rng grng(4);
  const auto g = graph::make_erdos_renyi_avg_degree(96, 8.0, grng);
  for (Variant v : kAllVariants) {
    EngineConfig config;
    config.variant = v;
    config.seed = 23;
    config.kind = EngineKind::Fast;
    auto fast = make_engine(g, config);
    config.kind = EngineKind::Reference;
    auto ref = make_engine(g, config);
    support::Rng r1 = support::Rng(23).derive_stream(0xfadedcafe);
    support::Rng r2 = support::Rng(23).derive_stream(0xfadedcafe);
    apply_init(*fast, InitPolicy::UniformRandom, r1);
    apply_init(*ref, InitPolicy::UniformRandom, r2);
    const auto fast_rounds = fast->run_to_stabilization(100000);
    const auto ref_rounds = ref->run_to_stabilization(100000);
    EXPECT_EQ(fast_rounds, ref_rounds) << variant_name(v);
    ASSERT_TRUE(fast->is_stabilized()) << variant_name(v);
    ASSERT_TRUE(ref->is_stabilized()) << variant_name(v);
    EXPECT_EQ(fast->mis_members(), ref->mis_members()) << variant_name(v);
    EXPECT_TRUE(mis::is_mis(g, fast->mis_members())) << variant_name(v);
  }
}

TEST(EngineFaults, CorruptRandomMatchesFaultInjectorDrawForDraw) {
  // The engine-level Floyd selection must pick the same subset AND leave the
  // same corrupted levels as beep::FaultInjector given the same stream.
  support::Rng grng(5);
  const auto g = graph::make_erdos_renyi_avg_degree(64, 8.0, grng);
  for (Variant v : kAllVariants) {
    auto sim = exp::make_selfstab_sim(g, v, 31);
    EngineConfig config;
    config.variant = v;
    config.seed = 31;
    config.kind = EngineKind::Fast;
    auto fast = make_engine(g, config);
    support::Rng i1 = support::Rng(31).derive_stream(0xfadedcafe);
    support::Rng i2 = support::Rng(31).derive_stream(0xfadedcafe);
    exp::apply_init(*sim, InitPolicy::UniformRandom, i1);
    apply_init(*fast, InitPolicy::UniformRandom, i2);

    support::Rng f1 = support::Rng(31).derive_stream(0xfa17);
    support::Rng f2 = support::Rng(31).derive_stream(0xfa17);
    for (int wave = 0; wave < 3; ++wave) {
      const auto a = beep::FaultInjector::corrupt_random(*sim, 9, f1);
      const auto b = corrupt_random(*fast, 9, f2);
      ASSERT_EQ(a, b) << variant_name(v) << " wave " << wave;
    }
    const auto levels_of = [&](auto&& level) {
      std::vector<std::int32_t> out(g.vertex_count());
      for (graph::VertexId u = 0; u < g.vertex_count(); ++u)
        out[u] = level(u);
      return out;
    };
    auto* a1 = dynamic_cast<SelfStabMis*>(&sim->algorithm());
    auto* a2 = dynamic_cast<SelfStabMisTwoChannel*>(&sim->algorithm());
    const auto ref_levels = levels_of([&](graph::VertexId u) {
      return a1 != nullptr ? a1->level(u) : a2->level(u);
    });
    const auto fast_levels =
        levels_of([&](graph::VertexId u) { return fast->level(u); });
    EXPECT_EQ(ref_levels, fast_levels) << variant_name(v);
  }
}

TEST(EngineFaults, CorruptAllMatchesUniformRandomReset) {
  const auto g = graph::make_grid(6, 6);
  EngineConfig config;
  config.variant = Variant::GlobalDelta;
  config.kind = EngineKind::Fast;
  auto fast = make_engine(g, config);
  ASSERT_GT(fast->run_to_stabilization(100000), 0u);
  support::Rng f(9);
  corrupt_all(*fast, f);
  fast->run_to_stabilization(100000);
  EXPECT_TRUE(fast->is_stabilized());
  EXPECT_TRUE(mis::is_mis(g, fast->mis_members()));
}

TEST(EngineDeath, CorruptRandomRejectsOversizedCount) {
  const auto g = graph::make_path(4);
  EngineConfig config;
  auto fast = make_engine(g, config);
  support::Rng f(1);
  EXPECT_DEATH(corrupt_random(*fast, 5, f), "more nodes than exist");
}

TEST(EngineDeath, MakeEngineRejectsBadNoise) {
  const auto g = graph::make_path(4);
  EngineConfig config;
  config.noise = beep::ChannelNoise{0.01, 0.0};
  config.kind = EngineKind::Fast;
  EXPECT_DEATH(make_engine(g, config), "noise-free configs only");
  config.kind = EngineKind::Auto;
  config.noise = beep::ChannelNoise{-0.5, 0.0};
  EXPECT_DEATH(make_engine(g, config), "rate outside");
}

}  // namespace
}  // namespace beepmis::core
