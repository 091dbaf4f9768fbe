// The invariant probe's incremental verifier. A long-lived
// core::make_invariant_probe keeps a snapshot of the level bits it last
// verified and re-derives membership and domination only around what
// changed; these tests hold it to the stateless full check and to
// mis::check over mis_members() after every step of random fault, write
// and round sequences, and show that it still catches an engine that
// claims stabilization over a configuration that is not an MIS.

#include "src/core/invariant.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/engine.hpp"
#include "src/core/fast_engine.hpp"
#include "src/core/init.hpp"
#include "src/core/level_bits.hpp"
#include "src/graph/generators.hpp"
#include "src/mis/verifier.hpp"
#include "src/obs/recovery.hpp"
#include "src/support/rng.hpp"

namespace beepmis {
namespace {

struct EngineCase {
  const char* name;
  core::EngineKind kind;
  std::size_t shards;
};

constexpr EngineCase kEngines[] = {
    {"sharded-1", core::EngineKind::Fast, 1},
    {"sharded-3", core::EngineKind::Fast, 3},
    {"reference", core::EngineKind::Reference, 1},
};

graph::Graph make_family(const std::string& family, std::size_t n,
                         support::Rng& rng) {
  if (family == "star") return graph::make_star(n);
  // A one-vertex random graph is the isolated vertex.
  if (family == "path" || n < 4) return graph::make_path(n);
  if (family == "er") return graph::make_erdos_renyi_avg_degree(n, 8.0, rng);
  return graph::make_barabasi_albert(n, 3, rng);
}

std::unique_ptr<core::Engine> make(const graph::Graph& g,
                                   core::Variant variant,
                                   const EngineCase& ec, std::uint64_t seed) {
  core::EngineConfig cfg;
  cfg.variant = variant;
  cfg.kind = ec.kind;
  cfg.shard_threads = ec.shards;
  cfg.seed = seed;
  return core::make_engine(g, cfg);
}

/// The long-lived probe's settled verdict equals a fresh full check field
/// for field, and both equal mis::check over mis_members(). Returns the
/// verdict.
obs::InvariantProbeResult expect_agree(const core::Engine& engine,
                                       const obs::InvariantProbe& probe,
                                       const std::string& where) {
  const obs::InvariantProbeResult kept = probe(true);
  const obs::InvariantProbeResult full = core::probe_invariants(engine, true);
  EXPECT_EQ(kept.stabilized, full.stabilized) << where;
  EXPECT_EQ(kept.independent, full.independent) << where;
  EXPECT_EQ(kept.maximal, full.maximal) << where;
  EXPECT_EQ(kept.levels_in_range, full.levels_in_range) << where;
  EXPECT_TRUE(kept.levels_in_range) << where;
  const mis::MisCheck oracle =
      mis::check(engine.graph(), engine.mis_members());
  EXPECT_EQ(kept.independent, oracle.independent) << where;
  EXPECT_EQ(kept.maximal, oracle.maximal) << where;
  return kept;
}

TEST(InvariantProbe, IncrementalMatchesFullCheckAfterEveryStep) {
  std::uint64_t seed = 0;
  // Both verdicts must be exercised, or the agreement says nothing.
  std::size_t mis = 0, not_mis = 0;
  for (core::Variant variant :
       {core::Variant::GlobalDelta, core::Variant::TwoChannel}) {
    for (const EngineCase& ec : kEngines) {
      for (const char* family : {"er", "ba", "star", "path"}) {
        for (std::size_t n : {1, 63, 64, 65, 1000}) {
          ++seed;
          support::Rng rng(seed);
          const graph::Graph g = make_family(family, n, rng);
          auto engine = make(g, variant, ec, seed);
          core::apply_init(*engine, core::InitPolicy::UniformRandom, rng);
          const obs::InvariantProbe probe =
              core::make_invariant_probe(*engine);
          const std::string tag = core::variant_name(variant) + " " +
                                  ec.name + " " + family + " n=" +
                                  std::to_string(n);
          expect_agree(*engine, probe, tag + " init");
          for (int op = 0; op < 24; ++op) {
            const std::string where = tag + " op " + std::to_string(op);
            switch (rng.below(4)) {
              case 0: {
                const std::size_t k =
                    1 + rng.below(std::min<std::size_t>(n, 8));
                core::corrupt_random(*engine, k, rng);
                break;
              }
              case 1: {
                // Mostly the two level values membership reads.
                const auto v = static_cast<graph::VertexId>(rng.below(n));
                const std::int32_t lo = engine->member_level(v);
                const std::int32_t hi = engine->lmax(v);
                const auto span = static_cast<std::uint64_t>(hi - lo + 1);
                const std::uint64_t pick = rng.below(3);
                engine->set_level(
                    v, pick == 0   ? lo
                       : pick == 1 ? hi
                                   : lo + static_cast<std::int32_t>(
                                              rng.below(span)));
                break;
              }
              case 2: engine->step(); break;
              default: engine->run_to_stabilization(400); break;
            }
            const obs::InvariantProbeResult r =
                expect_agree(*engine, probe, where);
            ++(r.independent && r.maximal ? mis : not_mis);
            // The cadence form between settled checks: level range only,
            // and it must leave the snapshot intact.
            if (!engine->is_stabilized()) {
              EXPECT_TRUE(probe(false).levels_in_range) << where;
            }
          }
          // A wave over half the graph outgrows patching: the probe falls
          // back to the full rebuild, then patches again from it.
          if (n == 1000) {
            core::corrupt_random(*engine, n / 2, rng);
            expect_agree(*engine, probe, tag + " big wave");
            engine->run_to_stabilization(2000);
            expect_agree(*engine, probe, tag + " big wave settled");
            core::corrupt_random(*engine, 3, rng);
            expect_agree(*engine, probe, tag + " after big wave");
          }
          if (testing::Test::HasFailure()) return;
        }
      }
    }
  }
  EXPECT_GT(mis, 1000u);
  EXPECT_GT(not_mis, 1000u);
}

/// Packs random levels under Policy's window — with an occasional level
/// one step outside it — over random word sub-ranges, and holds both the
/// dispatched pack (the AVX-512 body on hosts that have it) and the scalar
/// loop to the per-vertex predicates, word for word. Words outside the
/// range, and arrays passed as null, stay untouched.
template <typename Policy>
void check_level_bits(std::uint64_t seed) {
  support::Rng rng(seed);
  for (std::size_t n : {0, 1, 15, 16, 17, 63, 64, 65, 200, 1000}) {
    const std::size_t words = (n + 63) / 64;
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<std::int32_t> levels(n), lmax(n);
      for (std::size_t v = 0; v < n; ++v) {
        lmax[v] = 2 + static_cast<std::int32_t>(rng.below(6));
        const std::int32_t lo = Policy::min_level(lmax[v]);
        const std::uint64_t pick = rng.below(n * 4 + 4);
        levels[v] = pick == 0   ? lmax[v] + 1
                    : pick == 1 ? lo - 1
                                : lo + static_cast<std::int32_t>(rng.below(
                                           static_cast<std::uint64_t>(
                                               lmax[v] - lo + 1)));
      }
      const std::size_t lo = rng.below(words + 1);
      const std::size_t hi = lo + rng.below(words - lo + 1);
      const std::uint64_t skip = trial == 0 ? 3 : rng.below(4);
      const std::string what = std::string(Policy::kTag) + " n=" +
                               std::to_string(n) + " words [" +
                               std::to_string(lo) + ", " +
                               std::to_string(hi) + ")";
      constexpr std::uint64_t kUntouched = 0x5a5a5a5a5a5a5a5aull;
      std::vector<std::uint64_t> bits[2][3];
      bool verdict[2];
      for (int scalar = 0; scalar < 2; ++scalar) {
        for (auto& b : bits[scalar]) b.assign(words, kUntouched);
        // skip 0..2 passes that array as null; 3 fills all three.
        auto out = [&](int k) {
          return skip == static_cast<std::uint64_t>(k)
                     ? nullptr
                     : bits[scalar][k].data();
        };
        verdict[scalar] =
            scalar ? core::pack_level_bits_scalar<Policy>(
                         levels, lmax, lo, hi, out(0), out(1), out(2))
                   : core::pack_level_bits<Policy>(levels, lmax, lo, hi,
                                                   out(0), out(1), out(2));
      }
      bool in_range = true;
      for (std::size_t w = 0; w < words; ++w) {
        std::uint64_t want[3] = {0, 0, 0};
        for (std::size_t k = 0; k < 64 && w * 64 + k < n; ++k) {
          const std::size_t v = w * 64 + k;
          const std::int32_t floor = Policy::member_level(lmax[v]);
          want[0] |= std::uint64_t{levels[v] == lmax[v]} << k;
          want[1] |= std::uint64_t{levels[v] == floor} << k;
          want[2] |= std::uint64_t{Policy::is_prominent(levels[v])} << k;
          if (w >= lo && w < hi)
            in_range = in_range && levels[v] >= floor && levels[v] <= lmax[v];
        }
        for (int k = 0; k < 3; ++k) {
          const bool filled =
              w >= lo && w < hi && skip != static_cast<std::uint64_t>(k);
          const std::uint64_t expect = filled ? want[k] : kUntouched;
          EXPECT_EQ(bits[0][k][w], bits[1][k][w])
              << what << " array " << k << " word " << w;
          EXPECT_EQ(bits[1][k][w], expect)
              << what << " array " << k << " word " << w;
        }
      }
      EXPECT_EQ(verdict[0], verdict[1]) << what;
      EXPECT_EQ(verdict[1], in_range) << what;
    }
  }
}

TEST(LevelBits, PackMatchesPerVertexPredicates) {
  check_level_bits<core::Alg1Policy>(8);
  check_level_bits<core::Alg2Policy>(9);
}

/// A mis-settling kernel: every Engine call goes to `inner`, but the
/// wrapper claims S_t = V whatever the levels say.
class ClaimsStabilized final : public core::Engine {
 public:
  explicit ClaimsStabilized(core::Engine& inner) : inner_(inner) {}
  std::string name() const override { return inner_.name(); }
  const graph::Graph& graph() const noexcept override {
    return inner_.graph();
  }
  std::uint64_t round() const noexcept override { return inner_.round(); }
  std::int32_t level(graph::VertexId v) const override {
    return inner_.level(v);
  }
  std::int32_t lmax(graph::VertexId v) const override {
    return inner_.lmax(v);
  }
  std::int32_t member_level(graph::VertexId v) const override {
    return inner_.member_level(v);
  }
  void set_level(graph::VertexId v, std::int32_t level) override {
    inner_.set_level(v, level);
  }
  void step() override { inner_.step(); }
  std::uint64_t run_to_stabilization(std::uint64_t max_rounds) override {
    return inner_.run_to_stabilization(max_rounds);
  }
  bool is_stabilized() const override { return true; }
  std::vector<bool> mis_members() const override {
    return inner_.mis_members();
  }
  bool pack_levels(std::span<std::uint64_t> capped,
                   std::span<std::uint64_t> candidate) const override {
    return inner_.pack_levels(capped, candidate);
  }
  void corrupt(graph::VertexId v, support::Rng& rng) override {
    inner_.corrupt(v, rng);
  }
  void set_observer(obs::RoundObserver* observer) override {
    inner_.set_observer(observer);
  }
  void set_metrics(obs::MetricsRegistry* registry) override {
    inner_.set_metrics(registry);
  }

 private:
  core::Engine& inner_;
};

/// Feeds the monitor one event claiming stabilization at `round`.
void claim(obs::InvariantMonitor& mon, std::uint64_t round) {
  obs::RoundEvent ev;
  ev.round = round;
  ev.active = 0;
  mon.on_round(ev);
}

TEST(InvariantProbe, FlagsKernelClaimingStabilizationWithVertexMidLevel) {
  for (core::Variant variant :
       {core::Variant::GlobalDelta, core::Variant::TwoChannel}) {
    support::Rng rng(21);
    const graph::Graph g = graph::make_erdos_renyi_avg_degree(1000, 8.0, rng);
    auto inner = make(g, variant, kEngines[0], 21);  // sharded-1
    core::apply_init(*inner, core::InitPolicy::UniformRandom, rng);
    inner->run_to_stabilization(4000);
    ASSERT_TRUE(inner->is_stabilized());
    ClaimsStabilized engine(*inner);
    obs::InvariantMonitor mon(obs::InvariantConfig{1});
    mon.set_probe(core::make_invariant_probe(engine));
    claim(mon, 1);  // the verified snapshot
    ASSERT_TRUE(mon.violations().empty());

    // A dominated vertex x next to member u leaves its cap: u is no longer
    // a member, and nothing dominates x. The kernel still claims S_t = V.
    const std::vector<bool> in = inner->mis_members();
    graph::VertexId x = 0;
    while (in[x] || g.degree(x) == 0) ++x;
    inner->set_level(x, 1);
    ASSERT_FALSE(inner->is_stabilized());
    claim(mon, 2);
    ASSERT_EQ(mon.violations().size(), 1u) << core::variant_name(variant);
    EXPECT_EQ(mon.violations()[0].kind, obs::InvariantKind::Maximality);
    EXPECT_EQ(mon.violations()[0].round, 2u);
  }
}

TEST(InvariantProbe, FlagsDominationLostTwoHopsFromTheWrite) {
  // Path 0-1-2-3-4-5-6 (n = 7, one partial word): members 1, 3 and 5,
  // every other vertex at its cap — an MIS.
  const graph::Graph g = graph::make_path(7);
  for (core::Variant variant :
       {core::Variant::GlobalDelta, core::Variant::TwoChannel}) {
    for (const EngineCase& ec : kEngines) {
      auto inner = make(g, variant, ec, 5);
      for (graph::VertexId v = 0; v < 7; ++v)
        inner->set_level(v, v % 2 == 1 ? inner->member_level(v)
                                       : inner->lmax(v));
      ClaimsStabilized engine(*inner);
      obs::InvariantMonitor mon(obs::InvariantConfig{1});
      mon.set_probe(core::make_invariant_probe(engine));
      claim(mon, 1);
      const std::string tag = core::variant_name(variant) + " " + ec.name;
      ASSERT_TRUE(mon.violations().empty()) << tag;

      // Membership moves from 1 to 0: 1 drops to its cap, 0 takes the
      // member level. {0, 3, 5} is an MIS, and 1 is now dominated by 0.
      inner->set_level(1, inner->lmax(1));
      inner->set_level(0, inner->member_level(0));
      claim(mon, 2);
      EXPECT_TRUE(mon.violations().empty()) << tag;

      // 4 leaves its cap: its neighbors 3 and 5 lose membership, so 2 —
      // two hops from the write, dominated only by 3 — is dominated by
      // nobody, and neither are 3, 4, 5 and 6.
      inner->set_level(4, 1);
      claim(mon, 3);
      ASSERT_EQ(mon.violations().size(), 1u) << tag;
      EXPECT_EQ(mon.violations()[0].kind, obs::InvariantKind::Maximality);
      EXPECT_EQ(mon.violations()[0].round, 3u);
      const obs::InvariantProbeResult full =
          core::probe_invariants(engine, true);
      EXPECT_FALSE(full.maximal) << tag;
      // A member level with every neighbor at its cap can never sit next
      // to another: independence of I_t holds for every level assignment.
      EXPECT_TRUE(full.independent) << tag;
    }
  }
}

}  // namespace
}  // namespace beepmis
