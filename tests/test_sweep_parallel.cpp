/// Determinism contract of the parallel sweep path: the seed derivation is
/// pinned (stored artifacts reference it), seeds never collide across sweep
/// points, and run_scaling_sweep produces bit-identical results, metrics
/// (modulo wall-clock timers) and event streams for every thread count.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "src/exp/runner.hpp"
#include "src/exp/sweep.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/sink.hpp"

namespace beepmis {
namespace {

// --- Seed derivation -------------------------------------------------------

TEST(SweepSeed, GoldenValuesArePinned) {
  // Changing sweep_seed silently invalidates every stored sweep artifact —
  // these values must only ever change together with a deliberate schema
  // bump. Regenerate with the sponge in src/exp/sweep.cpp if that happens.
  struct Golden {
    std::uint64_t base;
    exp::Family family;
    std::size_t n, s;
    std::uint64_t expect;
  };
  const Golden golden[] = {
      {1ull, exp::Family(0), 64, 0, 0x749df85a7b82d8acull},
      {1ull, exp::Family(0), 64, 1, 0xd70a84ea388d31b7ull},
      {1ull, exp::Family(0), 1024, 0, 0xfceb58b4f07a5d9dull},
      {1ull, exp::Family(3), 64, 0, 0x94b696dedc3dd4fdull},
      {42ull, exp::Family(0), 64, 0, 0x50c61dad3e598c46ull},
      {42ull, exp::Family(5), 4096, 19, 0x74cf424c00a82591ull},
      {3735928559ull, exp::Family(7), 1048576, 255,
       0x45ff3308b5c704a9ull},
  };
  for (const auto& g : golden)
    EXPECT_EQ(exp::sweep_seed(g.base, g.family, g.n, g.s), g.expect)
        << "base=" << g.base << " n=" << g.n << " s=" << g.s;
}

TEST(SweepSeed, NoCollisionsAcrossTheSweepGrid) {
  // Regression for the old affine formula (base * phi + n * 1009 + s),
  // which collided whenever s spanned more than the 1009 gap between
  // adjacent sizes: (n, s + 1009) and (n + 1, s) were the same replica.
  std::set<std::uint64_t> seen;
  std::size_t total = 0;
  for (int f = 0; f < 3; ++f)
    for (std::size_t n : {32u, 33u, 64u, 1024u, 1025u, 4096u})
      for (std::size_t s = 0; s < 1200; ++s) {
        seen.insert(exp::sweep_seed(7, exp::Family(f), n, s));
        ++total;
      }
  EXPECT_EQ(seen.size(), total);
  // The specific old failure shape, explicitly:
  EXPECT_NE(exp::sweep_seed(1, exp::Family(0), 64, 1009),
            exp::sweep_seed(1, exp::Family(0), 65, 0));
}

TEST(SweepSeed, SensitiveToEveryCoordinate) {
  const std::uint64_t base = exp::sweep_seed(9, exp::Family(1), 128, 4);
  EXPECT_NE(base, exp::sweep_seed(10, exp::Family(1), 128, 4));
  EXPECT_NE(base, exp::sweep_seed(9, exp::Family(2), 128, 4));
  EXPECT_NE(base, exp::sweep_seed(9, exp::Family(1), 129, 4));
  EXPECT_NE(base, exp::sweep_seed(9, exp::Family(1), 128, 5));
}

// --- Parallel == serial ----------------------------------------------------

/// Everything except wall-clock timers must fold identically: counters,
/// gauges and digests (state-exact via their quantile curve and moments).
/// Timer *counts* are deterministic too, but their durations obviously are
/// not.
void expect_registries_equal_modulo_timing(const obs::MetricsRegistry& a,
                                           const obs::MetricsRegistry& b) {
  ASSERT_EQ(a.counters().size(), b.counters().size());
  for (const auto& [name, c] : a.counters()) {
    ASSERT_TRUE(b.counters().count(name)) << name;
    EXPECT_EQ(c.value(), b.counters().at(name).value()) << name;
  }
  ASSERT_EQ(a.gauges().size(), b.gauges().size());
  for (const auto& [name, g] : a.gauges()) {
    ASSERT_TRUE(b.gauges().count(name)) << name;
    EXPECT_DOUBLE_EQ(g.value(), b.gauges().at(name).value()) << name;
  }
  ASSERT_EQ(a.digests().size(), b.digests().size());
  for (const auto& [name, d] : a.digests()) {
    ASSERT_TRUE(b.digests().count(name)) << name;
    const auto& other = b.digests().at(name);
    EXPECT_EQ(d.count(), other.count()) << name;
    // Digests fed with wall-clock durations (the "_ns" suffix, e.g. the
    // engines' settlement-refresh timings) are deterministic in sample
    // *count* only — their values are timing, the one thing excluded from
    // the bit-identity contract.
    if (name.size() >= 3 && name.compare(name.size() - 3, 3, "_ns") == 0)
      continue;
    EXPECT_DOUBLE_EQ(d.sum(), other.sum()) << name;
    if (d.count() > 0) {
      EXPECT_DOUBLE_EQ(d.min(), other.min()) << name;
      EXPECT_DOUBLE_EQ(d.max(), other.max()) << name;
      for (double q : {0.5, 0.9, 0.95, 0.99})
        EXPECT_DOUBLE_EQ(d.quantile(q), other.quantile(q))
            << name << " q=" << q;
    }
  }
  ASSERT_EQ(a.timers().size(), b.timers().size());
  for (const auto& [name, t] : a.timers()) {
    ASSERT_TRUE(b.timers().count(name)) << name;
    EXPECT_EQ(t.count(), b.timers().at(name).count()) << name;
  }
}

exp::SweepConfig small_sweep(std::size_t threads,
                             obs::MetricsRegistry* metrics,
                             obs::RoundObserver* observer) {
  exp::SweepConfig cfg;
  cfg.variant = core::Variant::GlobalDelta;
  cfg.init = core::InitPolicy::UniformRandom;
  cfg.sizes = {32, 48};
  cfg.seeds = 6;
  cfg.base_seed = 5;
  cfg.engine = core::EngineKind::Fast;
  cfg.metrics = metrics;
  cfg.observer = observer;
  cfg.threads = threads;
  return cfg;
}

TEST(SweepParallel, AnyThreadCountReproducesTheSerialSweep) {
  obs::MetricsRegistry serial_metrics;
  obs::MemorySink serial_events;
  const auto serial = exp::run_scaling_sweep(
      exp::Family::ErdosRenyiAvg8,
      small_sweep(1, &serial_metrics, &serial_events));

  for (std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    obs::MetricsRegistry metrics;
    obs::MemorySink events;
    const auto points = exp::run_scaling_sweep(
        exp::Family::ErdosRenyiAvg8, small_sweep(threads, &metrics, &events));

    ASSERT_EQ(points.size(), serial.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < points.size(); ++i) {
      EXPECT_EQ(points[i].n, serial[i].n);
      EXPECT_EQ(points[i].failures, serial[i].failures);
      EXPECT_EQ(points[i].invalid, serial[i].invalid);
      EXPECT_EQ(points[i].rounds.count(), serial[i].rounds.count());
      EXPECT_DOUBLE_EQ(points[i].rounds.sum(), serial[i].rounds.sum());
      EXPECT_DOUBLE_EQ(points[i].rounds.min(), serial[i].rounds.min());
      EXPECT_DOUBLE_EQ(points[i].rounds.max(), serial[i].rounds.max());
      for (double q : {0.5, 0.9, 0.95, 0.99})
        EXPECT_DOUBLE_EQ(points[i].rounds.quantile(q),
                         serial[i].rounds.quantile(q))
            << "threads=" << threads << " point=" << i << " q=" << q;
    }
    expect_registries_equal_modulo_timing(metrics, serial_metrics);
    // The observer replay is the exact serial event stream: the coordinator
    // flushes each replica's buffer in ascending (size, seed) order.
    ASSERT_EQ(events.events().size(), serial_events.events().size());
    for (std::size_t i = 0; i < events.events().size(); ++i)
      ASSERT_EQ(events.events()[i], serial_events.events()[i])
          << "event " << i << " threads=" << threads;
  }
}

TEST(SweepParallel, ZeroThreadsMeansHardwareAndStaysDeterministic) {
  obs::MetricsRegistry serial_metrics, auto_metrics;
  const auto serial = exp::run_scaling_sweep(
      exp::Family::ErdosRenyiAvg8, small_sweep(1, &serial_metrics, nullptr));
  const auto parallel = exp::run_scaling_sweep(
      exp::Family::ErdosRenyiAvg8, small_sweep(0, &auto_metrics, nullptr));
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < parallel.size(); ++i) {
    EXPECT_DOUBLE_EQ(parallel[i].rounds.mean(), serial[i].rounds.mean());
    EXPECT_DOUBLE_EQ(parallel[i].rounds.median(), serial[i].rounds.median());
  }
  expect_registries_equal_modulo_timing(auto_metrics, serial_metrics);
}

}  // namespace
}  // namespace beepmis
