#include "src/exp/sweep.hpp"

#include <memory>
#include <utility>

#include "src/obs/timing.hpp"
#include "src/support/check.hpp"

namespace beepmis::exp {

std::uint64_t sweep_seed(std::uint64_t base_seed, Family family,
                         std::size_t n, std::size_t s) {
  // Sponge over (base_seed, family, n, s): absorb each coordinate, then run
  // the splitmix64 avalanche before the next one, so no pair of distinct
  // inputs is related by the simple affine structure that made the old
  // formula (base * phi + n * 1009 + s) collide across adjacent sizes.
  std::uint64_t state = base_seed;
  state = support::splitmix64(state) ^
          (static_cast<std::uint64_t>(family) + 1);
  state = support::splitmix64(state) ^ static_cast<std::uint64_t>(n);
  state = support::splitmix64(state) ^ static_cast<std::uint64_t>(s);
  return support::splitmix64(state);
}

namespace {

/// Everything one (n, seed) replica produces, captured worker-side and
/// folded by the coordinator. Telemetry is sharded: the replica's metrics
/// land in a private scratch registry and its events in a private buffer,
/// so workers never touch shared state.
struct ReplicaOutcome {
  RunResult result;
  std::size_t n = 0;  ///< actual vertex count of the instance
  std::unique_ptr<obs::MetricsRegistry> scratch;  ///< null when metrics off
  obs::BufferedSink events;                       ///< empty when observer off
};

}  // namespace

std::vector<SweepPoint> run_scaling_sweep(Family family,
                                          const SweepConfig& config) {
  BEEPMIS_CHECK(!config.sizes.empty(), "sweep needs sizes");
  BEEPMIS_CHECK(config.seeds >= 1, "sweep needs at least one seed");

  // One task per (size, seed) replica, flattened size-major so the fold
  // order below matches the old serial loop exactly.
  const std::size_t seeds = config.seeds;
  const std::size_t tasks = config.sizes.size() * seeds;
  std::vector<ReplicaOutcome> outcomes(tasks);

  support::TaskPool pool(
      support::TaskPool::resolve_thread_count(config.threads));
  const auto run_replica = [&](std::size_t t) {
    const std::size_t n = config.sizes[t / seeds];
    const std::size_t s = t % seeds;
    ReplicaOutcome& out = outcomes[t];
    // One master seed per (family, n, s); graph draw, node streams and
    // init draw all derive from it — the replica is a pure function of it.
    const std::uint64_t seed = sweep_seed(config.base_seed, family, n, s);
    support::Rng graph_rng = support::Rng(seed).derive_stream(0x6ea9);
    const graph::Graph g = make_family(family, n, graph_rng);
    out.n = g.vertex_count();
    obs::MetricsRegistry* scratch = nullptr;
    if (config.metrics != nullptr) {
      out.scratch = std::make_unique<obs::MetricsRegistry>();
      scratch = out.scratch.get();
    }
    if (config.observer != nullptr)
      out.events = obs::BufferedSink(config.observer);
    {
      // The trace span carries the replica's master seed as its argument,
      // so a Perfetto track reads "sweep.run arg=<seed>" per task claim.
      obs::ScopedTimer run_timer(
          scratch != nullptr ? &scratch->timer("sweep.run") : nullptr,
          nullptr, "sweep.run", seed, /*trace_has_arg=*/true);
      out.result = run_variant(
          g, config.variant, config.init, seed,
          default_round_budget(g.vertex_count()), config.c1, scratch,
          config.observer != nullptr ? &out.events : nullptr, config.engine,
          config.kernel, config.shard_threads);
    }
    if (scratch != nullptr) {
      scratch->counter("sweep.runs_total").inc();
      scratch->digest("sweep.rounds_to_stabilize")
          .add(static_cast<double>(out.result.rounds));
      if (!out.result.stabilized) scratch->counter("sweep.failures").inc();
      if (!out.result.valid_mis) scratch->counter("sweep.invalid_mis").inc();
    }
  };
  {
    obs::TraceScope batch_span("sweep.batch",
                               static_cast<std::uint64_t>(tasks));
    pool.parallel_for(tasks, run_replica);
  }

  // Coordinator-side fold, strictly in ascending (size, seed) order: the
  // SweepPoint digests and the merged registry's digests are P² estimators
  // whose state depends on insertion order, so aggregation must not move
  // into the workers — this order is what makes any thread count (including
  // 1) reproduce the serial stream bit-for-bit.
  std::vector<SweepPoint> points;
  points.reserve(config.sizes.size());
  std::size_t t = 0;
  obs::TraceScope fold_span("sweep.fold");
  for (std::size_t i = 0; i < config.sizes.size(); ++i) {
    obs::TraceScope point_span(
        "sweep.point", static_cast<std::uint64_t>(config.sizes[i]));
    SweepPoint pt;
    pt.family = family;
    for (std::size_t s = 0; s < seeds; ++s, ++t) {
      ReplicaOutcome& out = outcomes[t];
      pt.n = out.n;
      if (config.metrics != nullptr) config.metrics->merge(*out.scratch);
      out.events.flush();
      if (!out.result.stabilized) ++pt.failures;
      if (!out.result.valid_mis) ++pt.invalid;
      pt.rounds.add(static_cast<double>(out.result.rounds));
    }
    points.push_back(std::move(pt));
  }
  return points;
}

support::Table sweep_table(const std::vector<SweepPoint>& points) {
  support::Table t({"family", "n", "runs", "mean", "median", "p95", "max",
                    "fail", "invalid"});
  for (const auto& pt : points) {
    t.row()
        .cell(family_name(pt.family))
        .cell(static_cast<std::uint64_t>(pt.n))
        .cell(static_cast<std::uint64_t>(pt.rounds.count()))
        .cell(pt.rounds.mean(), 1)
        .cell(pt.rounds.median(), 1)
        .cell(pt.rounds.quantile(0.95), 1)
        .cell(pt.rounds.max(), 0)
        .cell(static_cast<std::uint64_t>(pt.failures))
        .cell(static_cast<std::uint64_t>(pt.invalid));
  }
  return t;
}

std::vector<std::pair<support::GrowthModel, support::FitResult>>
rank_sweep_growth(const std::vector<SweepPoint>& points) {
  std::vector<double> ns, ys;
  for (const auto& pt : points) {
    ns.push_back(static_cast<double>(pt.n));
    ys.push_back(pt.rounds.median());
  }
  return support::rank_growth_models(ns, ys);
}

std::vector<std::size_t> pow2_sizes(unsigned lo, unsigned hi) {
  BEEPMIS_CHECK(lo <= hi && hi < 31, "bad size ladder");
  std::vector<std::size_t> sizes;
  for (unsigned e = lo; e <= hi; ++e) sizes.push_back(std::size_t{1} << e);
  return sizes;
}

}  // namespace beepmis::exp
