/// beepmis_soak — randomized release-qualification stress tool. Runs an
/// endless stream of randomized scenarios (variant × family × size × init ×
/// fault waves × optional noise-free churn) and verifies every outcome with
/// the omniscient checkers. Any violation aborts with a full repro line
/// (every scenario is a pure function of its printed seed). Run with
/// --seconds N before releases; the CI runs the unit suite, this explores.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "src/core/engine.hpp"
#include "src/core/invariant.hpp"
#include "src/core/transfer.hpp"
#include "src/exp/families.hpp"
#include "src/exp/runner.hpp"
#include "src/graph/perturb.hpp"
#include "src/mis/verifier.hpp"
#include "src/obs/flight.hpp"
#include "src/obs/manifest.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/recovery.hpp"
#include "src/obs/session.hpp"
#include "src/obs/timing.hpp"
#include "src/obs/trace.hpp"
#include "src/support/args.hpp"
#include "src/support/task_pool.hpp"

namespace {

using namespace beepmis;

struct Scenario {
  exp::Variant variant;
  exp::Family family;
  core::InitPolicy init;
  std::size_t n;
  std::size_t fault_waves;
  std::size_t fault_size;
  bool churn;
};

Scenario draw_scenario(support::Rng& rng) {
  Scenario s;
  const exp::Variant variants[] = {exp::Variant::GlobalDelta,
                                   exp::Variant::OwnDegree,
                                   exp::Variant::TwoChannel};
  s.variant = variants[rng.below(3)];
  const auto& fams = exp::scaling_families();
  s.family = fams[rng.below(fams.size())];
  const auto& inits = core::all_init_policies();
  s.init = inits[rng.below(inits.size())];
  s.n = 32 + rng.below(480);
  s.fault_waves = rng.below(4);
  s.fault_size = 1 + rng.below(s.n);
  s.churn = rng.bernoulli(0.3);
  return s;
}

bool run_scenario(const Scenario& s, std::uint64_t seed,
                  core::EngineKind kind, std::size_t shard_threads,
                  const obs::Session& session,
                  obs::MetricsRegistry& metrics, const std::string& dump_path,
                  obs::RecoverySummary* recovery_out,
                  core::ShardTelemetry* shard_out) {
  obs::ScopedTimer timer(&metrics, "soak.scenario");
  support::Rng grng = support::Rng(seed).derive_stream(1);
  graph::Graph g = exp::make_family(s.family, s.n, grng);
  core::EngineConfig config;
  config.variant = s.variant;
  config.kind = kind;
  config.seed = seed;
  config.shard_threads = shard_threads;
  // Phase telemetry rides along whenever rounds may run on several shards,
  // so the heartbeat can report load imbalance; it observes only
  // (every verdict stays identical with it on or off).
  config.phase_telemetry = shard_threads != 1;
  auto engine = core::make_engine(g, config);
  engine->set_metrics(&metrics);

  // Always-on black box: a misbehaving scenario (stall / beep storm) leaves
  // a beepmis.dump.v1 post-mortem behind even though soak keeps no event
  // log. The Lemma 3.1 census stays off — soak mixes variants and the
  // O(n + m)/round analysis would dominate the stress budget. Recovery
  // tracking rides along on every scenario and classifies each fault wave
  // against the same O(log n)·4 horizon the check budget uses; the
  // invariant monitor is opt-in (an O(n + m) check per stabilization).
  const std::uint64_t horizon =
      exp::default_round_budget(g.vertex_count()) * 4;
  obs::ObserverOptions observers =
      session.observers(g.vertex_count(), horizon, horizon);
  observers.dump_path = dump_path;
  observers.ring_capacity = 128;
  observers.track = true;
  obs::FlightContext ctx;
  ctx.tool = "beepmis_soak";
  ctx.seed = seed;
  ctx.graph_name = g.name();
  ctx.family = exp::family_name(s.family);
  ctx.n = g.vertex_count();
  ctx.m = g.edge_count();
  ctx.max_degree = g.max_degree();
  ctx.algorithm = exp::variant_name(s.variant);
  ctx.init_policy = core::init_policy_name(s.init);
  ctx.engine = engine->name();
  ctx.add_extra("fault_waves", std::to_string(s.fault_waves));
  ctx.add_extra("fault_size", std::to_string(s.fault_size));
  obs::ObserverStack stack(observers, std::move(ctx),
                           core::make_level_probe(*engine),
                           core::make_invariant_probe(*engine));
  engine->set_observer(&stack.tee());

  support::Rng irng = support::Rng(seed).derive_stream(2);
  core::apply_init(*engine, s.init, irng);

  auto check = [&](const char* stage) {
    const auto r = exp::run_to_stabilization(*engine, horizon, &metrics);
    if (!r.stabilized || !r.valid_mis) {
      std::fprintf(stderr,
                   "VIOLATION at %s: engine=%s variant=%s family=%s init=%s "
                   "n=%zu seed=%llu stabilized=%d valid=%d\n",
                   stage, engine->name().c_str(),
                   exp::variant_name(s.variant).c_str(),
                   exp::family_name(s.family).c_str(),
                   core::init_policy_name(s.init).c_str(), g.vertex_count(),
                   static_cast<unsigned long long>(seed), r.stabilized,
                   r.valid_mis);
      return false;
    }
    return true;
  };

  if (!check("initial")) return false;

  support::Rng frng = support::Rng(seed).derive_stream(3);
  bool ok = true;
  for (std::size_t w = 0; w < s.fault_waves && ok; ++w) {
    core::corrupt_random(*engine, std::min(s.fault_size, g.vertex_count()),
                         frng, stack.tracker());
    ok = check("fault wave");
  }
  stack.finalize(engine->round());
  if (recovery_out != nullptr) *recovery_out = stack.tracker()->summary();
  if (shard_out != nullptr && !engine->shard_telemetry(shard_out))
    *shard_out = core::ShardTelemetry{};
  if (!ok) return false;
  const obs::FlightRecorder* flight = stack.flight();  // null without a path
  if (flight != nullptr && !flight->anomalies().empty()) {
    metrics.counter("soak.anomalies").inc(flight->anomalies().size());
    std::fprintf(stderr, "[soak] flight recorder: %zu anomalie(s), dump in %s\n",
                 flight->anomalies().size(), dump_path.c_str());
  }
  return true;
}

/// Flight-dump path of scenario #ordinal. Each task gets its own file under
/// parallel soak ("soak.dump.json" → "soak.dump.t42.json"), so concurrent
/// anomaly dumps stay self-contained instead of clobbering one shared path;
/// single-threaded soak keeps the plain path for compatibility.
std::string task_dump_path(const std::string& base, std::uint64_t ordinal,
                           bool parallel) {
  if (!parallel) return base;
  const std::size_t dot = base.rfind('.');
  const std::string suffix = ".t" + std::to_string(ordinal);
  if (dot == std::string::npos || base.find('/', dot) != std::string::npos)
    return base + suffix;
  return base.substr(0, dot) + suffix + base.substr(dot);
}

}  // namespace

int main(int argc, char** argv) {
  support::ArgParser args("beepmis_soak — randomized stress qualification");
  args.add_option("seconds", "30", "wall-clock budget");
  args.add_option("scenarios", "0",
                  "stop after this many scenarios (0 = wall-clock only); a "
                  "count budget makes the scenario set — and therefore the "
                  "recovery artifact — identical for every --threads value");
  args.add_option("seed", "1", "base seed for the scenario stream");
  args.add_option("heartbeat", "0",
                  "print scenario-count heartbeat to stderr every K seconds "
                  "(0 = off)");
  args.add_option("flight-dump", "soak.dump.json",
                  "beepmis.dump.v1 path for the always-on flight recorder "
                  "(written when a scenario stalls or beep-storms)");
  args.add_option("engine", "auto",
                  "executor: auto | fast | reference — auto alternates "
                  "randomly per scenario so both executors get soak coverage");
  args.add_option("threads", "1",
                  "worker threads for scenario execution (0 = one per "
                  "hardware thread); the scenario stream, every verdict and "
                  "all non-timing metrics are identical for every value");
  args.add_option("shard-threads", "1",
                  "worker threads INSIDE each fast-engine round (0 = one "
                  "per hardware thread); when != 1 the heartbeat reports "
                  "phase-imbalance from the folded shard telemetry");
  obs::Session session(args, "beepmis_soak");
  std::string error;
  if (!args.parse(argc, argv, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  core::EngineKind requested;
  if (!core::parse_engine_kind(args.get("engine"), &requested)) {
    std::fprintf(stderr, "unknown engine: %s (try auto, fast, reference)\n",
                 args.get("engine").c_str());
    return 2;
  }
  // 0 means one worker per hardware thread, like the CLI.
  const std::size_t threads = args.get_count("threads");
  const std::size_t shard_threads = args.get_count("shard-threads");
  // The scenario workers read the observer flags; a bad one exits here.
  session.check_flags();

  session.start({{"seed", args.get("seed")}, {"engine", args.get("engine")}});

  const auto budget = std::chrono::seconds(args.get_int("seconds"));
  const auto scenario_cap =
      static_cast<std::uint64_t>(args.get_int("scenarios"));
  const auto heartbeat = std::chrono::seconds(args.get_int("heartbeat"));
  const auto start = std::chrono::steady_clock::now();
  auto next_beat = start + heartbeat;
  support::Rng scenario_rng(static_cast<std::uint64_t>(args.get_int("seed")));
  obs::MetricsRegistry metrics;
  std::uint64_t runs = 0;
  bool failed = false;
  obs::RecoverySummary recovery_total;

  // Scenario execution goes through the worker pool in small batches: the
  // coordinator draws the seed stream serially (so the stream is identical
  // for every thread count), workers run scenarios against private scratch
  // registries, and the coordinator folds scratches back in draw order.
  // Each task carries its own flight recorder and dump path, so anomaly
  // post-mortems stay self-contained under parallelism.
  support::TaskPool pool(support::TaskPool::resolve_thread_count(threads));
  const bool parallel = pool.thread_count() > 1;
  // Two batches worth of tasks per dispatch keeps all workers busy without
  // letting the deterministic fold lag far behind the wall clock.
  const std::size_t batch_size = parallel ? pool.thread_count() * 2 : 1;
  const std::string dump_base = args.get("flight-dump");

  struct SoakOutcome {
    bool ok = true;
    obs::MetricsRegistry scratch;
    obs::RecoverySummary recovery;
    core::ShardTelemetry telemetry;
  };
  core::ShardTelemetry shard_total;  // folded in draw order, like the rest
  std::uint64_t ordinal = 0;  // scenarios dispatched so far
  while (!failed && std::chrono::steady_clock::now() - start < budget &&
         (scenario_cap == 0 || ordinal < scenario_cap)) {
    // Under a --scenarios budget the final batch is clamped so exactly the
    // requested count runs, regardless of thread count.
    const std::size_t batch =
        scenario_cap == 0
            ? batch_size
            : std::min<std::size_t>(batch_size, scenario_cap - ordinal);
    std::vector<std::uint64_t> seeds(batch);
    for (std::uint64_t& s : seeds) s = scenario_rng();
    std::vector<SoakOutcome> outcomes(batch);
    pool.parallel_for(batch, [&](std::size_t i) {
      const std::uint64_t seed = seeds[i];
      support::Rng srng(seed);
      const Scenario s = draw_scenario(srng);
      // Auto alternates between the two executors (still a pure function of
      // the scenario seed), so a long soak qualifies both code paths.
      const core::EngineKind kind =
          requested != core::EngineKind::Auto ? requested
          : srng.bernoulli(0.5)               ? core::EngineKind::Fast
                                              : core::EngineKind::Reference;
      outcomes[i].ok =
          run_scenario(s, seed, kind, shard_threads, session,
                       outcomes[i].scratch,
                       task_dump_path(dump_base, ordinal + i, parallel),
                       &outcomes[i].recovery, &outcomes[i].telemetry);
    });
    for (std::size_t i = 0; i < batch; ++i) {
      metrics.counter("soak.scenarios_total").inc();
      metrics.merge(outcomes[i].scratch);
      // Recovery summaries fold in draw order — the same deterministic
      // coordinator-owned aggregation the metrics use — so the artifact is
      // byte-identical for every --threads value.
      recovery_total.merge(outcomes[i].recovery);
      if (const core::ShardTelemetry& tel = outcomes[i].telemetry;
          tel.rounds > 0) {
        shard_total.shards = std::max(shard_total.shards, tel.shards);
        shard_total.rounds += tel.rounds;
        for (std::size_t p = 0; p < core::kShardPhaseCount; ++p)
          shard_total.phase_ms[p] += tel.phase_ms[p];
        shard_total.busy_ms += tel.busy_ms;
        shard_total.max_busy_ms += tel.max_busy_ms;
        shard_total.barrier_wait_ms += tel.barrier_wait_ms;
        shard_total.active_vertices += tel.active_vertices;
        shard_total.coin_beepers += tel.coin_beepers;
        shard_total.crosser_rows += tel.crosser_rows;
        shard_total.settled_candidates += tel.settled_candidates;
      }
      if (!outcomes[i].ok) {
        metrics.counter("soak.violations").inc();
        std::fprintf(stderr, "soak FAILED after %llu scenarios\n",
                     static_cast<unsigned long long>(runs));
        failed = true;
        break;
      }
      ++runs;
    }
    ordinal += batch;
    if (!failed && heartbeat.count() > 0 &&
        std::chrono::steady_clock::now() >= next_beat) {
      const auto elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
      const double rate =
          elapsed > 0.0 ? static_cast<double>(runs) / elapsed : 0.0;
      // The heartbeat prints between pool batches, so the tracer's dropped
      // count is stable while we read it.
      std::fprintf(stderr,
                   "[soak] %s t=%.0fs scenarios=%llu rounds=%llu "
                   "violations=%llu anomalies=%llu epochs=%llu rate=%.1f/s "
                   "workers=%zu per-worker=%.1f/s shard-threads=%zu "
                   "phase-imbalance=%.2f trace-dropped=%llu\n",
                   obs::timestamp_utc().c_str(), elapsed,
                   static_cast<unsigned long long>(runs),
                   static_cast<unsigned long long>(
                       metrics.counter("runner.rounds_total").value()),
                   static_cast<unsigned long long>(
                       metrics.counter("soak.violations").value()),
                   static_cast<unsigned long long>(
                       metrics.counter("soak.anomalies").value()),
                   static_cast<unsigned long long>(recovery_total.epochs),
                   rate, pool.thread_count(),
                   rate / static_cast<double>(pool.thread_count()),
                   support::TaskPool::resolve_thread_count(shard_threads),
                   shard_total.imbalance(),
                   static_cast<unsigned long long>(
                       obs::Tracer::instance().dropped_spans()));
      next_beat += heartbeat;
    }
  }

  // Summary-only recovery artifact: per-scenario epochs do not survive the
  // fold (epochs/violations arrays stay empty), but the counters and the
  // recovery-rounds digest aggregate every scenario in draw order.
  obs::RecoveryReport report;
  report.context.tool = "beepmis_soak";
  report.context.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  report.context.graph_name = "randomized-mix";
  report.context.family = "randomized-mix";
  report.context.algorithm = "randomized-mix";
  report.context.init_policy = "randomized-mix";
  report.context.engine = core::engine_kind_name(requested);
  report.context.add_extra("scenarios", std::to_string(runs));
  report.config.recovery_bound = 0;  // per-scenario (4× the O(log n) budget)
  report.summary = recovery_total;

  obs::RunManifest man;
  man.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  man.family = "randomized-mix";
  man.algorithm = "randomized-mix";
  man.add_extra("scenarios", std::to_string(runs));
  man.add_extra("recovery_epochs", std::to_string(recovery_total.epochs));
  man.add_extra("engine", core::engine_kind_name(requested));
  man.add_extra("shard_threads", std::to_string(shard_threads));
  man.add_extra("result", failed ? "FAILED" : "passed");
  if (const int rc = session.finish(std::move(man), metrics, &report, stderr);
      rc != 0)
    return rc;

  if (failed) return 1;
  std::printf("soak passed: %llu randomized scenarios, 0 violations\n",
              static_cast<unsigned long long>(runs));
  return 0;
}
