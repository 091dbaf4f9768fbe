/// beepmis_cli — run any algorithm of the library on a generated or loaded
/// graph, with fault injection, channel noise and per-round tracing; or run
/// a whole scaling sweep across a worker pool.
///
///   beepmis_cli --family er-avg8 --n 1024 --algorithm v1 --init uniform-random
///   beepmis_cli --graph-file topo.edges --algorithm v3 --trace
///   beepmis_cli --family torus --n 4096 --algorithm v2 --faults 64 --waves 3
///   beepmis_cli --algorithm v1 --sweep --sizes 64,256,1024 --sweep-seeds 16
///       --threads 0 --sweep-out sweep.json        (one command line)

#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>

#include "src/apps/coloring.hpp"
#include "src/apps/ruling_set.hpp"
#include "src/baselines/afek.hpp"
#include "src/baselines/afek_noknow.hpp"
#include "src/baselines/jsx.hpp"
#include "src/baselines/luby.hpp"
#include "src/core/engine.hpp"
#include "src/core/invariant.hpp"
#include "src/exp/families.hpp"
#include "src/exp/runner.hpp"
#include "src/exp/sweep.hpp"
#include "src/graph/io.hpp"
#include "src/obs/json.hpp"
#include "src/mis/verifier.hpp"
#include "src/obs/flight.hpp"
#include "src/obs/manifest.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/recovery.hpp"
#include "src/obs/session.hpp"
#include "src/obs/sink.hpp"
#include "src/obs/timing.hpp"
#include "src/obs/trace.hpp"
#include "src/support/args.hpp"
#include "src/support/svg.hpp"

namespace {

using namespace beepmis;

bool parse_family(const std::string& name, exp::Family* out) {
  for (exp::Family f :
       {exp::Family::ErdosRenyiAvg8, exp::Family::Random4Regular,
        exp::Family::Torus, exp::Family::BarabasiAlbert3,
        exp::Family::GeometricAvg8, exp::Family::RandomTree,
        exp::Family::Cycle, exp::Family::Star}) {
    if (exp::family_name(f) == name) {
      *out = f;
      return true;
    }
  }
  return false;
}

graph::Graph load_graph(const support::ArgParser& args, support::Rng& rng) {
  if (const std::string& path = args.get("graph-file"); !path.empty()) {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "cannot open graph file: " << path << "\n";
      std::exit(2);
    }
    // Auto-detect: packed binary starts with 'B' (the "BMPKCSR1" magic);
    // DIMACS files start with 'c' or 'p'; edge lists with n m.
    const int first = in.peek();
    if (first == 'B') return graph::read_packed(in);
    if (first == 'c' || first == 'p') return graph::read_dimacs(in, path);
    return graph::read_edge_list(in, path);
  }
  exp::Family f;
  if (!parse_family(args.get("family"), &f)) {
    std::cerr << "unknown family: " << args.get("family")
              << " (try er-avg8, 4-regular, "
              << "torus, ba-m3, rgg-avg8, rand-tree, cycle, star)\n";
    std::exit(2);
  }
  return exp::make_family(f, static_cast<std::size_t>(args.get_int("n")),
                          rng);
}

/// --events-out: the per-round JSONL stream. A path that cannot be opened
/// exits 2 before anything has run.
class EventsOut {
 public:
  EventsOut(const std::string& path, bool with_analysis) : path_(path) {
    if (path.empty()) return;
    file_.open(path);
    if (!file_) {
      std::cerr << "cannot open events file: " << path << "\n";
      std::exit(2);
    }
    sink_.emplace(file_, with_analysis);
  }

  obs::JsonlSink* sink() { return sink_ ? &*sink_ : nullptr; }

  /// Flushes the stream and prints the "wrote" notice to `notices`; false
  /// when the stream failed.
  bool close(std::FILE* notices) {
    if (!sink_) return true;
    if (!file_.flush()) {
      std::cerr << "cannot write events file: " << path_ << "\n";
      return false;
    }
    std::fprintf(notices, "wrote %s (%llu events)\n", path_.c_str(),
                 static_cast<unsigned long long>(sink_->lines_written()));
    return true;
  }

 private:
  std::string path_;
  std::ofstream file_;
  std::optional<obs::JsonlSink> sink_;
};

/// Heartbeat observer for long runs: prints one status line to stderr every
/// `every` rounds so a 10^6-round soak is visibly alive. Cheap fields only.
class ProgressMeter final : public obs::RoundObserver {
 public:
  explicit ProgressMeter(std::uint64_t every) : every_(every) {}

  std::uint64_t interval() const { return every_; }

  void on_round(const obs::RoundEvent& e) override {
    if (every_ == 0 || e.round % every_ != 0) return;
    std::fprintf(stderr,
                 "[beepmis] round=%llu active=%u mis=%u stable=%u "
                 "beeps=%u heard=%u\n",
                 static_cast<unsigned long long>(e.round), e.active, e.mis,
                 e.stable, e.beeps_ch1 + e.beeps_ch2, e.heard_any);
  }

 private:
  std::uint64_t every_;
};

core::InitPolicy parse_init(const std::string& name) {
  for (core::InitPolicy p : core::all_init_policies())
    if (core::init_policy_name(p) == name) return p;
  std::cerr << "unknown init policy: " << name << "\n";
  std::exit(2);
}

/// The self-stab engine config from the command line. Every usage error
/// exits 2 here, so main calls this before any graph is built.
core::EngineConfig parse_engine_config(const support::ArgParser& args,
                                       exp::Variant variant) {
  core::EngineConfig config;
  config.variant = variant;
  config.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  config.c1 = static_cast<std::int32_t>(args.get_int("c1"));
  for (const char* flag : {"noise-fp", "noise-fn"}) {
    const double rate = args.get_double(flag);
    if (!(rate >= 0.0 && rate <= 1.0)) {  // NaN fails too
      std::cerr << "--" << flag << " must lie in [0, 1]: " << args.get(flag)
                << "\n";
      std::exit(2);
    }
  }
  config.noise = beep::ChannelNoise{args.get_double("noise-fp"),
                                    args.get_double("noise-fn")};
  if (!core::parse_engine_kind(args.get("engine"), &config.kind)) {
    std::cerr << "unknown engine: " << args.get("engine")
              << " (try auto, fast, reference)\n";
    std::exit(2);
  }
  if (config.kind == core::EngineKind::Fast && config.noise.enabled()) {
    std::cerr << "--engine fast runs noise-free configs only "
                 "(try auto, reference)\n";
    std::exit(2);
  }
  config.shard_threads = args.get_count("shard-threads");
  if (const std::string& d = args.get("duplex"); d == "half") {
    config.duplex = beep::Duplex::Half;
  } else if (d != "full") {
    std::cerr << "unknown duplex mode: " << d << " (try full, half)\n";
    std::exit(2);
  }
  return config;
}

/// The round budget and the fault schedule, read before any graph is built.
struct RunBudget {
  beep::Round max_rounds = 0;  ///< rounds per run (--max-rounds)
  std::size_t faults = 0;      ///< vertices corrupted per wave (--faults)
  std::size_t waves = 0;       ///< fault waves after stabilization (--waves)
};

int run_selfstab(const support::ArgParser& args, obs::Session& session,
                 const graph::Graph& g, const core::EngineConfig& config,
                 core::InitPolicy init, const RunBudget& budget) {
  const exp::Variant variant = config.variant;
  const std::uint64_t seed = config.seed;
  auto engine = core::make_engine(g, config);

  // Shard count this run actually uses, as the engine resolved it (1 on the
  // reference engine and on graphs too small to split) — trace context, so
  // beepmis_report can key its phase-breakdown tables on it.
  const std::size_t shards = engine->shard_count();
  const std::string family =
      args.get("graph-file").empty() ? args.get("family") : "file";
  // beepmis_report keys its span-duration table on algorithm/family/n.
  session.start({{"algorithm", exp::variant_name(variant)},
                 {"family", family},
                 {"n", std::to_string(g.vertex_count())},
                 {"seed", args.get("seed")},
                 {"engine", engine->name()},
                 {"shards", std::to_string(shards)}});

  support::Rng init_rng = support::Rng(seed).derive_stream(0xfadedcafe);
  core::apply_init(*engine, init, init_rng);

  const bool tracing = args.flag("trace");
  const bool charting = !args.get("svg").empty();

  // Flight recorder, monitor and tracker; the context makes the dump and the
  // recovery artifact self-contained (everything needed to rerun).
  obs::ObserverOptions observers =
      session.observers(g.vertex_count(),
                        exp::default_round_budget(g.vertex_count()),
                        exp::default_recovery_bound(g.vertex_count()));
  observers.dump_path = args.get("flight-recorder");
  observers.anomaly.lemma_window = args.get_count("anomaly-lemma-window");
  // The Lemma 3.1 census exists for the Algorithm 1 variants only; it is
  // what makes persistent violations detectable (O(n + m)/round).
  observers.anomaly.check_lemma31 = variant != exp::Variant::TwoChannel;
  obs::FlightContext ctx;
  ctx.tool = "beepmis_cli";
  ctx.seed = seed;
  ctx.graph_name = g.name();
  ctx.family = family;
  ctx.n = g.vertex_count();
  ctx.m = g.edge_count();
  ctx.max_degree = g.max_degree();
  ctx.algorithm = exp::variant_name(variant);
  ctx.init_policy = args.get("init");
  ctx.engine = engine->name();
  ctx.add_extra("duplex", args.get("duplex"));
  ctx.add_extra("noise_fp", args.get("noise-fp"));
  ctx.add_extra("noise_fn", args.get("noise-fn"));
  obs::ObserverStack stack(observers, std::move(ctx),
                           core::make_level_probe(*engine),
                           core::make_invariant_probe(*engine));

  // Telemetry: registry always exists (near-free when unused); the event
  // sink, heartbeat and in-memory round log are attached only when asked
  // for. The engine has a single observer slot, so compose via the tee.
  obs::MetricsRegistry metrics;
  obs::TeeObserver& tee = stack.tee();
  EventsOut events(args.get("events-out"), /*with_analysis=*/true);
  tee.add(events.sink());
  ProgressMeter progress(args.get_count("progress"));
  if (progress.interval() > 0) tee.add(&progress);
  obs::MemorySink rounds_log;
  if (tracing || charting) tee.add(&rounds_log);
  if (!tee.empty()) engine->set_observer(&tee);
  engine->set_metrics(&metrics);

  auto run_once = [&](const char* label) {
    const auto rounds = engine->run_to_stabilization(budget.max_rounds);
    const auto members = engine->mis_members();
    const bool ok = engine->is_stabilized();
    metrics.counter("cli.runs_total").inc();
    metrics.counter("cli.rounds_total").inc(rounds);
    metrics.digest("cli.rounds_to_stabilize")
        .add(static_cast<double>(rounds));
    if (!ok) metrics.counter("cli.budget_exhausted").inc();
    std::printf("%-12s rounds=%llu stabilized=%s mis=%zu valid=%s\n", label,
                static_cast<unsigned long long>(rounds),
                ok ? "yes" : "NO", mis::member_count(members),
                mis::is_mis(g, members) ? "yes" : "NO");
    return ok;
  };

  bool ok;
  {
    obs::ScopedTimer timer(&metrics, "cli.run");
    ok = run_once("run");
    support::Rng frng = support::Rng(seed).derive_stream(0xfa17);
    for (std::size_t w = 0; w < budget.waves && budget.faults != 0; ++w) {
      obs::TraceScope wave_span("recovery.epoch", w + 1);
      core::corrupt_random(*engine, budget.faults, frng, stack.tracker());
      char label[32];
      std::snprintf(label, sizeof label, "wave %zu", w + 1);
      ok = run_once(label) && ok;
    }
    stack.finalize(engine->round());
  }

  // Every artifact is attempted; any that cannot be written makes the exit
  // status 2 without costing the others.
  int rc = 0;
  if (charting) {
    support::SvgChart chart("beepmis convergence (" + g.name() + ")",
                            "round", "vertices");
    std::vector<std::pair<double, double>> stable, mis, prominent;
    for (const auto& e : rounds_log.events()) {
      stable.emplace_back(static_cast<double>(e.round),
                          static_cast<double>(e.stable));
      mis.emplace_back(static_cast<double>(e.round),
                       static_cast<double>(e.mis));
      prominent.emplace_back(static_cast<double>(e.round),
                             static_cast<double>(e.prominent));
    }
    if (!stable.empty()) {
      chart.add_series("stable |S_t|", std::move(stable));
      chart.add_series("MIS |I_t|", std::move(mis));
      chart.add_series("prominent |PM_t|", std::move(prominent));
      if (!obs::write_artifact(args.get("svg"), "svg",
                               [&](std::ostream& os) { chart.write(os); },
                               stdout))
        rc = 2;
    }
  }

  if (tracing) {
    std::printf(
        "\nround, beeps_ch1, beeps_ch2, heard_ch1, heard_ch2, heard_any\n");
    for (const auto& e : rounds_log.events())
      std::printf("%llu, %u, %u, %u, %u, %u\n",
                  static_cast<unsigned long long>(e.round), e.beeps_ch1,
                  e.beeps_ch2, e.heard_ch1, e.heard_ch2, e.heard_any);
  }

  if (!events.close(stdout)) rc = 2;

  if (const obs::FlightRecorder* flight = stack.flight()) {
    if (flight->anomalies().empty()) {
      std::printf("flight recorder: no anomalies\n");
    } else {
      std::printf("flight recorder: %zu anomalie(s), dump in %s\n",
                  flight->anomalies().size(),
                  args.get("flight-recorder").c_str());
    }
  }

  std::optional<obs::RecoveryReport> recovery;
  if (stack.tracker() != nullptr) {
    recovery = stack.report();
    const obs::RecoverySummary& sum = recovery->summary;
    // Engine- and shard-invariant: this line (like the run lines above) is
    // part of the stdout test_kernel_equivalence diffs across engines.
    std::printf("recovery: epochs=%llu masked=%llu recovered=%llu "
                "stall=%llu safety=%llu violations=%llu\n",
                static_cast<unsigned long long>(sum.epochs),
                static_cast<unsigned long long>(sum.masked),
                static_cast<unsigned long long>(sum.recovered),
                static_cast<unsigned long long>(sum.stalls),
                static_cast<unsigned long long>(sum.safety_violations),
                static_cast<unsigned long long>(sum.invariant_violations));
  }

  obs::RunManifest man;
  man.seed = seed;
  man.graph_name = g.name();
  man.family = family;
  man.n = g.vertex_count();
  man.m = g.edge_count();
  man.max_degree = g.max_degree();
  man.algorithm = exp::variant_name(variant);
  man.init_policy = args.get("init");
  man.c1 = config.c1
               ? config.c1
               : (variant == exp::Variant::GlobalDelta ? core::kC1GlobalDelta
                  : variant == exp::Variant::OwnDegree ? core::kC1OwnDegree
                                                       : core::kC1TwoChannel);
  man.add_extra("stabilized", ok ? "yes" : "no");
  man.add_extra("rounds_total", std::to_string(engine->round()));
  man.add_extra("engine", engine->name());
  man.add_extra("engine_requested", core::engine_kind_name(config.kind));
  man.add_extra("kernel", engine->kernel_name());
  man.add_extra("shard_threads_requested", args.get("shard-threads"));
  man.add_extra("shards", std::to_string(shards));
  man.add_extra("duplex", args.get("duplex"));
  man.add_extra("faults_per_wave", args.get("faults"));
  man.add_extra("waves", args.get("waves"));
  man.add_extra("noise_fp", args.get("noise-fp"));
  man.add_extra("noise_fn", args.get("noise-fn"));
  rc = std::max(rc, session.finish(std::move(man), metrics,
                                   recovery ? &*recovery : nullptr, stdout));
  if (rc != 0) return rc;
  return ok ? 0 : 1;
}

/// --sweep mode: a full scaling sweep (sizes × seeds) of one self-stab
/// variant on one family, executed across a support::TaskPool of --threads
/// workers. The printed table and the beepmis.sweep.v1 JSON are
/// byte-identical for every thread count (CI diffs --threads 1 against
/// --threads 8), so --sweep-out deliberately records *what* was swept and
/// what came out — never wall-clock or worker count.
int run_sweep(const support::ArgParser& args, obs::Session& session,
              exp::Variant variant, exp::Family family) {
  // The heartbeat attaches to one engine's observer slot; a sweep runs
  // sizes × seeds engines, so it is a single-run feature.
  if (args.get_count("progress") != 0)
    std::fprintf(stderr,
                 "--progress is a single-run feature; ignored in --sweep "
                 "mode\n");
  exp::SweepConfig cfg;
  cfg.variant = variant;
  cfg.init = parse_init(args.get("init"));
  cfg.seeds = static_cast<std::size_t>(args.get_int("sweep-seeds"));
  cfg.base_seed = static_cast<std::uint64_t>(args.get_int("seed"));
  cfg.c1 = static_cast<std::int32_t>(args.get_int("c1"));
  cfg.threads = args.get_count("threads");
  if (!core::parse_engine_kind(args.get("engine"), &cfg.engine)) {
    std::cerr << "unknown engine: " << args.get("engine")
              << " (try auto, fast, reference)\n";
    return 2;
  }
  cfg.shard_threads = args.get_count("shard-threads");
  obs::MetricsRegistry metrics;
  cfg.metrics = &metrics;

  // --sizes: comma-separated vertex counts, or the "giant" preset — the
  // n = 10^7 ladder the sharded kernel and edge-list-free generators exist for.
  // Pair it with a small --sweep-seeds (replicas at 10^7 take minutes each).
  std::string sizes = args.get("sizes");
  if (sizes == "giant") sizes = "100000,300000,1000000,3000000,10000000";
  for (std::size_t pos = 0; pos < sizes.size();) {
    const std::size_t comma = sizes.find(',', pos);
    const std::string tok =
        sizes.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!tok.empty()) cfg.sizes.push_back(std::stoull(tok));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (cfg.sizes.empty()) {
    std::cerr << "--sweep needs --sizes n1,n2,...\n";
    return 2;
  }

  // Workers buffer per replica; the coordinator replays every replica's
  // stream into this sink contiguously, in seed order.
  EventsOut events(args.get("events-out"), /*with_analysis=*/false);
  cfg.observer = events.sink();

  // No single n/m: a sweep spans --sizes.
  session.start({{"algorithm", exp::variant_name(variant)},
                 {"family", exp::family_name(family)},
                 {"seed", args.get("seed")},
                 {"sizes", args.get("sizes")},
                 {"mode", "sweep"}});

  const auto points = exp::run_scaling_sweep(family, cfg);
  std::cout << exp::sweep_table(points).str();

  std::size_t failures = 0, invalid = 0;
  for (const auto& pt : points) {
    failures += pt.failures;
    invalid += pt.invalid;
  }

  // Status notices go to stderr in sweep mode: stdout carries only the
  // thread-count-invariant results, so `diff` on captured stdout is a valid
  // determinism check even when output paths differ per run.
  int rc = 0;
  if (const std::string& path = args.get("sweep-out"); !path.empty()) {
    const auto write_sweep = [&](std::ostream& out) {
      obs::JsonWriter w(out);
      w.begin_object();
      w.field("schema", "beepmis.sweep.v1");
      w.field("family", exp::family_name(family));
      w.field("algorithm", exp::variant_name(variant));
      w.field("init", args.get("init"));
      w.field("base_seed", static_cast<std::uint64_t>(cfg.base_seed));
      w.field("seeds_per_size", static_cast<std::uint64_t>(cfg.seeds));
      // Wall-clock provenance only, as run.v1's "kernel": the round kernel
      // of the engine that ran, "none" on the reference engine (sweeps are
      // noise-free, so auto and fast run the fast engine). Results are
      // engine-invariant, and test_kernel_equivalence diffs sweep outputs
      // across engines modulo this field.
      w.field("kernel",
              cfg.engine == core::EngineKind::Reference ? "none" : "sharded");
      w.key("points").begin_array();
      for (const auto& pt : points) {
        w.begin_object();
        w.field("n", static_cast<std::uint64_t>(pt.n));
        w.field("runs", static_cast<std::uint64_t>(pt.rounds.count()));
        w.field("mean", pt.rounds.mean());
        w.field("min", pt.rounds.min());
        w.field("max", pt.rounds.max());
        w.field("p50", pt.rounds.quantile(0.50));
        w.field("p90", pt.rounds.quantile(0.90));
        w.field("p95", pt.rounds.quantile(0.95));
        w.field("p99", pt.rounds.quantile(0.99));
        w.field("failures", static_cast<std::uint64_t>(pt.failures));
        w.field("invalid", static_cast<std::uint64_t>(pt.invalid));
        w.end_object();
      }
      w.end_array();
      w.end_object();
      out << '\n';
    };
    if (!obs::write_artifact(path, "sweep", write_sweep, stderr)) rc = 2;
  }

  if (!events.close(stderr)) rc = 2;

  obs::RunManifest man;
  man.seed = cfg.base_seed;
  man.family = args.get("family");
  man.algorithm = exp::variant_name(variant);
  man.init_policy = args.get("init");
  man.add_extra("mode", "sweep");
  man.add_extra("sizes", args.get("sizes"));
  man.add_extra("seeds_per_size", args.get("sweep-seeds"));
  man.add_extra("threads_requested", args.get("threads"));
  man.add_extra("shard_threads_requested", args.get("shard-threads"));
  rc = std::max(rc, session.finish(std::move(man), metrics, nullptr, stderr));
  if (rc != 0) return rc;
  return failures == 0 && invalid == 0 ? 0 : 1;
}

int run_baseline(const support::ArgParser& args, const graph::Graph& g,
                 const std::string& name, beep::Round budget) {
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  if (name == "luby") {
    auto algo = std::make_unique<baselines::LubyMis>(g);
    auto* a = algo.get();
    local::LocalSimulation sim(g, std::move(algo), seed);
    while (!a->terminated() && sim.round() < budget) sim.step();
    const auto members = a->mis_members();
    std::printf("luby rounds=%llu terminated=%s mis=%zu valid=%s\n",
                static_cast<unsigned long long>(sim.round()),
                a->terminated() ? "yes" : "NO", mis::member_count(members),
                mis::is_mis(g, members) ? "yes" : "NO");
    return a->terminated() ? 0 : 1;
  }
  std::unique_ptr<beep::BeepingAlgorithm> algo;
  if (name == "jsx") {
    algo = std::make_unique<baselines::JsxMis>(g);
  } else if (name == "afek-noknow") {
    algo = std::make_unique<baselines::AfekNoKnowledgeMis>(g);
  } else {  // afek
    algo = std::make_unique<baselines::AfekStyleMis>(g, g.vertex_count());
  }
  beep::Simulation sim(g, std::move(algo), seed);
  auto done_now = [&]() {
    if (auto* j = dynamic_cast<baselines::JsxMis*>(&sim.algorithm()))
      return j->terminated();
    if (auto* a = dynamic_cast<baselines::AfekNoKnowledgeMis*>(&sim.algorithm()))
      return a->terminated();
    return dynamic_cast<baselines::AfekStyleMis&>(sim.algorithm())
        .is_stabilized();
  };
  bool done = false;
  while (!done && sim.round() < budget) {
    sim.step();
    done = done_now();
  }
  std::vector<bool> members;
  if (auto* j = dynamic_cast<baselines::JsxMis*>(&sim.algorithm()))
    members = j->mis_members();
  else if (auto* a = dynamic_cast<baselines::AfekNoKnowledgeMis*>(&sim.algorithm()))
    members = a->mis_members();
  else
    members = dynamic_cast<baselines::AfekStyleMis&>(sim.algorithm())
                  .mis_members();
  std::printf("%s rounds=%llu done=%s mis=%zu valid=%s\n", name.c_str(),
              static_cast<unsigned long long>(sim.round()),
              done ? "yes" : "NO", mis::member_count(members),
              mis::is_mis(g, members) ? "yes" : "NO");
  return done ? 0 : 1;
}

int run_app(const support::ArgParser& args, const graph::Graph& g,
            const std::string& name, beep::Round budget) {
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  if (name == "coloring") {
    const auto r = apps::color_via_selfstab_mis(g, seed, budget);
    if (!r) {
      std::printf("coloring did not stabilize within the budget\n");
      return 1;
    }
    const auto k = static_cast<std::uint32_t>(g.max_degree() + 1);
    std::printf("coloring rounds=%llu colors=%u/%u proper=%s\n",
                static_cast<unsigned long long>(r->rounds), r->colors_used, k,
                apps::is_proper_coloring(g, r->colors, k) ? "yes" : "NO");
    return 0;
  }
  // ruling set
  const std::size_t alpha = args.get_count("alpha");
  const auto r = apps::ruling_set_via_selfstab_mis(g, alpha, seed, budget);
  if (!r) {
    std::printf("ruling set did not stabilize within the budget\n");
    return 1;
  }
  std::printf("ruling-set rounds=%llu members=%zu (%zu,%zu)-ruling=%s\n",
              static_cast<unsigned long long>(r->rounds),
              mis::member_count(r->members), alpha, alpha - 1,
              apps::is_ruling_set(g, r->members, alpha, alpha - 1) ? "yes"
                                                                   : "NO");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  support::ArgParser args(
      "beepmis_cli — self-stabilizing MIS in the beeping model "
      "(Giakkoupis, Turau, Ziccardi; PODC'24)");
  args.add_option("family", "er-avg8",
                  "graph family: er-avg8 | 4-regular | torus | ba-m3 | "
                  "rgg-avg8 | rand-tree | cycle | star");
  args.add_option("n", "1024", "number of vertices for generated graphs");
  args.add_option("graph-file", "",
                  "edge-list file to load instead of generating");
  args.add_option("algorithm", "v1",
                  "v1 (Thm 2.1) | v2 (Thm 2.2) | v3 (Cor 2.3) | jsx | afek | "
                  "afek-noknow | luby | coloring | ruling");
  args.add_option("init", "uniform-random",
                  "initial configuration policy (self-stab variants)");
  args.add_option("seed", "1", "master RNG seed");
  args.add_option("c1", "0", "lmax constant override (0 = paper default)");
  args.add_option("max-rounds", "100000", "round budget per run");
  args.add_option("faults", "0", "nodes to corrupt per fault wave");
  args.add_option("waves", "0", "number of fault waves after stabilization");
  args.add_option("noise-fp", "0", "receiver false-positive rate (extension)");
  args.add_option("noise-fn", "0", "receiver false-negative rate (extension)");
  args.add_option("engine", "auto",
                  "executor for self-stab variants: auto | fast | reference "
                  "(auto picks the fast engine, or the reference engine "
                  "under noise; both are stream-identical)");
  args.add_option("shard-threads", "1",
                  "worker threads INSIDE each fast-engine round: 1 = "
                  "serial, 0 = one per hardware thread; results are "
                  "bit-identical for every value");
  args.add_flag("relabel",
                "relabel vertices by descending degree before running "
                "(hubs get adjacent ids; the graph name gains a _degord "
                "suffix)");
  args.add_option("duplex", "full",
                  "radio model: full (hear while beeping) | half");
  args.add_option("alpha", "3", "ruling-set separation (algorithm=ruling)");
  args.add_option("svg", "", "write a convergence chart to this SVG file");
  args.add_option("events-out", "",
                  "stream per-round events (JSONL) to this file");
  args.add_option("flight-recorder", "",
                  "arm the black-box flight recorder; writes a "
                  "beepmis.dump.v1 JSON to this file when an anomaly "
                  "(stall, Lemma 3.1 persistence, beep storm) fires");
  args.add_option("progress", "0",
                  "print a heartbeat to stderr every K rounds (0 = off)");
  args.add_option("anomaly-lemma-window", "64",
                  "flight-recorder Lemma 3.1 persistence window in "
                  "analysis-bearing rounds (0 = off)");
  args.add_flag("trace", "print per-round beep statistics after the run");
  args.add_flag("sweep",
                "scaling-sweep mode (self-stab variants): run --sizes × "
                "--sweep-seeds replicas of --algorithm on --family");
  args.add_option("sizes", "64,256,1024",
                  "comma-separated vertex counts for --sweep");
  args.add_option("sweep-seeds", "12", "replicas per size for --sweep");
  args.add_option("threads", "1",
                  "worker threads for --sweep (0 = one per hardware "
                  "thread); results are bit-identical for every value");
  args.add_option("sweep-out", "",
                  "write a deterministic beepmis.sweep.v1 JSON summary "
                  "(identical across --threads values) to this file");
  obs::Session session(args, "beepmis_cli");

  std::string error;
  if (!args.parse(argc, argv, &error)) {
    std::cerr << error << "\n";
    return error.rfind("beepmis_cli", 0) == 0 ? 0 : 2;  // --help exits 0
  }

  // Options first read after the graph is built are checked here too, so a
  // bad value costs no generation and leaves stdout empty.
  for (const char* count : {"progress", "anomaly-lemma-window", "alpha"})
    (void)args.get_count(count);
  session.check_flags();

  const std::string algo = args.get("algorithm");
  std::optional<exp::Variant> variant;
  if (algo == "v1") variant = exp::Variant::GlobalDelta;
  if (algo == "v2") variant = exp::Variant::OwnDegree;
  if (algo == "v3") variant = exp::Variant::TwoChannel;
  if (args.flag("sweep")) {
    exp::Family family;
    if (!parse_family(args.get("family"), &family)) {
      std::cerr << "unknown family: " << args.get("family") << "\n";
      return 2;
    }
    if (variant) return run_sweep(args, session, *variant, family);
    std::cerr << "--sweep supports the self-stab variants only (v1|v2|v3)\n";
    return 2;
  }

  // Usage errors exit 2 before a graph is built: at n = 10^7 the generator
  // alone takes seconds.
  const bool baseline = algo == "jsx" || algo == "afek" ||
                        algo == "afek-noknow" || algo == "luby";
  const bool app = algo == "coloring" || algo == "ruling";
  if (!variant && !baseline && !app) {
    std::cerr << "unknown algorithm: " << algo << "\n";
    return 2;
  }
  if (algo == "ruling" && args.get_count("alpha") < 2) {
    std::cerr << "--alpha expects at least 2, got '" << args.get("alpha")
              << "'\n";
    return 2;
  }
  std::optional<core::EngineConfig> config;
  core::InitPolicy init = core::InitPolicy::UniformRandom;
  if (variant) {
    config = parse_engine_config(args, *variant);
    init = parse_init(args.get("init"));
  }
  const RunBudget budget{args.get_count("max-rounds"), args.get_count("faults"),
                         args.get_count("waves")};

  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  support::Rng graph_rng = support::Rng(seed).derive_stream(0x6ea9);
  graph::Graph g = load_graph(args, graph_rng);
  if (args.flag("relabel")) g = graph::relabel_by_degree(g).graph;
  if (config && budget.faults > g.vertex_count()) {
    std::cerr << "--faults expects at most the graph's " << g.vertex_count()
              << " vertices, got '" << args.get("faults") << "'\n";
    return 2;
  }
  std::printf("graph %s: n=%zu m=%zu max-degree=%zu\n", g.name().c_str(),
              g.vertex_count(), g.edge_count(), g.max_degree());

  if (config) return run_selfstab(args, session, g, *config, init, budget);
  if (baseline) return run_baseline(args, g, algo, budget.max_rounds);
  return run_app(args, g, algo, budget.max_rounds);
}
