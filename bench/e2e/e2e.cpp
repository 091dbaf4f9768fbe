// beepmis_e2e — end-to-end benchmark program.
//
//   beepmis_e2e prepare --workload W --seed S --out graph.bmcsr
//   beepmis_e2e run --workload W --seed S --seconds T --trace 0|1
//               [--graph graph.bmcsr] [--instances N] --out result.json
//
// `prepare` generates the workload's input graph from the seed and writes it
// as packed CSR; `run` measures the workload in a process of its own, so the
// peak RSS it reports belongs to that workload alone. Every layer is timed
// from outside, around calls into the library's public entry points; nothing
// inside src/ is instrumented. run.py orchestrates build, prepare, the
// untraced run and (with --trace 1) the traced run; README.md describes the
// workloads and metrics.

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/engine.hpp"
#include "src/core/init.hpp"
#include "src/core/invariant.hpp"
#include "src/exp/families.hpp"
#include "src/exp/runner.hpp"
#include "src/exp/sweep.hpp"
#include "src/graph/io.hpp"
#include "src/mis/verifier.hpp"
#include "src/obs/json.hpp"
#include "src/obs/manifest.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/recovery.hpp"
#include "src/obs/sink.hpp"
#include "src/support/args.hpp"
#include "src/support/rng.hpp"
#include "src/support/task_pool.hpp"

namespace {

using namespace beepmis;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Folds `parts` into `seed` through the splitmix64 avalanche, so every
/// (workload, instance, cell) coordinate draws from an unrelated stream.
std::uint64_t mix(std::uint64_t seed,
                  std::initializer_list<std::uint64_t> parts) {
  std::uint64_t state = seed;
  for (std::uint64_t p : parts) state = support::splitmix64(state) ^ p;
  return support::splitmix64(state);
}

// ------------------------------------------------------------- workloads

enum class Kind { Chaos, Giant, Recover, Sweep };

struct Workload {
  const char* name;
  Kind kind;
  std::size_t n;          ///< instance size; 0 for the sweep
  std::size_t min_timed;  ///< timed instances even if --seconds ran out first
};

// Why each workload exists is written down in README.md.
constexpr std::array<Workload, 4> kWorkloads = {{
    {"chaos-er-1e6", Kind::Chaos, 1'000'000, 10},
    {"giant-er-1e7-sharded", Kind::Giant, 10'000'000, 3},
    {"recover-er-1e6-monitored", Kind::Recover, 1'000'000, 3},
    {"sweep-mixed-small", Kind::Sweep, 0, 3},
}};

constexpr std::size_t kWaves = 10;            // per recover instance
constexpr std::size_t kFaultsPerWave = 1000;  // corrupt_random count
constexpr std::uint64_t kMonitorCadence = 64;  // the CLI's --monitor-every
constexpr std::size_t kSweepSeeds = 32;
constexpr std::array<std::size_t, 3> kSweepSizes = {4096, 16384, 65536};
constexpr std::array<exp::Family, 2> kSweepFamilies = {
    exp::Family::ErdosRenyiAvg8, exp::Family::BarabasiAlbert3};
constexpr std::array<core::Variant, 3> kSweepVariants = {
    core::Variant::GlobalDelta, core::Variant::OwnDegree,
    core::Variant::TwoChannel};

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return w;
  throw std::runtime_error("unknown workload: " + name);
}

// ------------------------------------------------------------------ host

std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    return std::max(1, CPU_COUNT(&set));
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Threads any workload may use: the usable CPUs, capped at 4.
std::size_t worker_threads() {
  return std::min<std::size_t>(usable_cpus(), 4);
}

/// Threads a workload runs on: one for chaos and recover, which exercise
/// the serial kernel; worker_threads() for the sharded and sweep workloads.
std::size_t threads_of(const Workload& w) {
  return w.kind == Kind::Giant || w.kind == Kind::Sweep ? worker_threads() : 1;
}

/// The CPU quota in cgroup v2's "cpu.max" form ("max 100000" = no quota).
std::string cgroup_cpu_max() {
  std::string line;
  if (std::ifstream f("/sys/fs/cgroup/cpu.max"); std::getline(f, line))
    return line;
  std::ifstream quota_f("/sys/fs/cgroup/cpu/cpu.cfs_quota_us");  // cgroup v1
  std::ifstream period_f("/sys/fs/cgroup/cpu/cpu.cfs_period_us");
  std::string quota, period;
  if (std::getline(quota_f, quota) && std::getline(period_f, period))
    return (quota == "-1" ? "max" : quota) + " " + period;
  return "unavailable";
}

// --------------------------------------------------------------- tracing

/// One timed call into the library.
struct Span {
  const char* name;
  int parent;          ///< enclosing span, -1 for an instance root
  int instance;        ///< 0 is the discarded warm-up
  int thread;          ///< 0 = the main thread, k = replica-pool worker k
  std::uint64_t arg;   ///< vertex count for core.solve, else 0
  double start_s;
  double end_s;
  double seconds() const { return end_s - start_s; }
};

/// In-memory span recorder, a no-op unless tracing. The main thread
/// opens and closes spans as a stack; replica-pool workers add finished task
/// spans, parented to whatever span the main thread has open.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}

  bool on() const noexcept { return on_; }

  void set_instance(int instance) {
    std::lock_guard<std::mutex> lock(mu_);
    instance_ = instance;
  }
  int open(const char* name, Clock::time_point at, std::uint64_t arg) {
    if (!on_) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, stack_.empty() ? -1 : stack_.back(), instance_, 0,
                      arg, since(at), 0.0});
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }
  void close(int id, Clock::time_point at) {
    if (id < 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_s = since(at);
    stack_.pop_back();
  }
  void task(std::size_t worker, Clock::time_point start,
            Clock::time_point end) {
    if (!on_) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({"support.task", stack_.empty() ? -1 : stack_.back(),
                      instance_, static_cast<int>(worker), 0, since(start),
                      since(end)});
  }
  /// Read only after every pool has drained.
  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  double since(Clock::time_point t) const {
    return seconds_between(origin_, t);
  }

  bool on_;
  Clock::time_point origin_;
  std::mutex mu_;  // guards instance_, spans_ and stack_
  int instance_ = 0;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Times one call. Always measures (the end-to-end numbers need it) and also
/// records a span when tracing.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::uint64_t arg = 0)
      : tracer_(tracer),
        start_(Clock::now()),
        id_(tracer.open(name, start_, arg)) {}
  ~Scope() { stop(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  Clock::time_point start() const noexcept { return start_; }
  double stop() {
    if (!stopped_) {
      const auto end = Clock::now();
      elapsed_ = seconds_between(start_, end);
      tracer_.close(id_, end);
      stopped_ = true;
    }
    return elapsed_;
  }

 private:
  Tracer& tracer_;
  Clock::time_point start_;
  int id_;
  bool stopped_ = false;
  double elapsed_ = 0.0;
};

/// Forwards every round event, timing each delivery as an obs.on_round span.
class TimedObserver final : public obs::RoundObserver {
 public:
  TimedObserver(Tracer& tracer, obs::RoundObserver& inner)
      : tracer_(tracer), inner_(inner) {}
  void on_round(const obs::RoundEvent& event) override {
    Scope s(tracer_, "obs.on_round");
    inner_.on_round(event);
  }
  bool wants_analysis() const override { return inner_.wants_analysis(); }

 private:
  Tracer& tracer_;
  obs::RoundObserver& inner_;
};

/// Process-wide replica-pool hook: keeps every task's wall time and hands it
/// to the tracer as a span.
class PoolClock final : public support::TaskPool::Observer {
 public:
  explicit PoolClock(Tracer& tracer) : tracer_(tracer) {
    support::TaskPool::set_observer(this);
  }
  ~PoolClock() override { support::TaskPool::set_observer(nullptr); }
  PoolClock(const PoolClock&) = delete;
  PoolClock& operator=(const PoolClock&) = delete;

  void on_task(const char* /*pool_label*/, std::size_t worker,
               std::size_t /*task_index*/, Clock::time_point start,
               Clock::time_point end) override {
    tracer_.task(worker, start, end);
    std::lock_guard<std::mutex> lock(mu_);
    task_s_.push_back(seconds_between(start, end));
  }
  /// Task times since the last call; call between batches only.
  std::vector<double> take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(task_s_, {});
  }

 private:
  Tracer& tracer_;
  std::mutex mu_;  // guards task_s_
  std::vector<double> task_s_;
};

// ----------------------------------------------------------------- stats

/// Linear interpolation between order statistics (numpy's default).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }
double total(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

struct Metric {
  double value;
  std::string unit;
  std::size_t samples;
};
using Metrics = std::map<std::string, Metric>;

// ------------------------------------------------------------------- run

struct Run {
  Run(const Workload& w, std::uint64_t s, bool traced)
      : workload(w), seed(s), tracer(traced) {}

  const Workload& workload;
  std::uint64_t seed;
  Tracer tracer;
  std::size_t instances = 0;  ///< including the warm-up
  std::size_t attempted = 0;  ///< verified results: instances, waves, replicas
  std::size_t failed = 0;
  std::uint64_t checksum = 0;
  std::uint64_t rounds = 0;  ///< over the solves the checksum covers
  /// Per timed instance (or wave, or replica) samples, keyed by metric name.
  std::map<std::string, std::vector<double>> samples;
  std::vector<core::ShardTelemetry> shards;  ///< giant, traced, timed instances

  /// Starts instance `instances` and returns its index.
  int next_instance() {
    const int i = static_cast<int>(instances++);
    tracer.set_instance(i);
    return i;
  }
  void verdict(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  /// Records a sample, unless the current instance is the warm-up.
  void sample(const std::string& name, double v) {
    if (instances > 1) samples[name].push_back(v);
  }
  /// Checksum over what the simulation decided in the warm-up and the first
  /// min_timed instances, which every run at this seed executes whatever
  /// its --seconds: any two runs at one seed, traced or not, must agree.
  void fold(std::uint64_t v) {
    if (instances <= workload.min_timed + 1) checksum = mix(checksum, {v});
  }
  void count_rounds(std::uint64_t r) {
    if (instances <= workload.min_timed + 1) rounds += r;
  }
};

/// Untraced: the library's own loop. Traced: the same is_stabilized / step
/// loop that Engine::run_to_stabilization runs, one span per call.
std::uint64_t solve(core::Engine& engine, std::uint64_t budget,
                    Tracer& tracer) {
  if (!tracer.on()) return engine.run_to_stabilization(budget);
  const std::uint64_t start = engine.round();
  for (;;) {
    bool settled;
    {
      Scope s(tracer, "core.settle_check");
      settled = engine.is_stabilized();
    }
    if (settled || engine.round() - start >= budget) break;
    Scope s(tracer, "core.step");
    engine.step();
  }
  return engine.round() - start;
}

struct Verdict {
  bool ok;
  std::size_t members;
  double seconds;
};

Verdict verify(const graph::Graph& g, const core::Engine& engine,
               Tracer& tracer) {
  Scope m(tracer, "core.mis_members");
  const std::vector<bool> members = engine.mis_members();
  const double members_s = m.stop();
  Scope s(tracer, "mis.is_mis");
  const bool ok = engine.is_stabilized() && mis::is_mis(g, members);
  return {ok, mis::member_count(members), members_s + s.stop()};
}

/// The beepmis_cli --monitor composition: the invariant monitor ahead of the
/// recovery tracker behind one tee, plus the metrics registry the CLI always
/// attaches. When tracing, a TimedObserver wraps the tee.
struct Monitoring {
  Monitoring(core::Engine& engine, Tracer& tracer)
      : tracker(obs::RecoveryConfig{
            exp::default_recovery_bound(engine.graph().vertex_count())}),
        monitor(obs::InvariantConfig{kMonitorCadence}),
        timed(tracer, tee) {
    tracker.set_probe(core::make_invariant_probe(engine));
    monitor.set_probe(core::make_invariant_probe(engine));
    monitor.set_recovery_tracker(&tracker);
    tee.add(&monitor);
    tee.add(&tracker);
    engine.set_observer(tracer.on() ? static_cast<obs::RoundObserver*>(&timed)
                                    : &tee);
    engine.set_metrics(&metrics);
  }
  Monitoring(const Monitoring&) = delete;
  Monitoring& operator=(const Monitoring&) = delete;

  obs::MetricsRegistry metrics;
  obs::RecoveryTracker tracker;
  obs::InvariantMonitor monitor;
  obs::TeeObserver tee;
  TimedObserver timed;
};

/// Writes the run.v1 and recovery.v1 documents a monitored CLI run leaves.
void write_artifacts(const std::filesystem::path& dir, std::uint64_t seed,
                     const core::Engine& engine, const Monitoring& mon,
                     const obs::RecoverySummary& summary, double wall_ms) {
  const graph::Graph& g = engine.graph();
  obs::RunManifest manifest;
  manifest.tool = "beepmis_e2e";
  manifest.seed = seed;
  manifest.graph_name = g.name();
  manifest.family = "file";
  manifest.n = g.vertex_count();
  manifest.m = g.edge_count();
  manifest.max_degree = g.max_degree();
  manifest.algorithm = core::variant_name(core::Variant::GlobalDelta);
  manifest.init_policy =
      core::init_policy_name(core::InitPolicy::UniformRandom);
  manifest.wall_ms = wall_ms;
  std::ofstream run_os(dir / "recover-run.json");
  obs::write_run_json(run_os, manifest, &mon.metrics);

  obs::RecoveryReport report;
  report.context.tool = manifest.tool;
  report.context.seed = seed;
  report.context.graph_name = manifest.graph_name;
  report.context.family = manifest.family;
  report.context.n = manifest.n;
  report.context.m = manifest.m;
  report.context.max_degree = manifest.max_degree;
  report.context.algorithm = manifest.algorithm;
  report.context.init_policy = manifest.init_policy;
  report.context.engine = engine.name();
  report.config = mon.tracker.config();
  report.monitor = true;
  report.monitor_cadence = mon.monitor.config().cadence;
  report.epochs = mon.tracker.epochs();
  report.violations = mon.monitor.violations();
  report.summary = summary;
  std::ofstream rec_os(dir / "recover-recovery.json");
  obs::write_recovery_json(rec_os, report);
  if (!run_os.flush() || !rec_os.flush())
    throw std::runtime_error("cannot write artifacts in " + dir.string());
}

/// Stop rule shared by both loops: a fixed instance count when given (the
/// traced run replays the untraced run's instances), else at least
/// min_timed timed instances and at least `seconds` of timed wall.
bool more(const Run& run, std::size_t fixed, std::size_t timed, double timed_s,
          double seconds) {
  if (fixed > 0) return run.instances < fixed;
  return timed < run.workload.min_timed || timed_s < seconds;
}

/// chaos, giant and recover: every instance loads the prepared graph, builds
/// and initialises an engine with its own seed, solves, verifies, and (for
/// recover) runs the fault waves. Instance 0 is the discarded warm-up.
void run_instances(Run& run, const std::string& graph_path, double seconds,
                   std::size_t fixed, const std::filesystem::path& artifacts) {
  const Workload& w = run.workload;
  Tracer& tracer = run.tracer;
  std::size_t timed = 0;
  double timed_s = 0.0;
  while (more(run, fixed, timed, timed_s, seconds)) {
    const int i = run.next_instance();
    const bool keep = i > 0;
    const std::uint64_t seed =
        mix(run.seed, {static_cast<std::uint64_t>(w.kind), 0x1a57,
                       static_cast<std::uint64_t>(i)});
    Scope root(tracer, "instance");

    std::unique_ptr<graph::Graph> g;
    double setup_s = 0.0;
    {
      Scope s(tracer, "graph.load");
      std::ifstream in(graph_path, std::ios::binary);
      if (!in) throw std::runtime_error("cannot open graph: " + graph_path);
      g = std::make_unique<graph::Graph>(graph::read_packed(in));
      setup_s += s.stop();
      run.sample("graph.load_s", s.stop());
    }
    core::EngineConfig config;
    config.variant = core::Variant::GlobalDelta;
    config.seed = seed;
    config.shard_threads = threads_of(w);
    config.phase_telemetry = w.kind == Kind::Giant && tracer.on();
    std::unique_ptr<core::Engine> engine;
    {
      Scope s(tracer, "core.build");
      engine = core::make_engine(*g, config);
      setup_s += s.stop();
      run.sample("core.build_s", s.stop());
    }
    {
      Scope s(tracer, "core.init");
      support::Rng rng = support::Rng(seed).derive_stream(0xfadedcafe);
      core::apply_init(*engine, core::InitPolicy::UniformRandom, rng);
      setup_s += s.stop();
      run.sample("core.init_s", s.stop());
    }
    std::unique_ptr<Monitoring> mon;
    if (w.kind == Kind::Recover) {
      Scope s(tracer, "obs.attach");
      mon = std::make_unique<Monitoring>(*engine, tracer);
      setup_s += s.stop();
    }

    const std::uint64_t budget = exp::default_round_budget(g->vertex_count());
    std::uint64_t rounds;
    double solve_s;
    {
      Scope s(tracer, "core.solve", g->vertex_count());
      rounds = solve(*engine, budget, tracer);
      solve_s = s.stop();
    }
    if (keep && config.phase_telemetry) {
      core::ShardTelemetry t;
      if (engine->shard_telemetry(&t)) run.shards.push_back(t);
    }
    const Verdict v = verify(*g, *engine, tracer);
    run.verdict(v.ok);
    run.fold(rounds);
    run.fold(v.members);
    run.count_rounds(rounds);
    std::size_t results = 1;
    run.sample("setup_s", setup_s);
    run.sample("time_to_mis_s", setup_s + solve_s + v.seconds);
    run.sample("core.rounds_per_solve", static_cast<double>(rounds));
    if (w.kind != Kind::Recover) run.sample("solve_s", solve_s);
    std::printf("  instance %d%s: setup %.3f s, solve %.3f s (%llu rounds), "
                "verify %.3f s, mis %zu, %s\n",
                i, keep ? "" : " (warm-up)", setup_s, solve_s,
                static_cast<unsigned long long>(rounds), v.seconds, v.members,
                v.ok ? "valid" : "INVALID");

    if (mon) {
      support::Rng frng = support::Rng(seed).derive_stream(0xfa17);
      for (std::size_t wave = 0; wave < kWaves; ++wave) {
        Scope ws(tracer, "core.wave");
        {
          Scope s(tracer, "core.corrupt");
          core::corrupt_random(*engine, kFaultsPerWave, frng, &mon->tracker);
          run.sample("core.corrupt_ms", 1e3 * s.stop());
        }
        std::uint64_t wave_rounds;
        {
          Scope s(tracer, "core.solve", g->vertex_count());
          wave_rounds = solve(*engine, budget, tracer);
          run.sample("solve_s", s.stop());
        }
        const Verdict wv = verify(*g, *engine, tracer);
        run.verdict(wv.ok);
        run.fold(wave_rounds);
        run.fold(wv.members);
        run.count_rounds(wave_rounds);
        ++results;
        run.sample("core.wave_rounds", static_cast<double>(wave_rounds));
        run.sample("wave_s", ws.stop());
      }
      mon->tracker.finalize(engine->round());
      const obs::RecoverySummary sum = mon->tracker.summary();
      // The recovery artifact's own verdict: one epoch per wave, none of
      // them a stall or a safety violation, and no invariant break seen by
      // the monitor at any round.
      run.verdict(sum.epochs == kWaves && sum.stalls == 0 &&
                  sum.safety_violations == 0 && sum.invariant_violations == 0 &&
                  mon->monitor.violations().empty());
      run.fold(sum.epochs);
      run.fold(sum.masked);
      {
        Scope s(tracer, "obs.artifact_write");
        write_artifacts(artifacts, seed, *engine, *mon, sum,
                        1e3 * seconds_between(root.start(), Clock::now()));
        run.sample("obs.artifact_write_s", s.stop());
      }
      std::printf("  instance %d: %zu waves, epochs %llu, recovered %llu, "
                  "violations %llu\n",
                  i, kWaves, static_cast<unsigned long long>(sum.epochs),
                  static_cast<unsigned long long>(sum.recovered),
                  static_cast<unsigned long long>(sum.invariant_violations));
    }
    {
      Scope s(tracer, "teardown");
      engine->set_observer(nullptr);
      engine->set_metrics(nullptr);
      mon.reset();
      engine.reset();
      g.reset();
    }
    const double wall = root.stop();
    if (keep) {
      ++timed;
      timed_s += wall;
      run.sample("instance_s", wall);
      run.sample("results", static_cast<double>(results));
    }
  }
}

/// sweep: per instance, a set-up pass (one replica of each of the 18
/// family x variant x n cells, generated, built and initialised outside the
/// pool; traced runs also solve and verify it) and then the sweep itself,
/// run_scaling_sweep over the same cells with 32 seeds each.
void run_sweeps(Run& run, double seconds, std::size_t fixed) {
  Tracer& tracer = run.tracer;
  const std::size_t threads = threads_of(run.workload);
  PoolClock pool(tracer);
  std::size_t timed = 0;
  double timed_s = 0.0;
  while (more(run, fixed, timed, timed_s, seconds)) {
    const int i = run.next_instance();
    const bool keep = i > 0;
    Scope root(tracer, "instance");

    double generate_s = 0.0, build_s = 0.0, init_s = 0.0;
    std::uint64_t cell = 0;
    for (exp::Family family : kSweepFamilies)
      for (core::Variant variant : kSweepVariants)
        for (std::size_t n : kSweepSizes) {
          const std::uint64_t seed =
              mix(run.seed, {0x5e7, static_cast<std::uint64_t>(i), cell++});
          std::unique_ptr<graph::Graph> g;
          {
            Scope s(tracer, "graph.generate");
            support::Rng rng = support::Rng(seed).derive_stream(0x6ea9);
            g = std::make_unique<graph::Graph>(
                exp::make_family(family, n, rng));
            generate_s += s.stop();
          }
          core::EngineConfig config;
          config.variant = variant;
          config.seed = seed;
          std::unique_ptr<core::Engine> engine;
          {
            Scope s(tracer, "core.build");
            engine = core::make_engine(*g, config);
            build_s += s.stop();
          }
          {
            Scope s(tracer, "core.init");
            support::Rng rng = support::Rng(seed).derive_stream(0xfadedcafe);
            core::apply_init(*engine, core::InitPolicy::UniformRandom, rng);
            init_s += s.stop();
          }
          if (tracer.on()) {
            {
              Scope s(tracer, "core.solve", g->vertex_count());
              solve(*engine, exp::default_round_budget(g->vertex_count()),
                    tracer);
            }
            run.verdict(verify(*g, *engine, tracer).ok);
          }
          Scope s(tracer, "teardown");
          engine.reset();
          g.reset();
        }
    run.sample("setup_s", generate_s + build_s + init_s);
    run.sample("graph.generate_s", generate_s);
    run.sample("core.build_s", build_s);
    run.sample("core.init_s", init_s);

    obs::MetricsRegistry registry;
    std::vector<exp::SweepPoint> points;
    std::vector<std::pair<exp::Family, core::Variant>> labels;
    double sweep_s;
    {
      Scope s(tracer, "exp.sweep");
      for (exp::Family family : kSweepFamilies)
        for (core::Variant variant : kSweepVariants) {
          exp::SweepConfig config;
          config.variant = variant;
          config.init = core::InitPolicy::UniformRandom;
          config.sizes.assign(kSweepSizes.begin(), kSweepSizes.end());
          config.seeds = kSweepSeeds;
          config.base_seed =
              mix(run.seed, {0x5ee9, static_cast<std::uint64_t>(i)});
          config.metrics = &registry;
          config.threads = threads;
          for (exp::SweepPoint& pt : exp::run_scaling_sweep(family, config)) {
            points.push_back(std::move(pt));
            labels.emplace_back(family, variant);
          }
        }
      sweep_s = s.stop();
    }
    std::size_t replicas = 0;
    for (std::size_t k = 0; k < points.size(); ++k) {
      const exp::SweepPoint& pt = points[k];
      const std::size_t count = pt.rounds.count();
      for (std::size_t r = 0; r < count; ++r)
        run.verdict(r >= pt.failures + pt.invalid);
      replicas += count;
      run.count_rounds(static_cast<std::uint64_t>(pt.rounds.sum()));
      for (std::uint64_t x :
           {static_cast<std::uint64_t>(labels[k].first),
            static_cast<std::uint64_t>(labels[k].second),
            static_cast<std::uint64_t>(pt.n), static_cast<std::uint64_t>(count),
            static_cast<std::uint64_t>(pt.rounds.sum()),
            static_cast<std::uint64_t>(pt.rounds.min()),
            static_cast<std::uint64_t>(pt.rounds.max()),
            static_cast<std::uint64_t>(pt.failures),
            static_cast<std::uint64_t>(pt.invalid)})
        run.fold(x);
    }
    // The registry the sweep filled must agree with the points it returned.
    run.verdict(registry.counter("sweep.runs_total").value() == replicas);
    const std::vector<double> tasks = pool.take();
    const double wall = root.stop();
    run.sample("solve_s", sweep_s);
    run.sample("exp.sweep_s", sweep_s);
    const auto sweep_rounds = registry.counter("runner.rounds_total").value();
    run.sample("core.rounds_per_solve", static_cast<double>(sweep_rounds) /
                                            static_cast<double>(replicas));
    run.sample("support.pool_tasks", static_cast<double>(tasks.size()));
    run.sample("support.pool_idle_s",
           static_cast<double>(threads) * sweep_s - total(tasks));
    run.sample("support.task_busy_s", total(tasks));
    run.sample("results", static_cast<double>(replicas));
    if (keep) {
      for (double t : tasks) run.samples["time_to_mis_s"].push_back(t);
      ++timed;
      timed_s += wall;
    }
    std::printf("  instance %d%s: set-up pass %.3f s, sweep %.3f s, %zu "
                "replicas, %zu pool tasks\n",
                i, keep ? "" : " (warm-up)", generate_s + build_s + init_s,
                sweep_s, replicas, tasks.size());
  }
}

// ------------------------------------------------------ metric derivation

/// End-to-end metrics: medians over timed instances (or waves, or replicas).
Metrics end_to_end(const Run& run) {
  const auto& s = run.samples;
  Metrics m;
  for (const char* name : {"setup_s", "solve_s", "time_to_mis_s"})
    m[name] = {median(s.at(name)), "s", s.at(name).size()};
  // Verified MIS results per second of wall, median over timed units (the
  // sweep's rate excludes its set-up pass), so one slow unit is one sample.
  const auto& results = s.at("results");
  const auto& walls =
      s.at(run.workload.kind == Kind::Sweep ? "solve_s" : "instance_s");
  std::vector<double> rates;
  for (std::size_t k = 0; k < results.size(); ++k)
    rates.push_back(results[k] / walls[k]);
  m["mis_per_s"] = {median(rates), "1/s", rates.size()};
  m["peak_rss_mib"] = {
      static_cast<double>(obs::peak_rss_bytes()) / (1024.0 * 1024.0), "MiB",
      1};
  return m;
}

const Span& parent_of(const std::vector<Span>& spans, const Span& s) {
  return spans[static_cast<std::size_t>(s.parent)];
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].seconds();
  for (const Span& s : spans)
    if (s.parent >= 0 && parent_of(spans, s).thread == s.thread)
      self[static_cast<std::size_t>(s.parent)] -= s.seconds();
  return self;
}

struct Reconciliation {
  std::vector<double> accounted;  ///< per timed instance
  std::vector<std::string> warnings;
  /// Median per-instance self time of every layer span name.
  std::map<std::string, double> layer_self_s;
  double instance_s = 0.0;  ///< median instance wall
};

/// Layer self-times on the main thread must add back up to the instance
/// wall; the part they miss is the instance root's own self time.
Reconciliation reconcile(const Run& run) {
  const auto& spans = run.tracer.spans();
  const auto self = self_times(spans);
  Reconciliation r;
  std::map<int, std::map<std::string, double>> per_instance;
  std::vector<double> walls;
  for (std::size_t k = 0; k < spans.size(); ++k) {
    const Span& s = spans[k];
    if (s.instance == 0 || s.thread != 0) continue;
    if (s.parent >= 0) {
      per_instance[s.instance][s.name] += self[k];
      continue;
    }
    const double accounted = 1.0 - self[k] / s.seconds();
    r.accounted.push_back(accounted);
    walls.push_back(s.seconds());
    if (accounted >= 0.95) continue;
    // Name the largest stretch of the instance no layer span covers.
    double gap = 0.0, cursor = s.start_s;
    std::string where = "start", prev = "start";
    for (std::size_t c = k + 1; c < spans.size(); ++c) {
      const Span& child = spans[c];
      if (child.parent != static_cast<int>(k) || child.thread != 0) continue;
      if (child.start_s - cursor > gap) {
        gap = child.start_s - cursor;
        where = prev + " -> " + child.name;
      }
      cursor = child.end_s;
      prev = child.name;
    }
    if (s.end_s - cursor > gap) {
      gap = s.end_s - cursor;
      where = prev + " -> end";
    }
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "instance %d: layers cover %.1f%% of %.3f s; largest gap "
                  "%.4f s between %s",
                  s.instance, 100.0 * accounted, s.seconds(), gap,
                  where.c_str());
    r.warnings.emplace_back(buf);
  }
  std::map<std::string, std::vector<double>> by_layer;
  for (const auto& [instance, layers] : per_instance)
    for (const auto& [name, secs] : layers) by_layer[name].push_back(secs);
  for (const auto& [name, v] : by_layer) r.layer_self_s[name] = median(v);
  r.instance_s = median(walls);
  return r;
}

/// Per-layer metrics, from the traced run's spans plus the samples every
/// run keeps. Layer metrics that do not apply to a workload are absent.
Metrics per_layer(const Run& run, const Reconciliation& rec) {
  const auto& spans = run.tracer.spans();
  const auto self = self_times(spans);
  const auto& s = run.samples;
  Metrics m;
  auto put = [&](const std::string& name, std::vector<double> v,
                 const char* unit) {
    if (!v.empty()) m[name] = {median(v), unit, v.size()};
  };

  // Layers timed while running; each is sampled only where it exists.
  for (const auto& [name, unit] :
       std::initializer_list<std::pair<const char*, const char*>>{
           {"graph.load_s", "s"},          {"graph.generate_s", "s"},
           {"core.build_s", "s"},          {"core.init_s", "s"},
           {"core.rounds_per_solve", "rounds"},
           {"wave_s", "s"},                {"core.corrupt_ms", "ms"},
           {"core.wave_rounds", "rounds"}, {"obs.artifact_write_s", "s"},
           {"exp.sweep_s", "s"},           {"support.pool_tasks", "count"},
           {"support.pool_idle_s", "s"}})
    if (const auto it = s.find(name); it != s.end())
      put(name, it->second, unit);
  if (const auto it = s.find("graph.bytes"); it != s.end()) {
    const double bytes = it->second.front();
    m["graph.bytes"] = {bytes, "bytes", 1};
    m["graph.load_mb_per_s"] = {bytes / 1e6 / m.at("graph.load_s").value,
                                "MB/s", m.at("graph.load_s").samples};
  }

  // Per timed instance: step and settle-check self time of its first solve
  // (the sweep: of its set-up pass replicas), observer time, solve time.
  std::map<int, double> step_s, settle_s, on_round_s, solve_s;
  std::vector<double> round_ms;
  double node_rounds = 0.0, step_total = 0.0;
  std::map<std::string, std::vector<double>> calls;
  for (std::size_t k = 0; k < spans.size(); ++k) {
    const Span& sp = spans[k];
    if (sp.instance == 0) continue;
    const std::string name = sp.name;
    calls[name].push_back(sp.seconds());
    if (name == "obs.on_round") on_round_s[sp.instance] += sp.seconds();
    if (name == "core.solve") solve_s[sp.instance] += sp.seconds();
    if (sp.parent < 0) continue;
    const Span& solve = parent_of(spans, sp);
    if (std::string(solve.name) != "core.solve" || solve.parent < 0 ||
        parent_of(spans, solve).parent >= 0)
      continue;
    if (name == "core.step") {
      step_s[sp.instance] += self[k];
      round_ms.push_back(1e3 * self[k]);
      step_total += self[k];
      node_rounds += static_cast<double>(solve.arg);
    } else if (name == "core.settle_check") {
      settle_s[sp.instance] += self[k];
    }
  }
  auto values = [](const std::map<int, double>& by_instance) {
    std::vector<double> v;
    for (const auto& [instance, x] : by_instance) v.push_back(x);
    return v;
  };
  put("core.step_s", values(step_s), "s");
  put("core.settle_check_s", values(settle_s), "s");
  if (!round_ms.empty()) {
    m["core.round_ms_p50"] = {quantile(round_ms, 0.5), "ms", round_ms.size()};
    m["core.round_ms_p90"] = {quantile(round_ms, 0.9), "ms", round_ms.size()};
    m["core.ns_per_node_round"] = {1e9 * step_total / node_rounds, "ns",
                                   round_ms.size()};
  }
  put("core.mis_members_s", calls["core.mis_members"], "s");
  put("mis.is_mis_s", calls["mis.is_mis"], "s");
  if (!on_round_s.empty()) {
    put("obs.on_round_s", values(on_round_s), "s");
    m["obs.on_round_frac"] = {
        total(values(on_round_s)) / total(values(solve_s)), "ratio",
        on_round_s.size()};
  }
  if (!run.shards.empty()) {
    core::ShardTelemetry sum;
    double phase_wall = 0.0, active = 0.0, coin = 0.0, crossers = 0.0;
    for (const core::ShardTelemetry& t : run.shards) {
      sum.shards = t.shards;
      sum.rounds += t.rounds;
      for (std::size_t p = 0; p < core::kShardPhaseCount; ++p) {
        sum.phase_ms[p] += t.phase_ms[p];
        phase_wall += t.phase_ms[p];
      }
      sum.busy_ms += t.busy_ms;
      sum.max_busy_ms += t.max_busy_ms;
      sum.barrier_wait_ms += t.barrier_wait_ms;
      active += static_cast<double>(t.active_vertices);
      coin += static_cast<double>(t.coin_beepers);
      crossers += static_cast<double>(t.crosser_rows);
    }
    const std::size_t count = run.shards.size();
    const double rounds = static_cast<double>(sum.rounds);
    for (std::size_t p = 0; p < core::kShardPhaseCount; ++p)
      m[std::string("core.shard.") + core::kShardPhaseKeys[p] + "_ms"] = {
          sum.phase_ms[p] / rounds, "ms", count};
    m["core.shard.barrier_wait_frac"] = {
        sum.barrier_wait_ms / (sum.barrier_wait_ms + sum.busy_ms), "ratio",
        count};
    m["core.shard.imbalance"] = {sum.imbalance(), "ratio", count};
    m["core.shard.efficiency"] = {
        sum.busy_ms / (static_cast<double>(sum.shards) * phase_wall), "ratio",
        count};
    const double per = static_cast<double>(count);
    m["core.shard.active_vertices"] = {active / per, "count", count};
    m["core.shard.coin_beepers"] = {coin / per, "count", count};
    m["core.shard.crosser_rows"] = {crossers / per, "count", count};
  }
  if (run.workload.kind == Kind::Sweep) {
    const auto& tasks = s.at("time_to_mis_s");  // one sample per pool task
    const double tasks_s = total(s.at("support.task_busy_s"));
    const double pool_s = static_cast<double>(threads_of(run.workload)) *
                          total(s.at("exp.sweep_s"));
    m["support.task_ms_p50"] = {1e3 * quantile(tasks, 0.5), "ms", tasks.size()};
    m["support.task_ms_p90"] = {1e3 * quantile(tasks, 0.9), "ms", tasks.size()};
    m["support.pool_busy_frac"] = {tasks_s / pool_s, "ratio", tasks.size()};
  }
  put("trace_accounted_frac", rec.accounted, "ratio");
  return m;
}

// ---------------------------------------------------------------- output

void write_metrics(obs::JsonWriter& j, const Metrics& metrics) {
  j.begin_object();
  for (const auto& [name, metric] : metrics) {
    j.key(name).begin_object();
    j.field("value", metric.value);
    j.field("unit", metric.unit);
    j.field("samples", static_cast<std::uint64_t>(metric.samples));
    j.end_object();
  }
  j.end_object();
}

void print_metrics(const char* title, const Metrics& metrics) {
  std::printf("%s\n", title);
  for (const auto& [name, metric] : metrics)
    std::printf("  %-30s %14.6g %-7s (n=%zu)\n", name.c_str(), metric.value,
                metric.unit.c_str(), metric.samples);
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void write_result(const std::string& path, const Run& run, const Metrics& e2e,
                  const Metrics& layers, const Reconciliation* rec) {
  std::ofstream os(path);
  obs::JsonWriter j(os);
  j.begin_object();
  j.field("workload", run.workload.name);
  j.field("seed", run.seed);
  j.field("traced", run.tracer.on());
  j.field("instances", static_cast<std::uint64_t>(run.instances));
  j.field("attempted", static_cast<std::uint64_t>(run.attempted));
  j.field("failed", static_cast<std::uint64_t>(run.failed));
  j.field("checksum", hex(run.checksum));
  j.field("rounds", run.rounds);
  j.key("host").begin_object();
  j.field("nproc", static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  j.field("affinity_cpus", static_cast<std::uint64_t>(usable_cpus()));
  j.field("cgroup_cpu_max", cgroup_cpu_max());
  j.field("avx512", __builtin_cpu_supports("avx512f") != 0);
  j.field("compiler", obs::build_compiler());
  j.field("build_type", obs::build_type());
  j.field("git_sha", obs::build_git_sha());
  j.field("git_dirty", obs::build_git_dirty());
  j.end_object();
  j.field("threads", static_cast<std::uint64_t>(threads_of(run.workload)));
  j.key("end_to_end");
  write_metrics(j, e2e);
  j.key("samples").begin_object();
  for (const auto& [name, values] : run.samples) {
    j.key(name).begin_array();
    for (double v : values) j.value(v);
    j.end_array();
  }
  j.end_object();
  j.key("per_layer");
  write_metrics(j, layers);
  if (rec != nullptr) {
    j.key("layer_self_s").begin_object();
    for (const auto& [name, secs] : rec->layer_self_s) j.field(name, secs);
    j.end_object();
    j.field("instance_s", rec->instance_s);
    j.key("warnings").begin_array();
    for (const std::string& w : rec->warnings) j.value(w);
    j.end_array();
  }
  j.end_object();
  os << '\n';
  if (!os.flush()) throw std::runtime_error("cannot write " + path);
}

void write_trace(const std::string& path, const Run& run) {
  std::ofstream os(path);
  obs::JsonWriter j(os);
  j.begin_object();
  j.field("workload", run.workload.name);
  j.key("spans").begin_array();
  for (const Span& s : run.tracer.spans()) {
    j.begin_object();
    j.field("name", s.name);
    j.field("instance", static_cast<std::int64_t>(s.instance));
    j.field("parent", static_cast<std::int64_t>(s.parent));
    j.field("thread", static_cast<std::int64_t>(s.thread));
    j.field("start_us", 1e6 * s.start_s);
    j.field("end_us", 1e6 * s.end_s);
    j.end_object();
  }
  j.end_array();
  j.end_object();
  os << '\n';
  if (!os.flush()) throw std::runtime_error("cannot write " + path);
}

// ------------------------------------------------------------- commands

/// The input graph of a file workload: er-avg8 at the workload's n, drawn
/// from (seed, n) alone, so chaos and recover load the same graph.
int prepare(const support::ArgParser& args) {
  const Workload& w = find_workload(args.get("workload"));
  if (w.kind == Kind::Sweep)
    throw std::runtime_error("the sweep has no input file");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const auto t0 = Clock::now();
  support::Rng rng(mix(seed, {0x6ea9, w.n}));
  const graph::Graph g =
      exp::make_family(exp::Family::ErdosRenyiAvg8, w.n, rng);
  const auto t1 = Clock::now();
  const std::string path = args.get("out");
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary);
    graph::write_packed(g, os);
    if (!os.flush()) throw std::runtime_error("cannot write " + tmp);
  }
  std::filesystem::rename(tmp, path);
  const auto t2 = Clock::now();
  std::printf("{\"generate_s\": %.9g, \"write_s\": %.9g, \"bytes\": %llu, "
              "\"n\": %zu, \"m\": %zu}\n",
              seconds_between(t0, t1), seconds_between(t1, t2),
              static_cast<unsigned long long>(std::filesystem::file_size(path)),
              g.vertex_count(), g.edge_count());
  return 0;
}

int run_command(const support::ArgParser& args) {
  const Workload& w = find_workload(args.get("workload"));
  Run run(w, static_cast<std::uint64_t>(args.get_int("seed")),
          args.get_int("trace") != 0);
  const double seconds = args.get_double("seconds");
  const auto fixed = static_cast<std::size_t>(args.get_int("instances"));
  const std::string out = args.get("out");
  if (out.empty()) throw std::runtime_error("--out is required");
  std::printf("%s seed %llu, %s, %zu thread(s)\n", w.name,
              static_cast<unsigned long long>(run.seed),
              run.tracer.on() ? "traced" : "untraced", threads_of(w));
  if (w.kind == Kind::Sweep) {
    run_sweeps(run, seconds, fixed);
  } else {
    const std::string graph = args.get("graph");
    run.samples["graph.bytes"].push_back(
        static_cast<double>(std::filesystem::file_size(graph)));
    run_instances(run, graph, seconds, fixed,
                  std::filesystem::path(out).parent_path());
  }
  const Metrics e2e = end_to_end(run);
  print_metrics("end-to-end:", e2e);
  if (!run.tracer.on()) {
    write_result(out, run, e2e, {}, nullptr);
  } else {
    const Reconciliation rec = reconcile(run);
    const Metrics layers = per_layer(run, rec);
    print_metrics("per-layer:", layers);
    std::printf("layer self time per instance (median of %zu, wall %.4f s):\n",
                rec.accounted.size(), rec.instance_s);
    for (const auto& [name, secs] : rec.layer_self_s)
      std::printf("  %-22s %10.4f s %6.1f%%\n", name.c_str(), secs,
                  100.0 * secs / rec.instance_s);
    for (const std::string& warning : rec.warnings)
      std::printf("warning: %s\n", warning.c_str());
    write_result(out, run, e2e, layers, &rec);
    if (const std::string& trace = args.get("trace-out"); !trace.empty())
      write_trace(trace, run);
  }
  std::printf("verified %zu result(s), %zu failed, checksum %s\n",
              run.attempted, run.failed, hex(run.checksum).c_str());
  return run.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc > 1 ? argv[1] : "";
  support::ArgParser args(
      "beepmis end-to-end benchmark (prepare | run)");
  args.add_option("workload", "", "workload name");
  args.add_option("seed", "1", "workload seed; every input derives from it");
  args.add_option("seconds", "10", "timed wall to measure, after the warm-up");
  args.add_option("trace", "0",
                  "1 = record spans and derive per-layer metrics");
  args.add_option("instances", "0",
                  "run exactly this many instances, warm-up included (0 = "
                  "until --seconds)");
  args.add_option("graph", "", "packed input graph (run)");
  args.add_option("out", "",
                  "output: graph file (prepare) or result JSON (run)");
  args.add_option("trace-out", "", "span dump of a traced run");
  std::string error;
  if ((command != "prepare" && command != "run") ||
      !args.parse(argc - 1, argv + 1, &error)) {
    std::fprintf(stderr, "%s\nusage: %s prepare|run [options]\n", error.c_str(),
                 argv[0]);
    return 2;
  }
  try {
    return command == "prepare" ? prepare(args) : run_command(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "beepmis_e2e: %s\n", e.what());
    return 2;
  }
}
