#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/engine.hpp"
#include "src/core/fast_engine.hpp"
#include "src/graph/generators.hpp"
#include "src/obs/json_parse.hpp"
#include "src/obs/trace.hpp"
#include "src/support/task_pool.hpp"

namespace beepmis {
namespace {

// A private labeled pool constructed while no tracing session is live must
// still be picked up when a session starts later: Tracer::enable refreshes
// the process-wide TaskPool observer, so the pool's spawned workers get
// "<label>-worker-N" tracks and per-claim pool.task spans.
TEST(Telemetry, PrivatePoolObserverRefreshAcrossTracerSessions) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.disable();
  support::TaskPool pool(3, "shard");
  std::vector<int> hit(16, 0);
  auto batch = [&] {
    pool.parallel_for(hit.size(), [&](std::size_t i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      hit[i] += 1;
    });
  };
  batch();  // session off: no observer, nothing recorded

  tracer.clear_context();
  tracer.enable(4096, 0);
  obs::Tracer::set_thread_label("main");
  batch();  // session on: the pre-existing pool is now observed
  tracer.disable();
  for (int h : hit) EXPECT_EQ(h, 2);

  std::ostringstream os;
  tracer.write_json(os);
  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::json_parse(os.str(), &doc, &error)) << error;
  std::size_t task_spans = 0;
  bool saw_shard_worker = false;
  for (const obs::JsonValue& ev : doc.get("traceEvents").array) {
    const std::string name = ev.get("name").as_string("");
    if (name == "thread_name" &&
        ev.get("args").get("name").as_string("").rfind("shard-worker-", 0) ==
            0)
      saw_shard_worker = true;
    if (name == "pool.task") ++task_spans;
  }
  // Only the in-session batch leaves spans: one claim per task.
  EXPECT_EQ(task_spans, hit.size());
  EXPECT_TRUE(saw_shard_worker);
}

std::vector<std::int32_t> levels_of(const core::Engine& e) {
  std::vector<std::int32_t> out(e.graph().vertex_count());
  for (graph::VertexId v = 0; v < out.size(); ++v) out[v] = e.level(v);
  return out;
}

// The ≤2% contract's correctness half: forcing per-round ShardTelemetry
// collection must not perturb a single level, settlement, or MIS member —
// the telemetry layer only reads clocks and shard-owned tallies.
TEST(Telemetry, ShardedResultsIdenticalWithTelemetryOnOrOff) {
  support::Rng grng(77);
  const auto g = graph::make_erdos_renyi_avg_degree(256, 8.0, grng);
  const auto lmax = core::lmax_global_delta(g);
  core::FastMisEngine bare(g, lmax, 99, beep::Duplex::Full,
                           core::KernelKind::Sharded, /*shard_threads=*/4,
                           /*phase_telemetry=*/false);
  core::FastMisEngine instrumented(g, lmax, 99, beep::Duplex::Full,
                                   core::KernelKind::Sharded,
                                   /*shard_threads=*/4,
                                   /*phase_telemetry=*/true);
  support::Rng c1(5), c2(5);
  for (graph::VertexId v = 0; v < g.vertex_count(); ++v) bare.corrupt(v, c1);
  for (graph::VertexId v = 0; v < g.vertex_count(); ++v)
    instrumented.corrupt(v, c2);

  core::ShardTelemetry before;
  ASSERT_FALSE(bare.shard_telemetry(&before))
      << "telemetry off must report no data";

  for (int r = 0; r < 200; ++r) {
    bare.step();
    instrumented.step();
    ASSERT_EQ(levels_of(instrumented), levels_of(bare)) << "round " << r;
    ASSERT_EQ(instrumented.active_count(), bare.active_count());
  }
  EXPECT_EQ(instrumented.mis_members(), bare.mis_members());
  EXPECT_EQ(instrumented.is_stabilized(), bare.is_stabilized());

  core::ShardTelemetry tel;
  ASSERT_TRUE(instrumented.shard_telemetry(&tel));
  EXPECT_EQ(tel.rounds, 200u);
  EXPECT_GT(tel.shards, 0u);
  EXPECT_GT(tel.busy_ms, 0.0);
  EXPECT_GE(tel.max_busy_ms * static_cast<double>(tel.shards), tel.busy_ms);
  EXPECT_GE(tel.imbalance(), 1.0);
  double phase_total = 0.0;
  for (std::size_t p = 0; p < core::kShardPhaseCount; ++p)
    phase_total += tel.phase_ms[p];
  EXPECT_GT(phase_total, 0.0);
}

}  // namespace
}  // namespace beepmis
