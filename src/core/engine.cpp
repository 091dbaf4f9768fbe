#include "src/core/engine.hpp"

#include <utility>

#include "src/beep/fault.hpp"
#include "src/core/fast_engine.hpp"
#include "src/core/level_bits.hpp"
#include "src/core/lmax.hpp"
#include "src/core/selfstab_mis.hpp"
#include "src/core/selfstab_mis2.hpp"
#include "src/obs/recovery.hpp"
#include "src/support/check.hpp"

namespace beepmis::core {

std::string variant_name(Variant v) {
  switch (v) {
    case Variant::GlobalDelta: return "V1-global-delta";
    case Variant::OwnDegree: return "V2-own-degree";
    case Variant::TwoChannel: return "V3-two-channel";
  }
  return "?";
}

std::string engine_kind_name(EngineKind k) {
  switch (k) {
    case EngineKind::Auto: return "auto";
    case EngineKind::Fast: return "fast";
    case EngineKind::Reference: return "reference";
  }
  return "?";
}

bool parse_engine_kind(const std::string& name, EngineKind* out) {
  for (EngineKind k :
       {EngineKind::Auto, EngineKind::Fast, EngineKind::Reference}) {
    if (engine_kind_name(k) == name) {
      *out = k;
      return true;
    }
  }
  return false;
}

namespace {

LmaxVector make_lmax(const graph::Graph& g, Variant variant, std::int32_t c1) {
  switch (variant) {
    case Variant::GlobalDelta:
      return lmax_global_delta(g, c1 ? c1 : kC1GlobalDelta);
    case Variant::OwnDegree:
      return lmax_own_degree(g, c1 ? c1 : kC1OwnDegree);
    case Variant::TwoChannel:
      return lmax_one_hop(g, c1 ? c1 : kC1TwoChannel);
  }
  BEEPMIS_CHECK(false, "unknown variant");
  return {};
}

/// Engine adapter over the textbook path: the variant's reference algorithm
/// driven by beep::Simulation. It anchors the equivalence tests (the fast
/// engine is proven stream-identical against it) and runs every config with
/// receiver noise, which the fast engine's round kernel does not model.
class ReferenceEngine final : public Engine {
 public:
  ReferenceEngine(const graph::Graph& g, const EngineConfig& config) {
    std::unique_ptr<beep::BeepingAlgorithm> algo;
    switch (config.variant) {
      case Variant::GlobalDelta: {
        auto a = std::make_unique<SelfStabMis>(
            g, make_lmax(g, config.variant, config.c1),
            Knowledge::GlobalMaxDegree);
        a1_ = a.get();
        algo = std::move(a);
        break;
      }
      case Variant::OwnDegree: {
        auto a = std::make_unique<SelfStabMis>(
            g, make_lmax(g, config.variant, config.c1), Knowledge::OwnDegree);
        a1_ = a.get();
        algo = std::move(a);
        break;
      }
      case Variant::TwoChannel: {
        auto a = std::make_unique<SelfStabMisTwoChannel>(
            g, make_lmax(g, config.variant, config.c1),
            Knowledge::OneHopMaxDegree);
        a2_ = a.get();
        algo = std::move(a);
        break;
      }
    }
    // Counter mode: per-round randomness is keyed by (seed, node, round),
    // matching the fast engine's counter draws coin-for-coin — this is what
    // keeps the engine-equality gates byte-identical across executors.
    sim_ = std::make_unique<beep::Simulation>(g, std::move(algo), config.seed,
                                              config.noise, config.duplex,
                                              beep::RngMode::Counter);
  }

  std::string name() const override {
    return a1_ != nullptr ? "reference-alg1" : "reference-alg2";
  }
  const graph::Graph& graph() const noexcept override { return sim_->graph(); }
  std::uint64_t round() const noexcept override { return sim_->round(); }
  std::int32_t level(graph::VertexId v) const override {
    return a1_ != nullptr ? a1_->level(v) : a2_->level(v);
  }
  std::int32_t lmax(graph::VertexId v) const override {
    return a1_ != nullptr ? a1_->lmax(v) : a2_->lmax(v);
  }
  std::int32_t member_level(graph::VertexId v) const override {
    return a1_ != nullptr ? -a1_->lmax(v) : 0;
  }
  void set_level(graph::VertexId v, std::int32_t level) override {
    if (a1_ != nullptr)
      a1_->set_level(v, level);
    else
      a2_->set_level(v, level);
  }

  void step() override {
    obs::TraceScope span("engine.round", sim_->round() + 1);
    sim_->step();
  }
  std::uint64_t run_to_stabilization(std::uint64_t max_rounds) override {
    const auto start = sim_->round();
    while (!is_stabilized() && sim_->round() - start < max_rounds) step();
    return sim_->round() - start;
  }
  bool is_stabilized() const override {
    return a1_ != nullptr ? a1_->is_stabilized() : a2_->is_stabilized();
  }
  std::vector<bool> mis_members() const override {
    return a1_ != nullptr ? a1_->mis_members() : a2_->mis_members();
  }
  bool pack_levels(std::span<std::uint64_t> capped,
                   std::span<std::uint64_t> candidate) const override {
    if (a1_ != nullptr)
      return pack_level_bits<Alg1Policy>(a1_->levels(), a1_->lmax_vector(),
                                         capped, candidate);
    return pack_level_bits<Alg2Policy>(a2_->levels(), a2_->lmax_vector(),
                                       capped, candidate);
  }

  void corrupt(graph::VertexId v, support::Rng& rng) override {
    sim_->algorithm().corrupt_node(v, rng);
  }

  void set_observer(obs::RoundObserver* observer) override {
    if (observer != nullptr) sim_->add_observer(observer);
  }
  void set_metrics(obs::MetricsRegistry* /*registry*/) override {
    // The reference path has no internal timers; runner/sweep-level timing
    // still applies uniformly through the Engine interface.
  }

 private:
  std::unique_ptr<beep::Simulation> sim_;
  SelfStabMis* a1_ = nullptr;
  SelfStabMisTwoChannel* a2_ = nullptr;
};

}  // namespace

std::unique_ptr<Engine> make_engine(const graph::Graph& g,
                                    const EngineConfig& config) {
  // Noise leaves nothing permanently settled, so the fast engine's round
  // kernel does not model it; Auto sends noisy configs to the reference
  // engine. Any rate other than 0 counts, so a negative or NaN one reaches
  // beep::Simulation's range check instead of being dropped.
  const bool noisy = config.noise.false_positive != 0.0 ||
                     config.noise.false_negative != 0.0;
  BEEPMIS_CHECK(!(noisy && config.kind == EngineKind::Fast),
                "the fast engine runs noise-free configs only");
  if (config.kind == EngineKind::Reference || noisy)
    return std::make_unique<ReferenceEngine>(g, config);
  if (config.variant == Variant::TwoChannel)
    return std::make_unique<FastEngine<Alg2Policy>>(
        g, make_lmax(g, config.variant, config.c1), config.seed,
        config.duplex, config.shard_threads, config.phase_telemetry);
  return std::make_unique<FastEngine<Alg1Policy>>(
      g, make_lmax(g, config.variant, config.c1), config.seed, config.duplex,
      config.shard_threads, config.phase_telemetry);
}

std::vector<graph::VertexId> corrupt_random(Engine& engine, std::size_t count,
                                            support::Rng& rng,
                                            obs::RecoveryTracker* recovery) {
  const std::size_t n = engine.graph().vertex_count();
  BEEPMIS_CHECK(count <= n, "cannot corrupt more nodes than exist");
  const auto chosen = beep::FaultInjector::choose_distinct(n, count, rng);
  corrupt_nodes(engine, chosen, rng);
  if (recovery != nullptr)
    recovery->on_fault(engine.round(), "corrupt-random", chosen.size());
  return chosen;
}

void corrupt_nodes(Engine& engine, std::span<const graph::VertexId> nodes,
                   support::Rng& rng, obs::RecoveryTracker* recovery) {
  for (graph::VertexId v : nodes) engine.corrupt(v, rng);
  if (recovery != nullptr)
    recovery->on_fault(engine.round(), "corrupt-nodes", nodes.size());
}

void corrupt_all(Engine& engine, support::Rng& rng,
                 obs::RecoveryTracker* recovery) {
  const std::size_t n = engine.graph().vertex_count();
  for (graph::VertexId v = 0; v < n; ++v) engine.corrupt(v, rng);
  if (recovery != nullptr)
    recovery->on_fault(engine.round(), "corrupt-all", n);
}

}  // namespace beepmis::core
