#include "src/core/fast_engine.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "src/core/level_bits.hpp"
#include "src/core/round_kernel.hpp"
#include "src/obs/timing.hpp"
#include "src/support/check.hpp"
#include "src/support/huge_pages.hpp"

namespace beepmis::core {

template <typename Policy>
FastEngine<Policy>::FastEngine(const graph::Graph& g, LmaxVector lmax,
                               std::uint64_t seed, beep::Duplex duplex,
                               std::size_t shard_threads,
                               bool phase_telemetry)
    : graph_(&g), lmax_(std::move(lmax)) {
  BEEPMIS_CHECK(lmax_.size() == g.vertex_count(), "lmax sized for wrong graph");
  for (std::int32_t m : lmax_)
    BEEPMIS_CHECK(m >= 2, "lmax must be at least 2 for every vertex");
  const std::size_t n = g.vertex_count();
  // Rounds touch both arrays at scattered vertices.
  support::reserve_huge(levels_, n);
  levels_.assign(n, 1);
  // Coins are counter draws keyed by (seed, vertex, round) — no per-node
  // generator state.
  support::reserve_huge(send_, n);
  send_.assign(n, 0);
  KernelContext<Policy> ctx;
  ctx.graph = graph_;
  ctx.lmax = &lmax_;
  ctx.levels = &levels_;
  ctx.send = &send_;
  ctx.seed = seed;
  ctx.half = duplex == beep::Duplex::Half;
  ctx.shard_threads = shard_threads;
  ctx.telemetry = phase_telemetry;
  kernel_ = std::make_unique<RoundKernel<Policy>>(ctx);
}

template <typename Policy>
FastEngine<Policy>::~FastEngine() = default;

template <typename Policy>
std::size_t FastEngine<Policy>::shard_count() const noexcept {
  return kernel_->shard_count();
}

template <typename Policy>
bool FastEngine<Policy>::shard_telemetry(ShardTelemetry* out) const {
  return kernel_->shard_telemetry(out);
}

template <typename Policy>
void FastEngine<Policy>::settle() const {
  if (!kernel_stale_) return;
  obs::ScopedTimer timer(refresh_timer_, refresh_digest_,
                         "engine.refresh_settlement");
  kernel_->rebuild();
  kernel_stale_ = false;
}

template <typename Policy>
bool FastEngine<Policy>::is_stabilized() const {
  settle();
  return kernel_->active_count() == 0;
}

template <typename Policy>
std::size_t FastEngine<Policy>::active_count() const {
  settle();
  return kernel_->active_count();
}

template <typename Policy>
void FastEngine<Policy>::set_level(graph::VertexId v, std::int32_t level) {
  BEEPMIS_CHECK(v < levels_.size(), "vertex out of range");
  BEEPMIS_CHECK(level >= Policy::min_level(lmax_[v]) && level <= lmax_[v],
                "level outside the variant's admissible range");
  levels_[v] = level;
  kernel_stale_ = true;
}

template <typename Policy>
void FastEngine<Policy>::corrupt(graph::VertexId v, support::Rng& rng) {
  BEEPMIS_CHECK(v < levels_.size(), "vertex out of range");
  const std::int32_t old = levels_[v];
  levels_[v] = Policy::corrupt_level(lmax_[v], rng);
  // With a refresh already pending the settlement is stale regardless; and
  // with nothing settled yet (e.g. the n corruption draws of a
  // uniform-random init) one lazy refresh beats n local patches. Otherwise
  // the kernel repairs its settlement in the corrupted vertex's 2-hop
  // neighborhood.
  if (kernel_stale_ || kernel_->active_count() == levels_.size()) {
    kernel_stale_ = true;
    return;
  }
  kernel_->patch(v, old);
}

template <typename Policy>
void FastEngine<Policy>::step() {
  obs::TraceScope span("engine.round", round_ + 1);
  settle();
  // The kernel executes the round — decisions, exchange, updates,
  // settlement — and reports its tallies; the engine contributes the
  // settled censuses (constants of a fault-free round: settled members beep
  // their channel with certainty, settled dominated vertices hear their
  // member every round, settled members themselves hear nothing because all
  // their neighbors sit silent at their caps — and under half duplex they
  // are transmitting anyway) and assembles the event.
  const bool observing = observer_ != nullptr;
  const std::size_t n = levels_.size();
  const auto members_before = static_cast<std::uint32_t>(kernel_->mis_count());
  const auto dominated_before = static_cast<std::uint32_t>(
      n - kernel_->active_count() - kernel_->mis_count());

  SparseCensus census;
  kernel_->step_sparse(round_, observing, census);
  ++round_;

  // Counter tracks, sampled every K rounds of a live tracing session. The
  // beep census reuses the kernel's decision tallies (settled members beep
  // their channel every round); settlement counts are post-round state.
  if (const std::uint64_t k = obs::Tracer::counter_interval();
      k != 0 && round_ % k == 0) {
    obs::Tracer::counter("engine.beeps",
                         static_cast<double>(members_before +
                                             census.active_beeps[0] +
                                             census.active_beeps[1]));
    obs::Tracer::counter("engine.active",
                         static_cast<double>(kernel_->active_count()));
    obs::Tracer::counter("engine.stable",
                         static_cast<double>(n - kernel_->active_count()));
    obs::Tracer::counter("engine.mis",
                         static_cast<double>(kernel_->mis_count()));
  }

  if (observing) {
    obs::RoundEvent ev;
    ev.round = round_;
    if constexpr (Policy::kChannels == 1) {
      ev.beeps_ch1 = members_before + census.active_beeps[0];
      ev.heard_ch1 = dominated_before + census.active_heard[0];
      // Single channel: hearing anything == hearing channel 1.
      ev.heard_any = ev.heard_ch1;
    } else {
      ev.beeps_ch1 = census.active_beeps[0];
      ev.beeps_ch2 = members_before + census.active_beeps[1];
      ev.heard_ch1 = census.active_heard[0] + census.dom_heard_extra;
      ev.heard_ch2 = dominated_before + census.active_heard[1];
      ev.heard_any = dominated_before + census.active_heard_any;
    }
    ev.prominent = members_before + census.prominent_active;
    finish_event(ev);
  }
}

template <typename Policy>
std::uint32_t FastEngine<Policy>::lemma31_census() const {
  // Same Lemma 3.1 census as SelfStabMis::fill_round_event: a violation is
  // a vertex with ℓ ≤ 0 that has a neighbor with ℓ ≤ 0. An Algorithm 1
  // analysis quantity; defined as 0 for other policies (see sink.hpp).
  if constexpr (!Policy::kHasLemma31) return 0;
  const std::size_t n = levels_.size();
  std::uint32_t violations = 0;
  for (graph::VertexId v = 0; v < n; ++v) {
    if (levels_[v] > 0) continue;
    for (graph::VertexId u : graph_->neighbors(v)) {
      if (levels_[u] <= 0) {
        ++violations;
        break;
      }
    }
  }
  return violations;
}

template <typename Policy>
void FastEngine<Policy>::finish_event(obs::RoundEvent& ev) const {
  const std::size_t n = levels_.size();
  ev.mis = static_cast<std::uint32_t>(kernel_->mis_count());
  ev.stable = static_cast<std::uint32_t>(n - kernel_->active_count());
  ev.active = static_cast<std::uint32_t>(kernel_->active_count());
  if (observer_->wants_analysis()) {
    ev.lemma31_violations = lemma31_census();
    ev.has_analysis = true;
  }
  observer_->on_round(ev);
}

template <typename Policy>
std::uint64_t FastEngine<Policy>::run_to_stabilization(
    std::uint64_t max_rounds) {
  const std::uint64_t start = round_;
  while (!is_stabilized() && round_ - start < max_rounds) step();
  return round_ - start;
}

template <typename Policy>
std::vector<bool> FastEngine<Policy>::mis_members() const {
  // A member sits at the member level with every neighbor at its cap — read
  // from the levels alone, never from the kernel's settlement, which this
  // recomputation cross-checks.
  // The level bits are packed first, so a member row tests n bits of
  // cache-resident words instead of two n-entry arrays.
  const std::size_t n = levels_.size();
  const std::size_t words = (n + 63) / 64;
  std::vector<std::uint64_t> capped(words), candidate(words);
  pack_levels(capped, candidate);
  std::vector<bool> in(n, false);
  for (std::size_t w = 0; w < words; ++w) {
    for (std::uint64_t c = candidate[w]; c != 0; c &= c - 1) {
      const auto v = static_cast<graph::VertexId>(w * 64 + std::countr_zero(c));
      std::uint64_t all = 1;
      for (graph::VertexId u : graph_->neighbors(v))
        all &= capped[u >> 6] >> (u & 63);
      in[v] = (all & 1) != 0;
    }
  }
  return in;
}

template <typename Policy>
bool FastEngine<Policy>::pack_levels(
    std::span<std::uint64_t> capped,
    std::span<std::uint64_t> candidate) const {
  return pack_level_bits<Policy>(levels_, lmax_, capped, candidate);
}

template class FastEngine<Alg1Policy>;
template class FastEngine<Alg2Policy>;

}  // namespace beepmis::core
