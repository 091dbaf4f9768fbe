#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/beep/types.hpp"
#include "src/core/engine.hpp"
#include "src/core/lmax.hpp"
#include "src/graph/graph.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/sink.hpp"
#include "src/support/rng.hpp"

namespace beepmis::core {

/// Variant policy consumed by FastEngine<Policy>. A policy is a stateless
/// bundle of the per-algorithm pieces — channel count, certain beeps, level
/// update, membership encoding, corruption range — while the engine owns
/// everything the algorithms share: levels, counter-keyed randomness, the
/// round kernel (which owns settlement and the active set), duplex
/// handling, and event emission. Adding a future variant (e.g. the few-states algorithms
/// of Giakkoupis–Ziccardi) means writing one such policy, not a new engine.
///
/// Contract (all static; see docs/architecture.md):
///   kChannels      number of beep channels (1 or 2)
///   kMemberBeep    mask a prominent vertex (a settled MIS member among
///                  them) beeps with certainty every round
///   kHasLemma31    whether the Lemma 3.1 analysis census applies
///   kTag           short id for metric keys and engine names
///   min_level / member_level / is_prominent   level-encoding facts
///   update_packed(l, lmax, sent, heard)  the level transition, branch-free
///   corrupt_level(lmax, rng)  uniform in-range RAM value (fault model)
/// The beep decision itself is the kernel's (decide_packed in
/// round_kernel.cpp): certain at prominent levels, a Bernoulli(2^-ℓ) coin on
/// channel 1 below the cap.
struct Alg1Policy {
  static constexpr unsigned kChannels = 1;
  static constexpr beep::ChannelMask kMemberBeep = beep::kChannel1;
  static constexpr bool kHasLemma31 = true;
  static constexpr const char* kTag = "alg1";

  static constexpr std::int32_t min_level(std::int32_t lmax) noexcept {
    return -lmax;
  }
  static constexpr std::int32_t member_level(std::int32_t lmax) noexcept {
    return -lmax;
  }
  static constexpr bool is_prominent(std::int32_t l) noexcept { return l <= 0; }

  /// SelfStabMis's level transition as a select chain — no data-dependent
  /// branches (chaos-phase heard/sent bits are coin flips, so the textbook
  /// if-cascade mispredicts ~every vertex): heard → min(ℓ+1, ℓmax), else
  /// beeped → -ℓmax, else max(ℓ-1, 1).
  static std::int32_t update_packed(std::int32_t l, std::int32_t lmax,
                                    beep::ChannelMask sent,
                                    beep::ChannelMask heard) noexcept {
    const std::int32_t up = std::min(l + 1, lmax);
    const std::int32_t down = std::max(l - 1, 1);
    const std::int32_t miss = (sent & beep::kChannel1) ? -lmax : down;
    return (heard & beep::kChannel1) ? up : miss;
  }

  static std::int32_t corrupt_level(std::int32_t lmax, support::Rng& rng) {
    const auto span = static_cast<std::uint64_t>(2 * lmax + 1);
    return static_cast<std::int32_t>(rng.below(span)) - lmax;
  }
};

/// Algorithm 2 (two channels): membership is ℓ = 0 and announced on channel
/// 2 with certainty; channel 1 carries the competition coin for 0 < ℓ < ℓmax.
struct Alg2Policy {
  static constexpr unsigned kChannels = 2;
  static constexpr beep::ChannelMask kMemberBeep = beep::kChannel2;
  static constexpr bool kHasLemma31 = false;
  static constexpr const char* kTag = "alg2";

  static constexpr std::int32_t min_level(std::int32_t /*lmax*/) noexcept {
    return 0;
  }
  static constexpr std::int32_t member_level(std::int32_t /*lmax*/) noexcept {
    return 0;
  }
  static constexpr bool is_prominent(std::int32_t l) noexcept { return l == 0; }

  /// SelfStabMisTwoChannel's level transition as a select chain (last
  /// assignment = highest priority; see Alg1Policy::update_packed): heard
  /// channel 2 → ℓmax, else heard channel 1 → min(ℓ+1, ℓmax), else beeped
  /// channel 1 → 0, else a silent non-member → max(ℓ-1, 1), else a member
  /// stays at 0.
  static std::int32_t update_packed(std::int32_t l, std::int32_t lmax,
                                    beep::ChannelMask sent,
                                    beep::ChannelMask heard) noexcept {
    const std::int32_t up = std::min(l + 1, lmax);
    const std::int32_t down = std::max(l - 1, 1);
    std::int32_t r = (sent & beep::kChannel2) ? l : down;
    r = (sent & beep::kChannel1) ? 0 : r;
    r = (heard & beep::kChannel1) ? up : r;
    r = (heard & beep::kChannel2) ? lmax : r;
    return r;
  }

  static std::int32_t corrupt_level(std::int32_t lmax, support::Rng& rng) {
    return static_cast<std::int32_t>(
        rng.below(static_cast<std::uint64_t>(lmax) + 1));
  }
};

/// Optimized executor exploiting the key structural fact of the stable
/// states: a *settled* vertex — an MIS member with all neighbors capped, or
/// a capped vertex dominated by such a member — never changes again and
/// never consumes randomness (its beep probability is 0 or 1). The round
/// kernel keeps the settlement cache and the active set and processes only
/// unsettled vertices and their audible members, so late rounds (when most
/// of the graph has locked in) cost O(active) instead of O(n + m).
///
/// Guaranteed equivalent to running the variant's reference algorithm under
/// beep::Simulation (RngMode::Counter) with the same seed: every coin is a
/// counter draw keyed by (seed, vertex, round) — a pure function of the
/// coordinate, independent of visit order — and coins are drawn in exactly
/// the same cases, so levels agree round-for-round (tested exhaustively in
/// test_fast_engine.cpp). The sparse round itself is executed by
/// core::RoundKernel (round_kernel.hpp) over word-aligned vertex shards.
/// The kernel is the only owner of settlement (see RoundKernel). The engine
/// asks it for a full O(n + m) rebuild only after set_level, i.e. once per
/// initial configuration; everything else keeps it exact incrementally.
/// The full model surface is covered:
///  - corrupt() mid-run has the kernel patch settlement in the corrupted
///    vertex's 2-hop neighborhood, so a k-vertex fault wave costs work local
///    to those k vertices, not a rebuild;
///  - Duplex::Half zeroes a beeping vertex's feedback, which preserves the
///    settled-state structure, so the sparse path still applies.
/// Receiver noise is outside it: a false negative can decay a capped vertex
/// and a false positive can evict a member, so nothing is permanently
/// settled, and make_engine runs noisy configs on the reference engine.
template <typename Policy>
class RoundKernel;
struct SparseCensus;

template <typename Policy>
class FastEngine final : public Engine {
 public:
  /// `shard_threads` sizes the round kernel's private worker pool: 1 =
  /// serial, 0 = one per hardware thread.
  /// `phase_telemetry` makes the kernel collect ShardTelemetry every round
  /// (it always collects while a tracing session is live).
  FastEngine(const graph::Graph& g, LmaxVector lmax, std::uint64_t seed,
             beep::Duplex duplex = beep::Duplex::Full,
             std::size_t shard_threads = 1, bool phase_telemetry = false);
  ~FastEngine() override;  // out-of-line: RoundKernel is incomplete here

  std::string name() const override {
    return std::string("fast-") + Policy::kTag;
  }
  std::string kernel_name() const override { return "sharded"; }
  std::size_t shard_count() const noexcept override;
  const graph::Graph& graph() const noexcept override { return *graph_; }
  std::uint64_t round() const noexcept override { return round_; }
  std::int32_t level(graph::VertexId v) const override { return levels_[v]; }
  std::int32_t lmax(graph::VertexId v) const override { return lmax_[v]; }
  std::int32_t member_level(graph::VertexId v) const override {
    return Policy::member_level(lmax_[v]);
  }

  /// Sets ℓ(v) (initial-configuration setup). O(1); the kernel's settlement
  /// is rebuilt lazily before the next step()/is_stabilized().
  void set_level(graph::VertexId v, std::int32_t level) override;

  void step() override;

  /// Runs until stabilization or `max_rounds` additional rounds; returns
  /// the number of rounds executed.
  std::uint64_t run_to_stabilization(std::uint64_t max_rounds) override;

  bool is_stabilized() const override;
  std::vector<bool> mis_members() const override;
  bool pack_levels(std::span<std::uint64_t> capped,
                   std::span<std::uint64_t> candidate) const override;

  /// Mid-run transient fault (draw-identical to the reference algorithm's
  /// corrupt_node). The kernel patches settlement in the corrupted vertex's
  /// 2-hop neighborhood so the next step stays O(active).
  void corrupt(graph::VertexId v, support::Rng& rng) override;

  /// Number of currently unsettled vertices (for instrumentation).
  std::size_t active_count() const;

  /// Attaches a non-owning per-round observer (same obs::RoundEvent shape
  /// and semantics as beep::Simulation's — proven stream-identical in
  /// test_obs.cpp). Event assembly costs O(active) per round, except the
  /// analysis fields (wants_analysis()) which cost O(n + m). Null detaches.
  void set_observer(obs::RoundObserver* observer) override {
    observer_ = observer;
  }
  /// Routes internal timers into `registry` (may be null to detach); keyed
  /// by variant ("fast_engine.<tag>.sharded.refresh_settlement", one sample
  /// per full settlement recompute — corruption patches are not counted).
  /// Both the cumulative TimerStat and the "...refresh_settlement_ns"
  /// duration digest (p50/p95/p99 of individual refreshes) are resolved
  /// once here.
  void set_metrics(obs::MetricsRegistry* registry) override {
    const std::string prefix =
        std::string("fast_engine.") + Policy::kTag + ".sharded";
    refresh_timer_ =
        registry ? &registry->timer(prefix + ".refresh_settlement") : nullptr;
    refresh_digest_ =
        registry ? &registry->digest(prefix + ".refresh_settlement_ns")
                 : nullptr;
  }

  /// Delegates to the round kernel: true once any instrumented round has
  /// run.
  bool shard_telemetry(ShardTelemetry* out) const override;

 private:
  // Rebuilds the kernel's settlement from the levels if a write left it
  // stale. Const because settlement is a cache over levels_.
  void settle() const;
  std::uint32_t lemma31_census() const;
  void finish_event(obs::RoundEvent& ev) const;

  const graph::Graph* graph_;
  LmaxVector lmax_;
  std::vector<std::int32_t> levels_;
  std::vector<beep::ChannelMask> send_;  // scratch, indexed by vertex
  std::uint64_t round_ = 0;
  std::unique_ptr<RoundKernel<Policy>> kernel_;
  // Levels were written wholesale (set_level, a corruption with nothing
  // settled yet): the kernel's settlement is recomputed lazily before it is
  // next read.
  mutable bool kernel_stale_ = true;
  obs::RoundObserver* observer_ = nullptr;
  obs::TimerStat* refresh_timer_ = nullptr;
  obs::Digest* refresh_digest_ = nullptr;
};

extern template class FastEngine<Alg1Policy>;
extern template class FastEngine<Alg2Policy>;

/// Back-compat names for the pre-unification engines (Algorithm 1 and the
/// two-channel Algorithm 2); the equivalence tests construct these directly.
using FastMisEngine = FastEngine<Alg1Policy>;
using FastMisEngine2 = FastEngine<Alg2Policy>;

}  // namespace beepmis::core
