#pragma once

#include <cstdint>
#include <vector>

#include "src/beep/algorithm.hpp"
#include "src/core/lmax.hpp"
#include "src/graph/graph.hpp"

namespace beepmis::core {

/// Algorithm 2 of the paper: the two-beeping-channel variant (Corollary 2.3).
///
/// Levels live in [0, ℓmax(v)]; ℓ = 0 means "in the MIS", ℓ = ℓmax means
/// "out". Channel 1 carries the probabilistic competition beeps, channel 2 is
/// the dedicated "I am in the MIS" broadcast — MIS members beep on it every
/// round, which lets neighbors lock to ℓmax immediately and lets everyone
/// detect an MIS member's disappearance (silence on channel 2).
///
/// Per round for node v:
///     beep1 with probability 2^{-ℓ} if 0 < ℓ < ℓmax;  beep2 iff ℓ = 0
///     if  heard beep2                  → ℓ ← ℓmax
///     elif heard beep1                 → ℓ ← min(ℓ+1, ℓmax)
///     elif sent beep1 (heard nothing)  → ℓ ← 0     (joins the MIS)
///     elif did not send beep2          → ℓ ← max(ℓ-1, 1)
///     else (sent beep2, heard nothing) → ℓ stays 0
class SelfStabMisTwoChannel : public beep::BeepingAlgorithm {
 public:
  SelfStabMisTwoChannel(const graph::Graph& g, LmaxVector lmax,
                        Knowledge knowledge = Knowledge::OneHopMaxDegree);

  // --- BeepingAlgorithm ------------------------------------------------
  std::string name() const override;
  unsigned channels() const override { return 2; }
  std::size_t node_count() const override { return levels_.size(); }
  void decide_beeps(beep::Round round, std::span<support::Rng> rngs,
                    std::span<beep::ChannelMask> send) override;
  void receive_feedback(beep::Round round,
                        std::span<const beep::ChannelMask> sent,
                        std::span<const beep::ChannelMask> heard) override;
  void corrupt_node(graph::VertexId v, support::Rng& rng) override;
  void fill_round_event(obs::RoundEvent& event,
                        bool with_analysis) const override;

  // --- State access ------------------------------------------------------
  std::int32_t level(graph::VertexId v) const { return levels_[v]; }
  std::int32_t lmax(graph::VertexId v) const { return lmax_[v]; }
  /// Every ℓ(v) and every ℓmax(v), indexed by vertex.
  const std::vector<std::int32_t>& levels() const noexcept { return levels_; }
  const LmaxVector& lmax_vector() const noexcept { return lmax_; }
  Knowledge knowledge() const noexcept { return knowledge_; }

  /// Sets ℓ(v); aborts if outside [0, ℓmax(v)].
  void set_level(graph::VertexId v, std::int32_t level);

  /// Probability of a channel-1 beep in the current configuration.
  double beep_probability(graph::VertexId v) const;

  /// I_t: v with ℓ(v) = 0 whose neighbors all sit at their cap.
  std::vector<bool> mis_members() const;
  std::vector<bool> stable_vertices() const;
  bool is_stabilized() const;

  const graph::Graph& graph() const noexcept { return *graph_; }

 private:
  const graph::Graph* graph_;
  LmaxVector lmax_;
  std::vector<std::int32_t> levels_;  // the RAM
  Knowledge knowledge_;
};

}  // namespace beepmis::core
