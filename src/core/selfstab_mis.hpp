#pragma once

#include <cstdint>
#include <vector>

#include "src/beep/algorithm.hpp"
#include "src/core/lmax.hpp"
#include "src/graph/graph.hpp"

namespace beepmis::core {

/// Algorithm 1 of the paper: the self-stabilizing variant of Jeavons, Scott
/// and Xu's beeping MIS algorithm (single channel).
///
/// Per-node RAM is exactly one integer, the level ℓ(v) ∈ [-ℓmax(v), ℓmax(v)].
/// Level determines the beeping probability
///
///     p(v) = 1          if ℓ(v) ≤ 0
///     p(v) = 2^{-ℓ(v)}  if 0 < ℓ(v) < ℓmax(v)
///     p(v) = 0          if ℓ(v) = ℓmax(v)
///
/// and each round updates
///
///     heard a beep                   → ℓ ← min(ℓ+1, ℓmax)
///     beeped and heard nothing       → ℓ ← -ℓmax   (claims an MIS slot)
///     silent and heard nothing       → ℓ ← max(ℓ-1, 1)
///
/// A vertex is an MIS member (set I_t of the paper) iff ℓ(v) = -ℓmax(v) and
/// every neighbor sits at its own cap: such a vertex beeps forever and its
/// neighbors hear it forever, so fault-free executions never leave the state
/// — and any corruption is detected because the configuration stops being
/// self-reinforcing.
///
/// ℓmax(v) is construction-time (ROM). The three theorems correspond to the
/// three LmaxVector policies in lmax.hpp.
class SelfStabMis : public beep::BeepingAlgorithm {
 public:
  SelfStabMis(const graph::Graph& g, LmaxVector lmax,
              Knowledge knowledge = Knowledge::Custom);

  // --- BeepingAlgorithm ------------------------------------------------
  std::string name() const override;
  unsigned channels() const override { return 1; }
  std::size_t node_count() const override { return levels_.size(); }
  void decide_beeps(beep::Round round, std::span<support::Rng> rngs,
                    std::span<beep::ChannelMask> send) override;
  void receive_feedback(beep::Round round,
                        std::span<const beep::ChannelMask> sent,
                        std::span<const beep::ChannelMask> heard) override;
  void corrupt_node(graph::VertexId v, support::Rng& rng) override;
  void fill_round_event(obs::RoundEvent& event,
                        bool with_analysis) const override;

  // --- State access (simulation/verification side) ---------------------
  std::int32_t level(graph::VertexId v) const { return levels_[v]; }
  std::int32_t lmax(graph::VertexId v) const { return lmax_[v]; }
  /// Every ℓ(v) and every ℓmax(v), indexed by vertex.
  const std::vector<std::int32_t>& levels() const noexcept { return levels_; }
  const LmaxVector& lmax_vector() const noexcept { return lmax_; }
  Knowledge knowledge() const noexcept { return knowledge_; }

  /// Sets ℓ(v); aborts if outside [-ℓmax(v), ℓmax(v)]. Used by initial-state
  /// policies and targeted adversaries.
  void set_level(graph::VertexId v, std::int32_t level);

  /// The paper's p_t(v) for the current configuration.
  double beep_probability(graph::VertexId v) const;

  /// ℓ(v) ≤ 0 (Definition 3.3).
  bool is_prominent(graph::VertexId v) const { return levels_[v] <= 0; }

  /// I_t: stable MIS members of the current configuration.
  std::vector<bool> mis_members() const;

  /// S_t = I_t ∪ N(I_t): all stable vertices.
  std::vector<bool> stable_vertices() const;

  /// S_t == V: the self-stabilization target predicate. When true,
  /// mis_members() is a valid MIS by construction (verified in tests).
  bool is_stabilized() const;

  const graph::Graph& graph() const noexcept { return *graph_; }

 private:
  const graph::Graph* graph_;
  LmaxVector lmax_;
  std::vector<std::int32_t> levels_;  // the RAM
  Knowledge knowledge_;
};

}  // namespace beepmis::core
