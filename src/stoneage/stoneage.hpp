#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/graph/graph.hpp"
#include "src/support/rng.hpp"

namespace beepmis::stoneage {

/// The Stone Age model of Emek & Wattenhofer (PODC 2013), synchronous
/// variant — the other sub-microprocessor network model the paper's related
/// work discusses ([8], [10]). Each node is a randomized machine that
/// *displays* one letter of a constant alphabet Σ per round; feedback is
/// "one-two-many" counting: for each letter σ, a node learns
/// min(#neighbors displaying σ, b) for a constant bound b.
///
/// The beeping model is the special case |Σ| = 2 (silent/beep), b = 1; see
/// beep_embedding.hpp for the formal embedding. b ≥ 2 makes the model
/// strictly stronger (a node can distinguish one beeping neighbor from
/// several), which is the extra power [8] exploits.
using Letter = std::uint8_t;

inline constexpr unsigned kMaxAlphabet = 8;

/// Per-round feedback for one node: saturated counts indexed by letter.
using LetterCounts = std::span<const std::uint8_t>;

class StoneAgeAlgorithm {
 public:
  virtual ~StoneAgeAlgorithm() = default;
  virtual std::string name() const = 0;
  virtual std::size_t node_count() const = 0;
  /// Alphabet size |Σ| (2..kMaxAlphabet). Letter values are in [0, |Σ|).
  virtual unsigned alphabet_size() const = 0;
  /// Counting bound b >= 1 (the "one-two-many" threshold).
  virtual unsigned counting_bound() const = 0;
  /// Phase 1: fill shown[v] with the letter node v displays this round.
  virtual void decide(std::uint64_t round, std::span<support::Rng> rngs,
                      std::span<Letter> shown) = 0;
  /// Phase 2: counts for node v are counts[v*|Σ| + σ] = min(#neighbors
  /// displaying σ, b). shown[v] is v's own display from phase 1.
  virtual void receive(std::uint64_t round, std::span<const Letter> shown,
                       std::span<const std::uint8_t> counts) = 0;
  virtual void corrupt_node(graph::VertexId v, support::Rng& rng) = 0;
};

/// Synchronous engine for the Stone Age model; mirrors beep::Simulation
/// (deterministic per-node streams from the master seed).
class StoneAgeSimulation {
 public:
  StoneAgeSimulation(const graph::Graph& g,
                     std::unique_ptr<StoneAgeAlgorithm> algo,
                     std::uint64_t seed);

  const graph::Graph& graph() const noexcept { return *graph_; }
  StoneAgeAlgorithm& algorithm() noexcept { return *algo_; }
  std::uint64_t round() const noexcept { return round_; }

  void step();
  void run(std::uint64_t rounds);

  /// counts[v*|Σ| + σ] from the last round.
  std::span<const std::uint8_t> last_counts() const noexcept {
    return counts_;
  }

 private:
  const graph::Graph* graph_;
  std::unique_ptr<StoneAgeAlgorithm> algo_;
  std::vector<support::Rng> rngs_;
  std::vector<Letter> shown_;
  std::vector<std::uint8_t> counts_;
  std::uint64_t round_ = 0;
};

}  // namespace beepmis::stoneage
