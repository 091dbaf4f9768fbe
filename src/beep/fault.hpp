#pragma once

#include <cstddef>
#include <vector>

#include "src/beep/network.hpp"
#include "src/graph/graph.hpp"
#include "src/support/rng.hpp"

namespace beepmis::obs {
class RecoveryTracker;  // see obs/recovery.hpp
}

namespace beepmis::beep {

/// Transient-fault injection per the paper's fault model (Sec 1.1): RAM
/// (algorithm state) can be corrupted by external events; code and
/// construction-time constants are ROM. After injection the execution is
/// fault-free and the algorithm must re-stabilize.
/// Every entry point optionally reports the injection to an
/// obs::RecoveryTracker as a fault onset (opening a recovery epoch at the
/// simulation's current round), mirroring the core::corrupt_* engine-path
/// helpers; the RNG draw sequence is identical with or without a tracker.
class FaultInjector {
 public:
  /// Corrupts `count` distinct nodes chosen uniformly at random, overwriting
  /// each chosen node's RAM with arbitrary in-range values. Returns the
  /// corrupted vertex ids.
  static std::vector<graph::VertexId> corrupt_random(
      Simulation& sim, std::size_t count, support::Rng& rng,
      obs::RecoveryTracker* recovery = nullptr);

  /// Floyd's algorithm for a uniform `count`-subset of [0, n) without
  /// building [0, n): one rng.below draw per chosen vertex, O(count)
  /// expected time. Shared by every corrupt_random so that the simulator
  /// and engine paths pick identical subsets from identical streams.
  static std::vector<graph::VertexId> choose_distinct(std::size_t n,
                                                      std::size_t count,
                                                      support::Rng& rng);

  /// Corrupts exactly the given nodes (targeted adversary).
  static void corrupt_nodes(Simulation& sim,
                            std::span<const graph::VertexId> nodes,
                            support::Rng& rng,
                            obs::RecoveryTracker* recovery = nullptr);

  /// Corrupts every node — equivalent to restarting from a fully arbitrary
  /// configuration, the strongest event self-stabilization must survive.
  static void corrupt_all(Simulation& sim, support::Rng& rng,
                          obs::RecoveryTracker* recovery = nullptr);
};

}  // namespace beepmis::beep
