#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/beep/types.hpp"
#include "src/core/engine.hpp"
#include "src/core/lmax.hpp"
#include "src/graph/graph.hpp"
#include "src/support/huge_pages.hpp"
#include "src/support/rng.hpp"

namespace beepmis::core {

/// The coin source the kernels hand to Policy::decide_coin: coin(k) is a
/// Bernoulli(2^-k) trial on the first counter draw of the (seed, node, round)
/// coordinate, with bernoulli_pow2's draw-free k == 0 / k >= 64 edges. Both
/// beeping policies draw at most one coin per vertex per round, so the first
/// draw covers every call; the per-round sponge prefix is folded once by the
/// caller (support::counter_round_state) and each vertex costs two SplitMix64
/// avalanches, branch-free.
struct CounterCoin {
  std::uint64_t round_state;
  std::uint64_t node;
  bool operator()(unsigned k) const noexcept {
    if (k == 0) return true;
    if (k >= 64) return false;
    return (support::counter_first_draw_at(round_state, node) >> (64 - k)) ==
           0;
  }
};

/// Tallies over the pre-round active set, filled by RoundKernel::step_sparse.
/// The engine combines them with the settled censuses (members/dominated
/// counts are constants of a fault-free round) to assemble the RoundEvent.
/// active_beeps is always filled (it also feeds the tracer's beep counter);
/// the heard/prominent fields are only guaranteed when step_sparse ran
/// observing.
struct SparseCensus {
  std::uint32_t active_beeps[2] = {0, 0};
  std::uint32_t active_heard[2] = {0, 0};
  std::uint32_t active_heard_any = 0;
  /// Post-update |PM_t| contribution of the (pre-prune) active set.
  std::uint32_t prominent_active = 0;
  /// Two-channel only: settled-dominated vertices that heard channel 1 from
  /// an active beeper (their member neighbor covers the dominant channel).
  std::uint32_t dom_heard_extra = 0;
};

/// Settlement predicate, read from the levels alone: v is a settled MIS
/// member iff it sits at the member level and every neighbor sits at its
/// cap. The kernels cache it; FastEngine::mis_members recomputes it so the
/// verification never trusts the cache.
template <typename Policy>
bool settles_as_member(const graph::Graph& g, const LmaxVector& lmax,
                       const std::vector<std::int32_t>& levels,
                       graph::VertexId v) {
  if (levels[v] != Policy::member_level(lmax[v])) return false;
  for (graph::VertexId u : g.neighbors(v))
    if (levels[u] != lmax[u]) return false;
  return true;
}

/// Non-owning view of the FastEngine state a kernel reads and writes: the
/// graph, the caps, the levels and the send scratch. Settlement is not in
/// here — the kernel owns it (see RoundKernel).
template <typename Policy>
struct KernelContext {
  const graph::Graph* graph = nullptr;
  const LmaxVector* lmax = nullptr;
  std::vector<std::int32_t>* levels = nullptr;
  std::vector<beep::ChannelMask>* send = nullptr;
  std::uint64_t seed = 0;  ///< master seed keying the counter draws
  bool half = false;       ///< Duplex::Half: a beeper hears nothing
  /// Worker threads for the sharded kernel's private TaskPool (0 = one per
  /// hardware thread). At 1 the kernel runs one shard and calls each phase
  /// inline, never entering the pool. Ignored by the scalar kernel.
  std::size_t shard_threads = 1;
  /// Collect per-phase ShardTelemetry every round, tracing session or not
  /// (the sharded kernel always collects while the tracer is live). Ignored
  /// by the scalar kernel.
  bool telemetry = false;
};

/// One fault-free, noise-free round of FastEngine<Policy>: beep decisions
/// over the active set (counter draws keyed by (seed, vertex, round)),
/// feedback, level updates, and settlement/pruning. The two
/// implementations — Scalar (the oracle) and Sharded — are proven
/// stream-identical: same levels, same censuses, round for round, across
/// corruption and half-duplex, at every shard count (tests/test_kernels.cpp).
/// Receiver noise never reaches a kernel: make_engine runs noisy configs on
/// the reference engine.
///
/// The kernel is the only owner of settlement: the settled bytes (0 active,
/// 1 member, 2 dominated), the active set and the member/active counts, plus
/// whatever private caches its round needs. Between rounds they change in
/// one of two ways, each of which leaves them exact:
///   rebuild()      everything from the levels, O(n + m) — after set_level,
///                  i.e. once per initial configuration;
///   patch(v, old)  one level write, repaired in v's 2-hop neighborhood — a
///                  corruption costs O(touched).
template <typename Policy>
class RoundKernel {
 public:
  explicit RoundKernel(const KernelContext<Policy>& ctx) : ctx_(ctx) {
    // Rounds read settlement at scattered neighbours.
    support::reserve_huge(settled_, ctx.levels->size());
    settled_.assign(ctx.levels->size(), 0);
  }
  virtual ~RoundKernel() = default;

  virtual const char* name() const noexcept = 0;

  /// Executes round `round` (the engine's pre-increment round index, which
  /// keys the counter draws). `observing` requests exact heard masks and the
  /// census fields; without it a kernel may resolve only the bits the level
  /// update needs. Settlement must be exact on entry (rebuild or patch).
  virtual void step_sparse(std::uint64_t round, bool observing,
                           SparseCensus& census) = 0;

  /// Recomputes settlement, the active set and every private cache from the
  /// levels alone.
  virtual void rebuild() = 0;

  /// Repairs settlement and the private caches after levels[v] changed from
  /// `old_level` to its current value, with everything exact beforehand. A
  /// level write moves membership only inside N[v] and domination only
  /// inside v and the neighbors of members that flipped, so no full rescan
  /// is needed.
  virtual void patch(graph::VertexId v, std::int32_t old_level) = 0;

  /// Vertex shards a round runs on (1 = serial).
  virtual std::size_t shard_count() const noexcept { return 1; }

  std::size_t active_count() const noexcept { return active_count_; }
  /// Settled members (== |I_t| after a round).
  std::size_t mis_count() const noexcept { return mis_count_; }

  /// Snapshots cumulative phase telemetry (sharded kernel only): false on
  /// the scalar kernel and before any instrumented round has run.
  virtual bool shard_telemetry(ShardTelemetry* out) const {
    (void)out;
    return false;
  }

 protected:
  bool member_settled(graph::VertexId v) const {
    return settles_as_member<Policy>(*ctx_.graph, *ctx_.lmax, *ctx_.levels,
                                     v);
  }

  KernelContext<Policy> ctx_;
  std::vector<std::uint8_t> settled_;  ///< 0 active, 1 member, 2 dominated
  std::size_t active_count_ = 0;
  std::size_t mis_count_ = 0;
};

/// Builds the requested kernel over `ctx`. KernelKind::Auto must be resolved
/// by the caller (resolve_kernel) first.
template <typename Policy>
std::unique_ptr<RoundKernel<Policy>> make_round_kernel(
    KernelKind kind, const KernelContext<Policy>& ctx);

}  // namespace beepmis::core
