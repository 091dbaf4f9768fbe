#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/beep/types.hpp"
#include "src/core/engine.hpp"
#include "src/core/lmax.hpp"
#include "src/graph/graph.hpp"
#include "src/support/task_pool.hpp"

namespace beepmis::core {

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
  /// Worker threads for the kernel's private TaskPool (0 = one per hardware
  /// thread). At 1 the kernel runs one shard and calls each phase inline,
  /// never entering the pool.
  std::size_t shard_threads = 1;
  /// Collect per-phase ShardTelemetry every round, tracing session or not
  /// (the kernel always collects while the tracer is live).
  bool telemetry = false;
};

/// One fault-free, noise-free round of FastEngine<Policy>: beep decisions
/// over the active set (counter draws keyed by (seed, vertex, round)),
/// feedback, level updates, and settlement/pruning, run across contiguous,
/// word-aligned vertex shards (see round_kernel.cpp for the design). It is
/// proven stream-identical to the reference engine — same levels, same
/// censuses, round for round, across corruption and half-duplex, at every
/// shard count (tests/test_kernels.cpp). Receiver noise never reaches the
/// kernel: make_engine runs noisy configs on the reference engine.
///
/// The kernel is the only owner of settlement: the settled bytes (0 active,
/// 1 member, 2 dominated), the active set and the member/active counts, plus
/// the counts and masks its round reads. Between rounds they change in one
/// of two ways, each of which leaves them exact:
///   rebuild()      everything from the levels, O(n + m) — after set_level,
///                  i.e. once per initial configuration;
///   patch(v, old)  one level write, repaired in v's 2-hop neighborhood — a
///                  corruption costs O(touched).
template <typename Policy>
class RoundKernel {
 public:
  explicit RoundKernel(const KernelContext<Policy>& ctx);
  // The phase closures bound in the constructor hold `this`.
  RoundKernel(const RoundKernel&) = delete;
  RoundKernel& operator=(const RoundKernel&) = delete;

  /// Executes round `round` (the engine's pre-increment round index, which
  /// keys the counter draws). `observing` requests exact heard masks and the
  /// census fields; without it the kernel may resolve only the bits the
  /// level update needs. Settlement must be exact on entry (rebuild or
  /// patch).
  void step_sparse(std::uint64_t round, bool observing, SparseCensus& census);

  /// Recomputes settlement, the active set, the counts and the masks from
  /// the levels alone.
  void rebuild();

  /// Repairs settlement, the counts and the masks after levels[v] changed
  /// from `old_level` to its current value, with everything exact
  /// beforehand. A level write moves membership only inside N[v] and
  /// domination only inside v and the neighbors of members that flipped, so
  /// no full rescan is needed.
  void patch(graph::VertexId v, std::int32_t old_level);

  /// Vertex shards a round runs on (1 = serial).
  std::size_t shard_count() const noexcept { return shards_.size(); }
  std::size_t active_count() const noexcept { return active_count_; }
  /// Settled members (== |I_t| after a round).
  std::size_t mis_count() const noexcept { return mis_count_; }

  /// Snapshots cumulative phase telemetry: false before any instrumented
  /// round has run.
  bool shard_telemetry(ShardTelemetry* out) const;

 private:
  struct Delta {
    graph::VertexId v;
    std::int32_t d;
  };
  struct Shard {
    std::size_t word_lo = 0, word_hi = 0;  ///< exclusively owned mask words
    /// Vertex range [64*lo, 64*hi) ∩ [0, n).
    graph::VertexId v_lo = 0, v_hi = 0;
    std::vector<graph::VertexId> active;   ///< shard's slice of the active set
    /// Settled in phase 3a, applied by fold.
    std::vector<graph::VertexId> new_members;
    std::vector<graph::VertexId> coin;     ///< this round's coin beepers
    std::vector<Delta> dp, dc;             ///< this round's boundary crossers
    std::vector<graph::VertexId> settle_cand;  ///< member-settle candidates
    /// Candidates this shard's apply found in shard d's range, read by d's
    /// phase 3a (several shards only; one shard uses settle_cand).
    std::vector<std::vector<graph::VertexId>> routed;
    // Compressed-store targets for one AVX-512 update-sweep chunk.
    std::vector<std::uint32_t> dp_idx, dc_idx, sc_idx;
    SparseCensus census;
    std::uint32_t mis_settled = 0;
    std::uint64_t busy_ns = 0;  ///< this round's task-body time (telemetry)
    bool sweep = false;  ///< this round took the dense sweep path
    bool any_settled = false;
    bool prune = false;  ///< patch() settled a slice entry; phase 1 drops it
  };
  using PhaseFn = std::function<void(std::size_t)>;

  void dispatch(const PhaseFn& fn);
  void run_phase(std::size_t pi, const PhaseFn& fn);
  void finish_round_telemetry(std::uint64_t round, std::uint64_t active);
  template <bool kShared>
  void bind_pushes();
  /// The shard that owns vertex v.
  std::size_t owner(graph::VertexId v) const noexcept {
    return (v >> 6) / shard_words_;
  }
  void rebuild_bits(std::size_t si);
  void rebuild_counts(std::size_t si);
  void rebuild_member_nb(std::size_t si);
  void rebuild_slices(std::size_t si);
  void prune_slice(Shard& sh);
  void phase1(std::size_t si);
  template <bool kShared>
  void stamp(const Shard& sh);
  void phase2(std::size_t si);
  template <bool kShared>
  void apply(Shard& sh);
  void phase3a(std::size_t si);
  template <bool kShared>
  void fold(const Shard& sh);
  void phase3b(std::size_t si);

  KernelContext<Policy> ctx_;
  std::vector<std::uint8_t> settled_;  ///< 0 active, 1 member, 2 dominated
  std::size_t active_count_ = 0;
  std::size_t mis_count_ = 0;
  support::TaskPool pool_;
  std::size_t words_ = 0;
  std::size_t shard_words_ = 0;  ///< words per shard (last shard clipped)
  std::vector<Shard> shards_;
  std::vector<std::uint64_t> active_mask_;
  std::vector<std::uint64_t> member_nb_mask_;  // has a settled-member neighbor
  std::vector<std::uint64_t> capped_mask_;     // levels[v] == lmax[v], all v
  // Policy::is_prominent(levels[v]), packed by rebuild() for its counts
  // pass only; rounds and patches leave it stale.
  std::vector<std::uint64_t> prominent_mask_;
  std::vector<std::uint64_t> heard_coin_mask_;  // coin audibility this round
  std::vector<std::uint32_t> prominent_nb_;  // certainly-beeping neighbors
  std::vector<std::uint32_t> uncapped_nb_;   // neighbors off their cap
  // Per-round inputs for the pre-bound phase closures.
  std::uint64_t round_state_ = 0;
  bool observing_ = false;
  // patch() scratch, kept to reuse its capacity across a fault wave.
  std::vector<graph::VertexId> patch_flipped_, patch_touched_;
  PhaseFn rebuild_bits_fn_, rebuild_counts_fn_, rebuild_member_nb_fn_;
  PhaseFn rebuild_slices_fn_;
  PhaseFn phase1_fn_, stamp_fn_;
  PhaseFn phase2_fn_, apply_fn_;
  PhaseFn phase3a_fn_, fold_fn_, phase3b_fn_;
  // Phase telemetry (see ShardTelemetry): cumulative over instrumented
  // rounds, all coordinator-owned — workers only ever write their own
  // shard's busy_ns through timed_fn_.
  PhaseFn timed_fn_;
  const PhaseFn* timed_inner_ = nullptr;
  bool tel_round_ = false;        // collecting this round
  std::uint64_t round_wall_ns_ = 0;  // this round's parallel-phase wall
  std::uint64_t tel_rounds_ = 0;
  std::uint64_t tel_phase_ns_[kShardPhaseCount] = {};
  std::uint64_t tel_busy_ns_ = 0;
  std::uint64_t tel_max_busy_ns_ = 0;
  std::uint64_t tel_barrier_ns_ = 0;
  std::uint64_t tel_active_ = 0;
  std::uint64_t tel_coin_ = 0;
  std::uint64_t tel_crossers_ = 0;
  std::uint64_t tel_cand_ = 0;
};

}  // namespace beepmis::core
