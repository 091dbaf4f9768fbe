#include "src/core/round_kernel.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>

#include "src/core/fast_engine.hpp"
#include "src/core/kernel_simd.hpp"
#include "src/obs/trace.hpp"
#include "src/support/huge_pages.hpp"

namespace beepmis::core {

// ---------------------------------------------------------------------------
// RoundKernel — the fast engine's round. It visits only what a round can
// change, and runs each round across contiguous, word-aligned vertex shards
// so one *instance* can use several cores (the replica-level pool
// parallelizes across runs, not within one).
//
// The structural fact it exploits: after the initial chaos, almost
// everything a round transmits is *certain* — prominent vertices (ℓ ≤ 0 /
// ℓ = 0) and settled members beep their channel with probability 1, round
// after round — so their audibility is a per-vertex count (prominent_nb_),
// updated only when a vertex crosses the prominence boundary. Only the
// round's *coin* beepers form a frontier whose rows are pushed into a heard
// bitmask. Settlement is candidate-driven: a vertex is re-examined only when
// an event this round could have made it settleable (it reached the member
// level or its cap, a neighborhood count hit zero, a neighbor joined the
// MIS). Per-round cost: O(active) + Σdeg(coin frontier) + Σdeg(boundary
// crossers); dense chaos rounds run the O(active) passes as AVX-512 sweeps
// (kernel_simd.hpp).
//
// The determinism contract rests on barriers and commutativity: the round is
// cut at barriers, every per-vertex write (levels, send, settled, the
// active/capped mask bits) goes to the shard that owns the vertex (shards
// are 64-vertex aligned), and every cross-shard read is of state frozen by
// the previous barrier. The only cross-shard writes are row pushes — each
// shard pushes ITS OWN beepers' and crossers' whole neighbor rows, once,
// into whichever shard owns each neighbor — and every push is an OR or an
// integer sum, so the result cannot depend on who pushes first:
//   phase 1  decisions from the counter draws (a pure function of
//            (seed, vertex, round)) -> send bytes + a shard-local coin
//            frontier, and the shard zeroes its own heard-mask words; the
//            dense rounds run the AVX-512 decide sweep over the shard's
//            range;
//   stamp    each shard ORs its coin beepers' rows into the heard mask —
//            always a push, so no cost-dependent mode switch can depend on
//            the shard count;
//   phase 2  heard in O(1) per vertex from prominent_nb_ counts + the
//            heard mask, update -> shard-owned levels, boundary-crosser
//            deltas (dp/dc) and capped-mask bits; dense rounds use the
//            masked AVX-512 update sweep;
//   apply    each shard adds its crossers' dp/dc deltas into the neighbors'
//            counts; a decrement that takes an uncapped count to zero
//            routes that neighbor to its owner shard as a settle candidate;
//   phase 3a member-settle test on the (now frozen) counts, recording new
//            members shard-locally;
//   fold     each shard clears its new members' active bits and ORs their
//            rows into the member-neighbor mask;
//   phase 3b dominated settlement, word-parallel over shard-owned words;
//            each shard prunes its own slice — the slices are the active
//            set, and the round-end tally only sums their sizes.
// With several shards two of them can push into the same mask word or
// count at once, so stamp, apply and fold push with relaxed atomic RMWs
// (std::atomic_ref) and the next barrier publishes them. Counts never go
// negative — a neighbor that reaches its cap was counted as uncapped before
// the round — so a count that ends at zero was last written by a decrement
// from one, and its vertex is always routed. Candidate order and
// multiplicity do depend on the interleaving, but 3a rechecks the exact
// predicate of each, so the settled set does not. Levels, censuses and
// events are therefore byte-identical for ANY shard/thread count and equal
// to the reference engine's stream (tests/test_kernels.cpp). At one shard the
// pushes are plain loads and stores and each phase body is called inline —
// no pool batch, no TaskPool::Observer callback, no lock-prefixed RMW — so
// the serial round costs only its Σdeg(frontier) + Σdeg(crossers)
// neighborhood work.
//
// Between rounds a corruption is repaired by patch() on the coordinator, in
// the same vocabulary as a round: the corrupted vertex's row adjusts the
// neighbors' counts, membership is re-tested in O(1) from uncapped_nb_ over
// N[v], the member-neighbor bits are recomputed around members that
// flipped, and domination, the active mask and the slices follow. Cost:
// Σdeg over the touched rows; the next round's barriers publish it.
// ---------------------------------------------------------------------------

namespace {

/// The beep decision of the reference algorithms against the round's raw
/// counter draw for the vertex, compressed to selects (chaos-phase beep bits
/// are coin flips, so a textbook if-cascade mispredicts on most vertices).
/// It leans on the structural contract the kernel relies on: prominent
/// vertices beep exactly kMemberBeep with certainty (Alg1 ℓ ≤ 0, always
/// below ℓmax ≥ 1; Alg2 ℓ = 0 regardless of ℓmax), and coin beepers flip
/// Bernoulli(2^-ℓ) on channel 1 only while ℓ < ℓmax. The coin test is
/// support::Rng::bernoulli_pow2's on the first draw — k ≥ 64 never
/// succeeds, and the masked shift keeps the expression defined (and unread)
/// at prominent levels. Proven draw-for-draw identical to the reference
/// engine in test_kernels.
template <typename Policy>
beep::ChannelMask decide_packed(std::int32_t l, std::int32_t lmax,
                                std::uint64_t draw) noexcept {
  const bool certain = Policy::is_prominent(l);
  const unsigned k = static_cast<unsigned>(l) & 63u;
  const bool coin_ok = (l < 64) & ((draw >> ((64u - k) & 63u)) == 0);
  const bool coin_beep = !certain & (l < lmax) & coin_ok;
  return certain ? Policy::kMemberBeep
                 : (coin_beep ? beep::kChannel1 : beep::ChannelMask{0});
}

/// Vertices per update-sweep call; a multiple of 64, so every chunk starts
/// on a mask word like the shard itself.
constexpr std::size_t kSweepChunk = 4096;

using TelClock = std::chrono::steady_clock;

std::uint64_t elapsed_ns(TelClock::time_point a,
                         TelClock::time_point b) noexcept {
  return b <= a ? 0
                : static_cast<std::uint64_t>(
                      std::chrono::duration_cast<std::chrono::nanoseconds>(
                          b - a)
                          .count());
}

/// Row-push primitives. With several shards, two shards can push into the
/// same mask word or count in one phase, so the writes are relaxed atomic
/// RMWs (the phase's closing barrier orders them before any read). One
/// shard keeps plain read-modify-writes: a lock-prefixed RMW would only
/// slow the serial round.
template <bool kShared>
void set_bit(std::vector<std::uint64_t>& mask, graph::VertexId u) {
  const std::uint64_t bit = 1ull << (u & 63u);
  if constexpr (kShared)
    std::atomic_ref<std::uint64_t>(mask[u >> 6])
        .fetch_or(bit, std::memory_order_relaxed);
  else
    mask[u >> 6] |= bit;
}

/// Adds `d` (mod 2^32) to `count`; returns the count before the add.
template <bool kShared>
std::uint32_t add_count(std::uint32_t& count, std::uint32_t d) {
  if constexpr (kShared)
    return std::atomic_ref<std::uint32_t>(count).fetch_add(
        d, std::memory_order_relaxed);
  const std::uint32_t before = count;
  count = before + d;
  return before;
}

/// One shard per requested worker, clamped so no shard is empty of words
/// (the pool gets exactly one worker per shard); the partition affects
/// load balance only, never results (see above).
std::size_t clamped_shards(std::size_t n, std::size_t shard_threads) {
  return std::min(support::TaskPool::resolve_thread_count(shard_threads),
                  std::max<std::size_t>((n + 63) / 64, 1));
}

}  // namespace

template <typename Policy>
RoundKernel<Policy>::RoundKernel(const KernelContext<Policy>& ctx)
    : ctx_(ctx),
      // The pool label gives the private pool's workers their own trace
      // tracks ("shard-worker-N") — see PoolTracer in obs/trace.cpp, the
      // pool observer Tracer::enable installs.
      pool_(clamped_shards(ctx.levels->size(), ctx.shard_threads), "shard") {
  const std::size_t n = ctx_.levels->size();
  // Rounds read settlement at scattered neighbours.
  support::reserve_huge(settled_, n);
  settled_.assign(n, 0);
  words_ = (n + 63) / 64;
  const std::size_t s = pool_.thread_count();
  shard_words_ = (words_ + s - 1) / s;
  shards_.resize(s);
  for (std::size_t i = 0; i < s; ++i) {
    Shard& sh = shards_[i];
    sh.word_lo = std::min(i * shard_words_, words_);
    sh.word_hi = std::min((i + 1) * shard_words_, words_);
    sh.v_lo = static_cast<graph::VertexId>(std::min(sh.word_lo * 64, n));
    sh.v_hi = static_cast<graph::VertexId>(std::min(sh.word_hi * 64, n));
    if (s > 1) sh.routed.resize(s);
  }
  active_mask_.assign(words_, 0);
  member_nb_mask_.assign(words_, 0);
  capped_mask_.assign(words_, 0);
  heard_coin_mask_.assign(words_, 0);
  // Row pushes land at scattered neighbours.
  support::reserve_huge(prominent_nb_, n);
  prominent_nb_.assign(n, 0);
  support::reserve_huge(uncapped_nb_, n);
  uncapped_nb_.assign(n, 0);
  // The phase bodies are bound once; per-round inputs travel through
  // members so parallel_for never rebuilds a std::function per call.
  rebuild_counts_fn_ = [this](std::size_t si) { rebuild_counts(si); };
  rebuild_member_nb_fn_ = [this](std::size_t si) { rebuild_member_nb(si); };
  rebuild_slices_fn_ = [this](std::size_t si) { rebuild_slices(si); };
  phase1_fn_ = [this](std::size_t si) { phase1(si); };
  phase2_fn_ = [this](std::size_t si) { phase2(si); };
  phase3a_fn_ = [this](std::size_t si) { phase3a(si); };
  phase3b_fn_ = [this](std::size_t si) { phase3b(si); };
  if (s > 1)
    bind_pushes<true>();
  else
    bind_pushes<false>();
  // Telemetry wrapper, bound once like the phase bodies: clocks the task
  // body into the shard's own busy tally (shard-owned, so no contention;
  // the pool's batch mutex orders the timed_inner_ hand-off).
  timed_fn_ = [this](std::size_t si) {
    const auto t0 = TelClock::now();
    (*timed_inner_)(si);
    shards_[si].busy_ns += elapsed_ns(t0, TelClock::now());
  };
}

template <typename Policy>
void RoundKernel<Policy>::rebuild() {
  // Three parallel passes, each writing only shard-owned state and each
  // reading across shards only what the previous barrier froze: counts,
  // caps and membership from the levels; member neighbors from the
  // membership; domination and the active slices from the masks.
  dispatch(rebuild_counts_fn_);
  dispatch(rebuild_member_nb_fn_);
  dispatch(rebuild_slices_fn_);
  mis_count_ = 0;
  active_count_ = 0;
  for (const Shard& sh : shards_) {
    mis_count_ += sh.mis_settled;
    active_count_ += sh.active.size();
  }
}

template <typename Policy>
void RoundKernel<Policy>::patch(graph::VertexId v, std::int32_t old_level) {
  const graph::Graph& g = *ctx_.graph;
  const auto& levels = *ctx_.levels;
  const auto& lmax = *ctx_.lmax;
  const std::int32_t level = levels[v];
  if (level == old_level) return;
  // v's row: the neighbors' counts see v cross the prominence and cap
  // boundaries; v's own capped bit follows its level.
  const int dp = (Policy::is_prominent(level) ? 1 : 0) -
                 (Policy::is_prominent(old_level) ? 1 : 0);
  const int dc = (level == lmax[v] ? 1 : 0) - (old_level == lmax[v] ? 1 : 0);
  if (dp != 0)
    for (graph::VertexId u : g.neighbors(v))
      prominent_nb_[u] += static_cast<std::uint32_t>(dp);
  if (dc != 0) {
    for (graph::VertexId u : g.neighbors(v))
      uncapped_nb_[u] -= static_cast<std::uint32_t>(dc);
    const std::uint64_t bit = 1ull << (v & 63u);
    if (dc > 0)
      capped_mask_[v >> 6] |= bit;
    else
      capped_mask_[v >> 6] &= ~bit;
  }

  // Membership moves only inside N[v], tested in O(1) from the counts.
  patch_flipped_.clear();
  patch_touched_.clear();
  const auto resettle_member = [&](graph::VertexId u) {
    const bool now = levels[u] == Policy::member_level(lmax[u]) &&
                     uncapped_nb_[u] == 0;
    if (now == (settled_[u] == 1)) return;
    settled_[u] = now ? 1 : 0;
    if (now)
      ++mis_count_;
    else
      --mis_count_;
    patch_flipped_.push_back(u);
    patch_touched_.push_back(u);
  };
  resettle_member(v);
  for (graph::VertexId u : g.neighbors(v)) resettle_member(u);

  // A new member marks its neighbors; an ex-member's neighbors recount,
  // since another member may still cover them.
  for (graph::VertexId u : patch_flipped_) {
    for (graph::VertexId w : g.neighbors(u)) {
      bool member_nb = settled_[u] == 1;
      if (!member_nb)
        for (graph::VertexId x : g.neighbors(w))
          if (settled_[x] == 1) {
            member_nb = true;
            break;
          }
      const std::uint64_t bit = 1ull << (w & 63u);
      if (member_nb)
        member_nb_mask_[w >> 6] |= bit;
      else
        member_nb_mask_[w >> 6] &= ~bit;
    }
  }

  // Domination moves only at v and around the flipped members.
  const auto resettle_dominated = [&](graph::VertexId w) {
    if (settled_[w] == 1) return;
    const std::uint64_t bit = 1ull << (w & 63u);
    const bool dom = (capped_mask_[w >> 6] & member_nb_mask_[w >> 6] & bit);
    const auto s = static_cast<std::uint8_t>(dom ? 2 : 0);
    if (settled_[w] == s) return;
    settled_[w] = s;
    patch_touched_.push_back(w);
  };
  resettle_dominated(v);
  for (graph::VertexId u : patch_flipped_)
    for (graph::VertexId w : g.neighbors(u)) resettle_dominated(w);

  // The active mask and count follow the settled bytes. A vertex that
  // re-activates joins its owner's slice; one that settles is left in its
  // slice for the owner's next phase 1 to prune.
  for (graph::VertexId w : patch_touched_) {
    const std::uint64_t bit = 1ull << (w & 63u);
    const bool listed = active_mask_[w >> 6] & bit;
    if (listed == (settled_[w] == 0)) continue;
    Shard& sh = shards_[owner(w)];
    if (listed) {
      active_mask_[w >> 6] &= ~bit;
      --active_count_;
      sh.prune = true;
    } else {
      active_mask_[w >> 6] |= bit;
      ++active_count_;
      sh.active.push_back(w);
    }
  }
}

template <typename Policy>
void RoundKernel<Policy>::step_sparse(std::uint64_t round, bool observing,
                                      SparseCensus& census) {
  round_state_ = support::counter_round_state(ctx_.seed, round);
  observing_ = observing;

  // Telemetry is pure observation — clock reads, shard-owned tallies and
  // (when tracing) span records; nothing below branches on it, so results
  // stay byte-identical with the layer on or off.
  tel_round_ = ctx_.telemetry || obs::Tracer::active();
  const std::uint64_t round_active = active_count_;  // pre-round |active|
  if (tel_round_) {
    for (Shard& sh : shards_) sh.busy_ns = 0;
    round_wall_ns_ = 0;
  }

  run_phase(0, phase1_fn_);  // shard.decide
  // Barrier: every shard zeroed its heard words before any pushes there.
  run_phase(1, stamp_fn_);  // shard.stamp
  // Barrier: phase 2 reads its own heard words and counts.
  run_phase(2, phase2_fn_);  // shard.update
  // Barrier: every shard read its counts before any pushes there.
  run_phase(3, apply_fn_);  // shard.apply
  // Barrier: 3a reads the (now frozen) counts and routed candidates.
  run_phase(4, phase3a_fn_);  // shard.settle (member half)
  // 3a and the fold touch disjoint state; the fold is a phase of its own
  // so that its cost is timed apart.
  run_phase(5, fold_fn_);  // shard.fold
  // Barrier: 3b reads the member-neighbor words the fold just wrote.
  run_phase(4, phase3b_fn_);  // shard.settle (dominated half)

  // Coordinator tally, ascending shard order: integer sums only, so the
  // order is a convention, not a correctness requirement.
  TelClock::time_point f0;
  if (tel_round_) f0 = TelClock::now();
  active_count_ = 0;
  for (const Shard& sh : shards_) {
    mis_count_ += sh.mis_settled;
    active_count_ += sh.active.size();
    census.active_beeps[0] += sh.census.active_beeps[0];
    census.active_beeps[1] += sh.census.active_beeps[1];
    census.active_heard[0] += sh.census.active_heard[0];
    census.active_heard[1] += sh.census.active_heard[1];
    census.active_heard_any += sh.census.active_heard_any;
    census.prominent_active += sh.census.prominent_active;
    census.dom_heard_extra += sh.census.dom_heard_extra;
  }
  if (tel_round_) {
    const auto f1 = TelClock::now();
    tel_phase_ns_[5] += elapsed_ns(f0, f1);
    if (obs::Tracer::active())
      obs::Tracer::complete(kShardPhaseNames[5], f0, f1);
    finish_round_telemetry(round, round_active);
  }
}

template <typename Policy>
bool RoundKernel<Policy>::shard_telemetry(ShardTelemetry* out) const {
  if (tel_rounds_ == 0) return false;
  out->shards = shards_.size();
  out->rounds = tel_rounds_;
  for (std::size_t i = 0; i < kShardPhaseCount; ++i)
    out->phase_ms[i] = static_cast<double>(tel_phase_ns_[i]) / 1e6;
  out->busy_ms = static_cast<double>(tel_busy_ns_) / 1e6;
  out->max_busy_ms = static_cast<double>(tel_max_busy_ns_) / 1e6;
  out->barrier_wait_ms = static_cast<double>(tel_barrier_ns_) / 1e6;
  out->active_vertices = tel_active_;
  out->coin_beepers = tel_coin_;
  out->crosser_rows = tel_crossers_;
  out->settled_candidates = tel_cand_;
  return true;
}

/// Runs `fn` once per shard. A single shard is called inline: a serial
/// round never touches the pool, so it pays no batch hand-off and fires
/// no TaskPool::Observer callback.
template <typename Policy>
void RoundKernel<Policy>::dispatch(const PhaseFn& fn) {
  if (shards_.size() == 1)
    fn(0);
  else
    pool_.parallel_for(shards_.size(), fn);
}

/// One barrier-phased step. Without telemetry this is exactly the bare
/// dispatch; with it, the coordinator clocks the phase wall (emitting the
/// named span when tracing) and the timed wrapper clocks each shard's
/// task body into its busy tally.
template <typename Policy>
void RoundKernel<Policy>::run_phase(std::size_t pi, const PhaseFn& fn) {
  if (!tel_round_) {
    dispatch(fn);
    return;
  }
  const auto t0 = TelClock::now();
  timed_inner_ = &fn;
  dispatch(timed_fn_);
  const auto t1 = TelClock::now();
  tel_phase_ns_[pi] += elapsed_ns(t0, t1);
  round_wall_ns_ += elapsed_ns(t0, t1);
  if (obs::Tracer::active())
    obs::Tracer::complete(kShardPhaseNames[pi], t0, t1);
}

/// Round-end telemetry fold: per-shard busy -> busy/max-busy/barrier
/// totals, work-counter sums (the per-round lists are stable until the
/// next round's phase 1 clears them), and — at the tracer's counter
/// cadence — the derived per-round gauges as counter tracks.
template <typename Policy>
void RoundKernel<Policy>::finish_round_telemetry(std::uint64_t round,
                                                 std::uint64_t active) {
  std::uint64_t busy = 0, max_busy = 0;
  std::uint64_t coin = 0, crossers = 0, cand = 0;
  for (const Shard& sh : shards_) {
    busy += sh.busy_ns;
    max_busy = std::max(max_busy, sh.busy_ns);
    coin += sh.coin.size();
    crossers += sh.dp.size() + sh.dc.size();
    cand += sh.settle_cand.size();
    for (const auto& r : sh.routed) cand += r.size();
  }
  ++tel_rounds_;
  tel_busy_ns_ += busy;
  tel_max_busy_ns_ += max_busy;
  // Idle-at-barrier time: each parallel phase holds shards_.size() tasks
  // hostage until the slowest finishes, so the round's idle is the phase
  // walls times the shard count minus the total busy time.
  const std::uint64_t held = round_wall_ns_ * shards_.size();
  tel_barrier_ns_ += held > busy ? held - busy : 0;
  tel_active_ += active;
  tel_coin_ += coin;
  tel_crossers_ += crossers;
  tel_cand_ += cand;
  if (const std::uint64_t k = obs::Tracer::counter_interval();
      k != 0 && round % k == 0 && obs::Tracer::active()) {
    const double mean_busy =
        static_cast<double>(busy) / static_cast<double>(shards_.size());
    obs::Tracer::counter("shard.imbalance",
                         mean_busy > 0.0
                             ? static_cast<double>(max_busy) / mean_busy
                             : 0.0);
    obs::Tracer::counter("shard.barrier_wait_ms",
                         static_cast<double>(held > busy ? held - busy : 0) /
                             1e6);
    obs::Tracer::counter("shard.active", static_cast<double>(active));
    obs::Tracer::counter("shard.coin", static_cast<double>(coin));
    obs::Tracer::counter("shard.crossers", static_cast<double>(crossers));
    obs::Tracer::counter("shard.settle_cand", static_cast<double>(cand));
  }
}

/// Binds the row-push phases once the shard count is known.
template <typename Policy>
template <bool kShared>
void RoundKernel<Policy>::bind_pushes() {
  stamp_fn_ = [this](std::size_t si) { stamp<kShared>(shards_[si]); };
  apply_fn_ = [this](std::size_t si) { apply<kShared>(shards_[si]); };
  fold_fn_ = [this](std::size_t si) { fold<kShared>(shards_[si]); };
}

template <typename Policy>
void RoundKernel<Policy>::rebuild_counts(std::size_t si) {
  // Gather pass over the shard's own vertices: each vertex recounts its
  // own neighborhood (cross-shard reads of the frozen levels), so every
  // write stays shard-owned. A member needs every neighbor capped, so the
  // uncapped count decides membership on the spot. Settled members are
  // prominent by construction (they sit at the member level), so
  // prominent_nb_ covers both certain-beeper populations at once.
  Shard& sh = shards_[si];
  const graph::Graph& g = *ctx_.graph;
  const auto& levels = *ctx_.levels;
  const auto& lmax = *ctx_.lmax;
  std::fill(capped_mask_.begin() + sh.word_lo,
            capped_mask_.begin() + sh.word_hi, 0);
  sh.mis_settled = 0;
  for (graph::VertexId v = sh.v_lo; v < sh.v_hi; ++v) {
    if (levels[v] == lmax[v]) capped_mask_[v >> 6] |= 1ull << (v & 63u);
    std::uint32_t prom = 0, uncapped = 0;
    for (graph::VertexId u : g.neighbors(v)) {
      prom += Policy::is_prominent(levels[u]) ? 1 : 0;
      uncapped += levels[u] != lmax[u] ? 1 : 0;
    }
    prominent_nb_[v] = prom;
    uncapped_nb_[v] = uncapped;
    const bool member =
        levels[v] == Policy::member_level(lmax[v]) && uncapped == 0;
    settled_[v] = member ? 1 : 0;
    sh.mis_settled += member ? 1 : 0;
  }
}

template <typename Policy>
void RoundKernel<Policy>::rebuild_member_nb(std::size_t si) {
  // Second gather pass, after the barrier froze membership: each vertex
  // looks for a member among its neighbors (cross-shard reads).
  const Shard& sh = shards_[si];
  const graph::Graph& g = *ctx_.graph;
  std::fill(member_nb_mask_.begin() + sh.word_lo,
            member_nb_mask_.begin() + sh.word_hi, 0);
  for (graph::VertexId v = sh.v_lo; v < sh.v_hi; ++v)
    for (graph::VertexId u : g.neighbors(v))
      if (settled_[u] == 1) {
        member_nb_mask_[v >> 6] |= 1ull << (v & 63u);
        break;
      }
}

template <typename Policy>
void RoundKernel<Policy>::rebuild_slices(std::size_t si) {
  // Third pass, shard-local: domination, the active mask and the shard's
  // active slice, in ascending order. Kept apart from the member-neighbor
  // pass, whose cross-shard reads of settled_ must not meet these writes.
  Shard& sh = shards_[si];
  std::fill(active_mask_.begin() + sh.word_lo,
            active_mask_.begin() + sh.word_hi, 0);
  sh.active.clear();
  sh.prune = false;
  for (graph::VertexId v = sh.v_lo; v < sh.v_hi; ++v) {
    const std::uint64_t bit = 1ull << (v & 63u);
    if (settled_[v] == 1) continue;
    if (capped_mask_[v >> 6] & member_nb_mask_[v >> 6] & bit) {
      settled_[v] = 2;
      continue;
    }
    active_mask_[v >> 6] |= bit;
    sh.active.push_back(v);
  }
}

/// Drops from the slice what patch() settled and any second entry of a
/// vertex that patch() settled and re-activated: the active mask is the
/// truth, and each kept vertex clears its bit so a repeat is skipped.
template <typename Policy>
void RoundKernel<Policy>::prune_slice(Shard& sh) {
  std::size_t kept = 0;
  for (graph::VertexId v : sh.active) {
    const std::uint64_t bit = 1ull << (v & 63u);
    if (!(active_mask_[v >> 6] & bit)) continue;
    active_mask_[v >> 6] &= ~bit;
    sh.active[kept++] = v;
  }
  sh.active.resize(kept);
  for (graph::VertexId v : sh.active)
    active_mask_[v >> 6] |= 1ull << (v & 63u);
  sh.prune = false;
}

template <typename Policy>
void RoundKernel<Policy>::phase1(std::size_t si) {
  Shard& sh = shards_[si];
  if (sh.prune) prune_slice(sh);
  sh.census = SparseCensus{};
  sh.mis_settled = 0;
  sh.any_settled = false;
  sh.new_members.clear();
  sh.coin.clear();
  sh.dp.clear();
  sh.dc.clear();
  sh.settle_cand.clear();
  for (auto& r : sh.routed) r.clear();
  // Every shard's stamp pushes into these words after the barrier.
  std::fill(heard_coin_mask_.begin() + sh.word_lo,
            heard_coin_mask_.begin() + sh.word_hi, 0);
  auto& send = *ctx_.send;
  const auto& levels = *ctx_.levels;
  const auto& lmax = *ctx_.lmax;
  const auto& settled = settled_;
  const std::size_t range = sh.v_hi - sh.v_lo;
  sh.sweep = false;
#if BEEPMIS_KERNEL_AVX512
  // Dense-round gate, per shard: in the chaos phase nearly every vertex
  // is active and the O(active) passes are pure per-vertex ALU work, so a
  // masked contiguous sweep over the shard's range beats the indexed
  // loop (the range is 64-aligned, so the sweep's lanes line up with mask
  // words). Once the active set is sparse the indexed loop wins again.
  // Observed rounds take the same gate: the sweeps count the census from
  // their lane masks. Which path runs only ever changes wall-clock.
  sh.sweep = simd::have_avx512() && range >= 64 &&
             sh.active.size() * 8 >= range;
  if (sh.sweep)
    simd::decide_sweep_range<Policy>(round_state_, sh.v_lo, sh.v_hi,
                                     levels.data(), lmax.data(),
                                     settled.data(), send.data(), sh.coin,
                                     sh.census.active_beeps);
#endif
  if (!sh.sweep) {
    for (graph::VertexId v : sh.active) {
      const std::int32_t l = levels[v];
      const beep::ChannelMask m = decide_packed<Policy>(
          l, lmax[v], support::counter_first_draw_at(round_state_, v));
      send[v] = m;
      sh.census.active_beeps[0] += m & 1u;
      if constexpr (Policy::kChannels > 1)
        sh.census.active_beeps[1] += (m >> 1) & 1u;
      if ((m != 0) & !Policy::is_prominent(l)) sh.coin.push_back(v);
    }
  }
}

template <typename Policy>
template <bool kShared>
void RoundKernel<Policy>::stamp(const Shard& sh) {
  // Push the shard's coin beepers' whole rows into the heard mask
  // (certain beepers are already covered by the neighbors' prominent_nb_
  // counts). Settled targets are stamped too, which answers the
  // dominated census in O(1).
  for (graph::VertexId b : sh.coin)
    for (graph::VertexId u : ctx_.graph->neighbors(b))
      set_bit<kShared>(heard_coin_mask_, u);
}

template <typename Policy>
void RoundKernel<Policy>::phase2(std::size_t si) {
  Shard& sh = shards_[si];
  const auto& lmax = *ctx_.lmax;
  auto& levels = *ctx_.levels;
  const auto& settled = settled_;
  auto& send = *ctx_.send;
  const bool half = ctx_.half;
#if BEEPMIS_KERNEL_AVX512
  if (sh.sweep) {
    // Fixed-size chunks keep the compressed-store scratch bounded at
    // 3 × kSweepChunk indices per shard, whatever the shard's range.
    if (sh.dp_idx.empty()) {
      sh.dp_idx.resize(kSweepChunk);
      sh.dc_idx.resize(kSweepChunk);
      sh.sc_idx.resize(kSweepChunk);
    }
    SparseCensus* census = observing_ ? &sh.census : nullptr;
    for (std::size_t lo = sh.v_lo; lo < sh.v_hi; lo += kSweepChunk) {
      const std::size_t hi = std::min<std::size_t>(lo + kSweepChunk, sh.v_hi);
      std::size_t dp_n = 0, dc_n = 0, sc_n = 0;
      simd::update_sweep_masked<Policy>(
          half, lo, hi, levels.data(), lmax.data(), settled.data(),
          prominent_nb_.data(), heard_coin_mask_.data(), send.data(),
          sh.dp_idx.data(), dp_n, sh.dc_idx.data(), dc_n, sh.sc_idx.data(),
          sc_n, census);
      for (std::size_t i = 0; i < dp_n; ++i) {
        const graph::VertexId v = sh.dp_idx[i];
        sh.dp.push_back({v, Policy::is_prominent(levels[v]) ? 1 : -1});
      }
      for (std::size_t i = 0; i < dc_n; ++i) {
        const graph::VertexId v = sh.dc_idx[i];
        sh.dc.push_back({v, levels[v] == lmax[v] ? 1 : -1});
      }
      for (std::size_t i = 0; i < sc_n; ++i)
        sh.settle_cand.push_back(sh.sc_idx[i]);
    }
  }
#endif
  if (!sh.sweep) {
    for (graph::VertexId v : sh.active) {
      const std::int32_t before = levels[v];
      const std::int32_t cap = lmax[v];
      beep::ChannelMask heard = prominent_nb_[v] != 0
                                    ? Policy::kMemberBeep
                                    : beep::ChannelMask{0};
      heard |= (heard_coin_mask_[v >> 6] >> (v & 63u)) & 1u
                   ? beep::kChannel1
                   : beep::ChannelMask{0};
      // A half-duplex beeper hears nothing.
      heard = (half && send[v] != 0) ? beep::ChannelMask{0} : heard;
      if (observing_) {
        sh.census.active_heard[0] += heard & 1u;
        if constexpr (Policy::kChannels > 1) {
          sh.census.active_heard[1] += (heard >> 1) & 1u;
          sh.census.active_heard_any += heard ? 1 : 0;
        }
      }
      const std::int32_t after =
          Policy::update_packed(before, cap, send[v], heard);
      levels[v] = after;
      const int dp = (Policy::is_prominent(after) ? 1 : 0) -
                     (Policy::is_prominent(before) ? 1 : 0);
      const int dc = (after == cap ? 1 : 0) - (before == cap ? 1 : 0);
      if (dp != 0) sh.dp.push_back({v, static_cast<std::int32_t>(dp)});
      if (dc != 0) sh.dc.push_back({v, static_cast<std::int32_t>(dc)});
      if ((after == Policy::member_level(cap)) & (before != after))
        sh.settle_cand.push_back(v);
    }
  }
  // Capped-mask maintenance for 3b: the crossers are this shard's own
  // vertices, so the touched words are shard-owned.
  for (const auto& [v, d] : sh.dc) {
    const std::uint64_t bit = 1ull << (v & 63u);
    if (d > 0)
      capped_mask_[v >> 6] |= bit;
    else
      capped_mask_[v >> 6] &= ~bit;
  }
  if (observing_) {
    // The sweep counted its own post-update prominence.
    if (!sh.sweep)
      for (graph::VertexId v : sh.active)
        sh.census.prominent_active +=
            Policy::is_prominent(levels[v]) ? 1 : 0;
    if constexpr (Policy::kChannels > 1) {
      // The stamp phase ORed whole rows, settled targets included, so the
      // dominated census resolves in O(1) per vertex.
      for (graph::VertexId v = sh.v_lo; v < sh.v_hi; ++v) {
        if (settled[v] != 2) continue;
        sh.census.dom_heard_extra +=
            (heard_coin_mask_[v >> 6] >> (v & 63u)) & 1u;
      }
    }
  }
}

template <typename Policy>
template <bool kShared>
void RoundKernel<Policy>::apply(Shard& sh) {
  // Deferred count maintenance: the shard pushes its own boundary
  // crossers' deltas into their neighbors' counts. A dc of +1 means the
  // crosser *reached* its cap, so its neighbors lose an uncapped neighbor
  // — and one whose count drops to zero becomes a member-settle candidate
  // of the shard that owns it. Sums commute, so the push order cannot
  // affect the final counts.
  const graph::Graph& g = *ctx_.graph;
  for (const auto& [cv, d] : sh.dp)
    for (graph::VertexId u : g.neighbors(cv))
      add_count<kShared>(prominent_nb_[u], static_cast<std::uint32_t>(d));
  for (const auto& [cv, d] : sh.dc) {
    if (d > 0) {
      for (graph::VertexId u : g.neighbors(cv)) {
        if (add_count<kShared>(uncapped_nb_[u], ~0u) != 1) continue;
        if constexpr (kShared)
          sh.routed[owner(u)].push_back(u);
        else
          sh.settle_cand.push_back(u);
      }
    } else {
      for (graph::VertexId u : g.neighbors(cv))
        add_count<kShared>(uncapped_nb_[u], 1);
    }
  }
}

template <typename Policy>
void RoundKernel<Policy>::phase3a(std::size_t si) {
  // Member settlement in O(1) per candidate from the frozen counts;
  // only the shard-owned settled byte is written here — the member's
  // active bit and its neighbors' member-neighbor bits wait for the fold.
  // Candidate-driven: settlement is exact at the start of every round
  // (rebuild and patch leave it so), so only a vertex that reached the
  // member level or whose uncapped count hit zero this round can newly
  // qualify. Stale or duplicate candidates are harmless — each entry
  // rechecks the exact predicate.
  Shard& sh = shards_[si];
  const auto& lmax = *ctx_.lmax;
  const auto& levels = *ctx_.levels;
  auto& settled = settled_;
  const auto try_settle = [&](graph::VertexId v) {
    if (settled[v] != 0 || levels[v] != Policy::member_level(lmax[v]) ||
        uncapped_nb_[v] != 0)
      return;
    settled[v] = 1;
    ++sh.mis_settled;
    sh.any_settled = true;
    sh.new_members.push_back(v);
  };
  for (graph::VertexId v : sh.settle_cand) try_settle(v);
  if (shards_.size() == 1) return;
  for (const Shard& other : shards_)
    for (graph::VertexId v : other.routed[si]) try_settle(v);
}

template <typename Policy>
template <bool kShared>
void RoundKernel<Policy>::fold(const Shard& sh) {
  // A new member leaves the active mask (its own word) and marks every
  // neighbor as having a member neighbor (any shard's words).
  for (graph::VertexId v : sh.new_members) {
    active_mask_[v >> 6] &= ~(1ull << (v & 63u));
    for (graph::VertexId u : ctx_.graph->neighbors(v))
      set_bit<kShared>(member_nb_mask_, u);
  }
}

template <typename Policy>
void RoundKernel<Policy>::phase3b(std::size_t si) {
  Shard& sh = shards_[si];
  auto& settled = settled_;
  for (std::size_t w = sh.word_lo; w < sh.word_hi; ++w) {
    std::uint64_t cand =
        active_mask_[w] & capped_mask_[w] & member_nb_mask_[w];
    while (cand) {
      const auto v = static_cast<graph::VertexId>(
          (w << 6) + static_cast<unsigned>(std::countr_zero(cand)));
      cand &= cand - 1;
      settled[v] = 2;
      active_mask_[w] &= ~(1ull << (v & 63u));
      sh.any_settled = true;
    }
  }
  // A shard's slice only ever contains its own vertices, and those settle
  // only in this shard's 3a/3b — so the slice prune is shard-local too.
  if (sh.any_settled)
    sh.active.erase(
        std::remove_if(sh.active.begin(), sh.active.end(),
                       [&](graph::VertexId v) { return settled[v] != 0; }),
        sh.active.end());
}

template class RoundKernel<Alg1Policy>;
template class RoundKernel<Alg2Policy>;

}  // namespace beepmis::core
