#include "src/core/invariant.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace beepmis::core {

namespace {

using Words = std::vector<std::uint64_t>;

bool bit(const Words& words, graph::VertexId v) {
  return ((words[v >> 6] >> (v & 63)) & 1) != 0;
}

void set_bit(Words& words, graph::VertexId v, bool on) {
  const std::uint64_t mask = std::uint64_t{1} << (v & 63);
  words[v >> 6] = on ? words[v >> 6] | mask : words[v >> 6] & ~mask;
}

/// Calls f(v) for every set bit v of `words`, in ascending order.
template <typename F>
void for_each_bit(std::size_t w, std::uint64_t word, F&& f) {
  for (; word != 0; word &= word - 1)
    f(static_cast<graph::VertexId>(w * 64 + std::countr_zero(word)));
}

/// A settled check rebuilds the whole snapshot once more than
/// n / kPatchShare + kPatchFloor level bits changed since the last one.
/// A patch reads the rows around each changed vertex at random, a rebuild
/// walks the candidates' rows in order, so where one overtakes the other
/// moves with the cache. On er-avg8 graphs after re-stabilized
/// corrupt_random waves (4-CPU AVX-512 host), patching stopped beating a
/// rebuild at about 35 changed bits for n = 1000, 360 for n = 2^14, 2200
/// for n = 2^17 and 6150 for n = 2^20 (rows far out of cache). The
/// threshold meets both ends; between them it rebuilds early, which costs
/// no more than the one full pass (0.34 ms at n = 2^14, 2.6 ms at 2^17).
constexpr std::size_t kPatchShare = 170;
constexpr std::size_t kPatchFloor = 32;

/// The probe's private state: the level bits of the last settled check and
/// the MIS predicate derived from them, all n-bit word arrays. in(v) is
/// candidate(v) with every neighbor capped — the settlement predicate, read
/// from the levels alone, never from the engine's settlement — and dominated(v)
/// is "some neighbor is in". A settled check packs fresh level bits, XORs
/// them against the snapshot, and re-derives in only for changed
/// candidates and the neighbors of changed caps, then dominated only for
/// the neighbors of the vertices whose in bit flipped: O(n/64) word work
/// plus the rows of N²(changed).
class LevelVerifier {
 public:
  obs::InvariantProbeResult probe(const Engine& engine,
                                  bool claims_stabilized) {
    const graph::Graph& g = engine.graph();
    const std::size_t words = (g.vertex_count() + 63) / 64;
    fresh_capped_.resize(words);
    fresh_candidate_.resize(words);
    obs::InvariantProbeResult r;
    r.stabilized = engine.is_stabilized();
    // The state space of Algorithms 1 and 2 (arXiv 2405.04266, Section 2):
    // ℓ(v) ∈ [-ℓmax(v), ℓmax(v)], resp. [0, ℓmax(v)]. Every update rule and
    // every transient fault stays inside it, so this holds at every round.
    r.levels_in_range = engine.pack_levels(fresh_capped_, fresh_candidate_);
    if (!claims_stabilized && !r.stabilized) return r;
    // Theorems 2.1 and 2.2 and Corollary 2.3: once S_t = I_t ∪ N(I_t) = V,
    // I_t is an MIS. A probe that finds the engine settled without being
    // told so (RecoveryTracker::finalize) audits from scratch.
    if (!claims_stabilized || !patch(g)) rebuild(g);
    const std::size_t n = g.vertex_count();
    for (std::size_t w = 0; w < words; ++w) {
      const std::size_t count = std::min<std::size_t>(64, n - w * 64);
      const std::uint64_t all = ~std::uint64_t{0} >> (64 - count);
      r.independent = r.independent && (in_[w] & dominated_[w]) == 0;
      r.maximal = r.maximal && (in_[w] | dominated_[w]) == all;
    }
    return r;
  }

 private:
  bool all_capped(const graph::Graph& g, graph::VertexId v) const {
    for (graph::VertexId u : g.neighbors(v))
      if (!bit(capped_, u)) return false;
    return true;
  }

  bool any_in(const graph::Graph& g, graph::VertexId v) const {
    for (graph::VertexId u : g.neighbors(v))
      if (bit(in_, u)) return true;
    return false;
  }

  /// Adds v to the work list unless it is on it already, so each row a
  /// patch reads is read once however many changes reach it.
  void list(graph::VertexId v) {
    if (bit(listed_bits_, v)) return;
    set_bit(listed_bits_, v, true);
    listed_.push_back(v);
  }

  /// Calls f(v) once for every listed vertex and empties the list.
  template <typename F>
  void drain(F&& f) {
    for (graph::VertexId v : listed_) {
      set_bit(listed_bits_, v, false);
      f(v);
    }
    listed_.clear();
  }

  /// Adopts the fresh level bits and derives in and dominated from them.
  void rebuild(const graph::Graph& g) {
    std::swap(capped_, fresh_capped_);
    std::swap(candidate_, fresh_candidate_);
    in_.assign(capped_.size(), 0);
    dominated_.assign(capped_.size(), 0);
    // One walk over the candidates' rows: a member marks its row
    // dominated while the row is still in cache.
    for (std::size_t w = 0; w < candidate_.size(); ++w)
      for_each_bit(w, candidate_[w], [&](graph::VertexId v) {
        if (!all_capped(g, v)) return;
        set_bit(in_, v, true);
        for (graph::VertexId u : g.neighbors(v)) set_bit(dominated_, u, true);
      });
    valid_ = true;
  }

  /// Brings the snapshot up to the fresh level bits in N²(changed),
  /// reading each row there at most once per pass however many changes
  /// surround it. False (snapshot untouched) when there is no snapshot yet
  /// or too much changed for patching to beat a rebuild.
  bool patch(const graph::Graph& g) {
    if (!valid_) return false;
    listed_bits_.resize(capped_.size());
    std::size_t changed = 0;
    for (std::size_t w = 0; w < capped_.size(); ++w)
      changed += static_cast<std::size_t>(
          std::popcount((capped_[w] ^ fresh_capped_[w]) |
                        (candidate_[w] ^ fresh_candidate_[w])));
    if (changed > g.vertex_count() / kPatchShare + kPatchFloor) return false;
    // The snapshot takes the fresh bits; fresh_* keep the old ones for
    // the XOR below and are overwritten by the next pack.
    std::swap(capped_, fresh_capped_);
    std::swap(candidate_, fresh_candidate_);
    // in(v) reads candidate(v) and the caps of N(v): only a changed
    // candidate bit or a changed cap next door can flip it. A vertex that
    // is not a candidate now is out whatever its neighbors do, and if it
    // was in before, its own candidate bit changed.
    for (std::size_t w = 0; w < capped_.size(); ++w) {
      for_each_bit(w, candidate_[w] ^ fresh_candidate_[w],
                   [&](graph::VertexId v) { list(v); });
      for_each_bit(w, capped_[w] ^ fresh_capped_[w], [&](graph::VertexId v) {
        for (graph::VertexId u : g.neighbors(v))
          if (bit(candidate_, u)) list(u);
      });
    }
    flipped_.clear();
    drain([&](graph::VertexId v) {
      const bool now = bit(candidate_, v) && all_capped(g, v);
      if (now == bit(in_, v)) return;
      set_bit(in_, v, now);
      flipped_.push_back(v);
    });
    // dominated(u) reads in over N(u): only the neighbors of a flipped
    // vertex can change, and one that lost a member may still have
    // another.
    for (graph::VertexId v : flipped_)
      for (graph::VertexId u : g.neighbors(v)) list(u);
    drain([&](graph::VertexId u) { set_bit(dominated_, u, any_in(g, u)); });
    return true;
  }

  Words capped_, candidate_, in_, dominated_;  // the snapshot
  Words fresh_capped_, fresh_candidate_;       // this probe's pack
  Words listed_bits_;                          // membership of listed_
  std::vector<graph::VertexId> listed_;        // rows patch still reads
  std::vector<graph::VertexId> flipped_;       // in bits patch flipped
  bool valid_ = false;
};

}  // namespace

obs::InvariantProbeResult probe_invariants(const Engine& engine,
                                           bool claims_stabilized) {
  LevelVerifier fresh;
  return fresh.probe(engine, claims_stabilized);
}

obs::InvariantProbe make_invariant_probe(const Engine& engine) {
  const Engine* e = &engine;
  // Shared, so copies of the probe (the monitor's and the tracker's) keep
  // one snapshot.
  auto verifier = std::make_shared<LevelVerifier>();
  return [e, verifier](bool claims_stabilized) {
    // The probe's own time, apart from the round that asked for it.
    obs::TraceScope span("obs.probe", e->round());
    return verifier->probe(*e, claims_stabilized);
  };
}

obs::FlightRecorder::LevelProbe make_level_probe(const Engine& engine) {
  const Engine* e = &engine;
  return [e]() {
    std::vector<std::int32_t> levels(e->graph().vertex_count());
    for (std::size_t v = 0; v < levels.size(); ++v) levels[v] = e->level(v);
    return levels;
  };
}

}  // namespace beepmis::core
