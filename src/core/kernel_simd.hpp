#pragma once

// AVX-512 dense-round sweeps for the sharded round kernel.
//
// During the chaos phase the active set is essentially the whole graph, so
// the kernel's two O(active) passes (decide, update) dominate the round —
// tens of nanoseconds per vertex, almost all of it branch and scalar-ALU
// cost, since the neighborhood work is already count-based and O(1) per
// vertex. These sweeps run the same two passes over a shard's contiguous,
// 64-aligned vertex range instead of its slice of the active list, 16 lanes
// at a time, with settled vertices masked out of every tally and store.
// They compute bit-identical results to the indexed loops (same counter
// draws, same decide/update semantics) and, on observed rounds, the same
// beep/heard/prominence census as popcounts of the lane masks they already
// form. The observed and unobserved lockstep tests in tests/test_kernels.cpp
// cover both on AVX-512 hardware; which path runs only ever changes
// wall-clock.
//
// The same compares also pack the level bits (core::pack_level_bits,
// level_bits.hpp) that the invariant probe, mis_members() and the kernel's
// rebuild read; LevelBits.PackMatchesPerVertexPredicates holds that pack to
// its scalar loop word for word.
//
// Dispatch is at runtime: the functions carry per-function target
// attributes, so no global -march flag is required and the binary still
// runs on pre-AVX-512 machines (have_avx512() gates every call site).

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/beep/types.hpp"
#include "src/core/round_kernel.hpp"
#include "src/graph/graph.hpp"
#include "src/support/rng.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#define BEEPMIS_KERNEL_AVX512 1
#else
#define BEEPMIS_KERNEL_AVX512 0
#endif

#if BEEPMIS_KERNEL_AVX512
#include <immintrin.h>

// GCC's _mm512_set1_epi64 expands through _mm512_undefined_epi32 and trips
// -Wmaybe-uninitialized at every inline site (GCC bug 105593). The values
// are fully initialized; silence the false positive for this header.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

namespace beepmis::core::simd {

inline bool have_avx512() noexcept {
  static const bool ok =
      __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512dq") && __builtin_cpu_supports("avx512vl");
  return ok;
}

#define BEEPMIS_AVX512_TARGET \
  __attribute__((target("avx512f,avx512bw,avx512dq,avx512vl")))

/// Lane-wise SplitMix64 finalizer — the vector transcription of
/// sm_avalanche in support/rng.cpp (same constants, via rng.hpp).
BEEPMIS_AVX512_TARGET inline __m512i sm_avalanche_v(__m512i z) noexcept {
  z = _mm512_mullo_epi64(
      _mm512_xor_si512(z, _mm512_srli_epi64(z, 30)),
      _mm512_set1_epi64(static_cast<long long>(support::kSplitMix64Mul1)));
  z = _mm512_mullo_epi64(
      _mm512_xor_si512(z, _mm512_srli_epi64(z, 27)),
      _mm512_set1_epi64(static_cast<long long>(support::kSplitMix64Mul2)));
  return _mm512_xor_si512(z, _mm512_srli_epi64(z, 31));
}

/// support::counter_first_draw_at for eight nodes at once: two avalanches
/// past the round state, then the xoshiro256** starmix of s_[1].
BEEPMIS_AVX512_TARGET inline __m512i first_draw_v(__m512i round_state,
                                                  __m512i node) noexcept {
  const __m512i g =
      _mm512_set1_epi64(static_cast<long long>(support::kSplitMix64Gamma));
  const __m512i key = sm_avalanche_v(
      _mm512_add_epi64(_mm512_xor_si512(round_state, node), g));
  const __m512i s1 =
      sm_avalanche_v(_mm512_add_epi64(key, _mm512_add_epi64(g, g)));
  const __m512i rolled =
      _mm512_rol_epi64(_mm512_mullo_epi64(s1, _mm512_set1_epi64(5)), 7);
  return _mm512_mullo_epi64(rolled, _mm512_set1_epi64(9));
}

/// Phase-1 sweep: counter draws, beep decisions, send bytes, the active
/// beep census, and the coin frontier — decide_packed lane-wise over every
/// vertex. Settled lanes are masked out of the census and can never enter
/// the frontier (members sit at the member level ⇒ prominent, dominated
/// vertices at their cap ⇒ the ℓ < ℓmax gate fails); their send byte is
/// still written, which is harmless — send is per-round scratch only ever
/// read behind a settled == 0 check. Prominence tests use ℓ <= 0, which
/// equals Policy::is_prominent on both admissible level domains (Alg1:
/// ℓ ≤ 0 by definition; Alg2: levels are never negative, so ℓ ≤ 0 ⇔ ℓ = 0).
/// Processes [v_lo, v_hi) with absolute vertex ids; v_lo must be 16-aligned.
template <typename Policy>
BEEPMIS_AVX512_TARGET void decide_sweep_range(
    std::uint64_t round_state, std::size_t v_lo, std::size_t v_hi,
    const std::int32_t* levels, const std::int32_t* lmax,
    const std::uint8_t* settled, beep::ChannelMask* send,
    std::vector<graph::VertexId>& frontier, std::uint32_t* beeps) {
  const __m512i vrs = _mm512_set1_epi64(static_cast<long long>(round_state));
  const __m512i iota64 = _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7);
  const __m512i iota32 =
      _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
  const __m512i zero = _mm512_setzero_si512();
  const __m512i v63q = _mm512_set1_epi64(63);
  const __m512i v64q = _mm512_set1_epi64(64);
  alignas(64) std::uint32_t idx[16];
  std::uint32_t b0 = 0, b1 = 0;
  for (std::size_t v0 = v_lo; v0 < v_hi; v0 += 16) {
    const unsigned rem =
        v_hi - v0 >= 16 ? 16u : static_cast<unsigned>(v_hi - v0);
    const __mmask16 blk =
        rem == 16 ? static_cast<__mmask16>(0xffffu)
                  : static_cast<__mmask16>((1u << rem) - 1u);
    const __m512i lv = _mm512_maskz_loadu_epi32(blk, levels + v0);
    const __m512i lm = _mm512_maskz_loadu_epi32(blk, lmax + v0);
    const __m128i st = _mm_maskz_loadu_epi8(blk, settled + v0);
    const __mmask16 active =
        _mm_mask_cmpeq_epi8_mask(blk, st, _mm_setzero_si128());
    // Counter draws for the block's sixteen nodes, in two u64 halves.
    const __m512i node_lo = _mm512_add_epi64(
        _mm512_set1_epi64(static_cast<long long>(v0)), iota64);
    const __m512i node_hi = _mm512_add_epi64(node_lo, _mm512_set1_epi64(8));
    const __m512i draw_lo = first_draw_v(vrs, node_lo);
    const __m512i draw_hi = first_draw_v(vrs, node_hi);
    // Coin test: top-ℓ bits of the draw all zero, via the same masked shift
    // as decide_packed ((64 - (ℓ & 63)) & 63; garbage lanes are gated off).
    const __m512i k32 = _mm512_and_si512(lv, _mm512_set1_epi32(63));
    const __m512i k_lo = _mm512_cvtepu32_epi64(_mm512_castsi512_si256(k32));
    const __m512i k_hi =
        _mm512_cvtepu32_epi64(_mm512_extracti64x4_epi64(k32, 1));
    const __m512i sh_lo =
        _mm512_and_si512(_mm512_sub_epi64(v64q, k_lo), v63q);
    const __m512i sh_hi =
        _mm512_and_si512(_mm512_sub_epi64(v64q, k_hi), v63q);
    const __mmask8 z_lo =
        _mm512_cmpeq_epi64_mask(_mm512_srlv_epi64(draw_lo, sh_lo), zero);
    const __mmask8 z_hi =
        _mm512_cmpeq_epi64_mask(_mm512_srlv_epi64(draw_hi, sh_hi), zero);
    const __mmask16 top_zero = static_cast<__mmask16>(
        static_cast<unsigned>(z_lo) | (static_cast<unsigned>(z_hi) << 8));
    const __mmask16 lt64 =
        _mm512_cmplt_epi32_mask(lv, _mm512_set1_epi32(64));
    const __mmask16 certain = _mm512_cmple_epi32_mask(lv, zero);
    const __mmask16 ltmax = _mm512_cmplt_epi32_mask(lv, lm);
    const __mmask16 coin =
        top_zero & lt64 & ltmax & static_cast<__mmask16>(~certain);
    // Send bytes: kMemberBeep on certain lanes, channel 1 on coin lanes.
    __m512i m32 =
        _mm512_maskz_mov_epi32(coin, _mm512_set1_epi32(beep::kChannel1));
    m32 = _mm512_mask_mov_epi32(m32, certain,
                                _mm512_set1_epi32(Policy::kMemberBeep));
    _mm_mask_storeu_epi8(send + v0, blk, _mm512_cvtepi32_epi8(m32));
    // Census over active lanes only.
    __mmask16 ch1 = coin;
    if constexpr ((Policy::kMemberBeep & beep::kChannel1) != 0) ch1 |= certain;
    b0 += std::popcount(static_cast<unsigned>(ch1 & active));
    if constexpr (Policy::kChannels > 1) {
      if constexpr ((Policy::kMemberBeep & beep::kChannel2) != 0)
        b1 += std::popcount(static_cast<unsigned>(certain & active));
    }
    // Coin frontier, in ascending vertex order like the indexed loop.
    const __mmask16 f = coin & active;
    if (f != 0) {
      _mm512_mask_compressstoreu_epi32(
          idx, f,
          _mm512_add_epi32(iota32, _mm512_set1_epi32(static_cast<int>(v0))));
      const unsigned cnt = std::popcount(static_cast<unsigned>(f));
      for (unsigned i = 0; i < cnt; ++i) frontier.push_back(idx[i]);
    }
  }
  beeps[0] += b0;
  if constexpr (Policy::kChannels > 1) beeps[1] += b1;
}

/// Phase-2 sweep: heard masks from the prominence counts (the member
/// channel) and the coin bitmask (channel 1, 64 vertices per word, ORed from
/// the coin beepers' rows by the stamp phase), Policy::update_packed as a
/// lane-wise select chain, masked level stores, and compressed harvests of
/// the boundary crossers (dp/dc) and member-settle candidates (sc). The
/// harvested index lists are ascending, matching the indexed loop's append
/// order; the caller derives each crosser's ±1 from the stored post-level.
/// Each index array must hold v_hi - v_lo entries. A non-null `census` (an
/// observed round) gains the active lanes' heard counts and post-update
/// prominent count; null skips that work. v_lo must be 16-aligned (shards
/// are 64-aligned), so each 16-lane block reads one contiguous 16-bit slice
/// of a single mask word.
template <typename Policy>
BEEPMIS_AVX512_TARGET void update_sweep_masked(
    bool half, std::size_t v_lo, std::size_t v_hi, std::int32_t* levels,
    const std::int32_t* lmax, const std::uint8_t* settled,
    const std::uint32_t* prominent_nb, const std::uint64_t* coin_mask,
    const beep::ChannelMask* send, std::uint32_t* dp_idx, std::size_t& dp_n,
    std::uint32_t* dc_idx, std::size_t& dc_n, std::uint32_t* sc_idx,
    std::size_t& sc_n, SparseCensus* census) {
  // The member level is affine in ℓmax for both policies: -ℓmax (Alg1) or 0
  // (Alg2). member_level(1) is the coefficient.
  static_assert(Policy::member_level(1) == -1 || Policy::member_level(1) == 0,
                "vector sweep assumes member_level(l) == member_level(1)*l");
  static_assert(Policy::member_level(7) == 7 * Policy::member_level(1),
                "vector sweep assumes member_level(l) == member_level(1)*l");
  const __m512i iota32 =
      _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
  const __m512i zero = _mm512_setzero_si512();
  const __m512i one = _mm512_set1_epi32(1);
  std::size_t np = 0, nc = 0, ns = 0;
  std::uint32_t heard1 = 0, heard2 = 0, heard_any = 0, prominent = 0;
  for (std::size_t v0 = v_lo; v0 < v_hi; v0 += 16) {
    const unsigned rem =
        v_hi - v0 >= 16 ? 16u : static_cast<unsigned>(v_hi - v0);
    const __mmask16 blk =
        rem == 16 ? static_cast<__mmask16>(0xffffu)
                  : static_cast<__mmask16>((1u << rem) - 1u);
    const __m512i lv = _mm512_maskz_loadu_epi32(blk, levels + v0);
    const __m512i lm = _mm512_maskz_loadu_epi32(blk, lmax + v0);
    const __m128i st = _mm_maskz_loadu_epi8(blk, settled + v0);
    const __mmask16 active =
        _mm_mask_cmpeq_epi8_mask(blk, st, _mm_setzero_si128());
    const __m512i pn = _mm512_maskz_loadu_epi32(blk, prominent_nb + v0);
    __mmask16 hm = _mm512_cmpneq_epi32_mask(pn, zero);
    __mmask16 hc = static_cast<__mmask16>(
                       (coin_mask[v0 >> 6] >> (v0 & 63)) & 0xffffu) &
                   blk;
    const __m128i sb = _mm_maskz_loadu_epi8(blk, send + v0);
    const __mmask16 s1 = _mm_test_epi8_mask(sb, _mm_set1_epi8(1));
    const __mmask16 s2 = _mm_test_epi8_mask(sb, _mm_set1_epi8(2));
    if (half) {
      // A half-duplex beeper hears nothing.
      const __mmask16 quiet = _mm_cmpeq_epi8_mask(sb, _mm_setzero_si128());
      hm &= quiet;
      hc &= quiet;
    }
    __mmask16 h1 = hc;
    __mmask16 h2 = 0;
    if constexpr ((Policy::kMemberBeep & beep::kChannel1) != 0) h1 |= hm;
    if constexpr ((Policy::kMemberBeep & beep::kChannel2) != 0) h2 = hm;
    // update_packed lane-wise. The universal chain works for both policies
    // because "sent channel 1" lands on the member level in both (Alg1:
    // -ℓmax; Alg2: 0) and Alg1 sends/hears nothing on channel 2.
    const __m512i up = _mm512_min_epi32(_mm512_add_epi32(lv, one), lm);
    const __m512i down = _mm512_max_epi32(_mm512_sub_epi32(lv, one), one);
    __m512i memv;
    if constexpr (Policy::member_level(1) == -1)
      memv = _mm512_sub_epi32(zero, lm);
    else
      memv = zero;
    __m512i r = _mm512_mask_blend_epi32(s2, down, lv);
    r = _mm512_mask_blend_epi32(s1, r, memv);
    r = _mm512_mask_blend_epi32(h1, r, up);
    if constexpr (Policy::kChannels > 1)
      r = _mm512_mask_blend_epi32(h2, r, lm);
    _mm512_mask_storeu_epi32(levels + v0, active, r);
    // Boundary crossers and member-settle candidates (ℓ <= 0 ⇔ prominent on
    // admissible domains, as in decide_sweep_range).
    const __mmask16 prom_b = _mm512_cmple_epi32_mask(lv, zero);
    const __mmask16 prom_a = _mm512_cmple_epi32_mask(r, zero);
    const __mmask16 cap_b = _mm512_cmpeq_epi32_mask(lv, lm);
    const __mmask16 cap_a = _mm512_cmpeq_epi32_mask(r, lm);
    const __mmask16 dp = active & (prom_a ^ prom_b);
    const __mmask16 dc = active & (cap_a ^ cap_b);
    const __mmask16 sc = active & _mm512_cmpeq_epi32_mask(r, memv) &
                         _mm512_cmpneq_epi32_mask(r, lv);
    if (census != nullptr) {
      heard1 += std::popcount(static_cast<unsigned>(h1 & active));
      if constexpr (Policy::kChannels > 1) {
        heard2 += std::popcount(static_cast<unsigned>(h2 & active));
        heard_any += std::popcount(static_cast<unsigned>((h1 | h2) & active));
      }
      prominent += std::popcount(static_cast<unsigned>(prom_a & active));
    }
    const __m512i vidx =
        _mm512_add_epi32(iota32, _mm512_set1_epi32(static_cast<int>(v0)));
    if (dp != 0) {
      _mm512_mask_compressstoreu_epi32(dp_idx + np, dp, vidx);
      np += std::popcount(static_cast<unsigned>(dp));
    }
    if (dc != 0) {
      _mm512_mask_compressstoreu_epi32(dc_idx + nc, dc, vidx);
      nc += std::popcount(static_cast<unsigned>(dc));
    }
    if (sc != 0) {
      _mm512_mask_compressstoreu_epi32(sc_idx + ns, sc, vidx);
      ns += std::popcount(static_cast<unsigned>(sc));
    }
  }
  dp_n = np;
  dc_n = nc;
  sc_n = ns;
  if (census != nullptr) {
    census->active_heard[0] += heard1;
    census->active_heard[1] += heard2;
    census->active_heard_any += heard_any;
    census->prominent_active += prominent;
  }
}

/// core::pack_level_bits over words [word_lo, word_hi) of an n-vertex
/// level array: four 16-lane compares per 64-bit word, the last word's
/// lanes past n masked off its loads. Null outputs are skipped.
template <typename Policy>
BEEPMIS_AVX512_TARGET bool pack_level_words(
    const std::int32_t* levels, const std::int32_t* lmax, std::size_t n,
    std::size_t word_lo, std::size_t word_hi, std::uint64_t* capped,
    std::uint64_t* candidate, std::uint64_t* prominent) {
  // The member level is affine in ℓmax (-ℓmax or 0), and prominence is
  // ℓ ≤ 0 (Alg1) or ℓ = 0 (Alg2), on every level, admissible or not.
  static_assert(Policy::member_level(1) == -1 || Policy::member_level(1) == 0,
                "vector pack assumes member_level(l) == member_level(1)*l");
  static_assert(Policy::member_level(7) == 7 * Policy::member_level(1),
                "vector pack assumes member_level(l) == member_level(1)*l");
  static_assert(Policy::is_prominent(0) && !Policy::is_prominent(1) &&
                    Policy::is_prominent(-1) == Policy::is_prominent(-7),
                "vector pack assumes prominence is l <= 0 or l == 0");
  const __m512i zero = _mm512_setzero_si512();
  __mmask16 out_of_range = 0;
  for (std::size_t w = word_lo; w < word_hi; ++w) {
    std::uint64_t cap_bits = 0, member_bits = 0, prom_bits = 0;
    for (unsigned b = 0; b < 4; ++b) {
      const std::size_t v0 = w * 64 + 16 * b;
      if (v0 >= n) break;
      // Lanes past n load as zero and stay off every mask.
      const __mmask16 blk =
          n - v0 >= 16 ? static_cast<__mmask16>(0xffffu)
                       : static_cast<__mmask16>((1u << (n - v0)) - 1u);
      const __m512i lv = _mm512_maskz_loadu_epi32(blk, levels + v0);
      const __m512i lm = _mm512_maskz_loadu_epi32(blk, lmax + v0);
      const __m512i floor =
          Policy::member_level(1) == -1 ? _mm512_sub_epi32(zero, lm) : zero;
      const __mmask16 prom =
          Policy::is_prominent(-1)
              ? _mm512_mask_cmple_epi32_mask(blk, lv, zero)
              : _mm512_mask_cmpeq_epi32_mask(blk, lv, zero);
      cap_bits |= std::uint64_t{_mm512_mask_cmpeq_epi32_mask(blk, lv, lm)}
                  << (16 * b);
      member_bits |=
          std::uint64_t{_mm512_mask_cmpeq_epi32_mask(blk, lv, floor)}
          << (16 * b);
      prom_bits |= std::uint64_t{prom} << (16 * b);
      out_of_range |= _mm512_mask_cmplt_epi32_mask(blk, lv, floor) |
                      _mm512_mask_cmpgt_epi32_mask(blk, lv, lm);
    }
    if (capped != nullptr) capped[w] = cap_bits;
    if (candidate != nullptr) candidate[w] = member_bits;
    if (prominent != nullptr) prominent[w] = prom_bits;
  }
  return out_of_range == 0;
}

#undef BEEPMIS_AVX512_TARGET

}  // namespace beepmis::core::simd

#pragma GCC diagnostic pop

#else  // !BEEPMIS_KERNEL_AVX512

namespace beepmis::core::simd {
inline constexpr bool have_avx512() noexcept { return false; }
}  // namespace beepmis::core::simd

#endif  // BEEPMIS_KERNEL_AVX512
