#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "src/support/check.hpp"

namespace beepmis::core {

/// The level-bit layer: the per-vertex level predicates of the paper's
/// state space (arXiv 2405.04266, Section 2) that every invariant check and
/// the round kernel's rebuild read, 64 vertices to a word. Under Policy's
/// level encoding, bit v % 64 of word v / 64 is
///   capped     ℓ(v) = ℓmax(v);
///   candidate  ℓ(v) = Policy::member_level(ℓmax(v)), the member level
///              (-ℓmax for Algorithm 1, 0 for Algorithm 2);
///   prominent  Policy::is_prominent(ℓ(v)) (ℓ ≤ 0, resp. ℓ = 0);
/// bits past n are zero. Fills words [word_lo, word_hi) of each non-null
/// array (indexed by absolute word) from those words' vertices alone, and
/// returns whether every such ℓ(v) lies in [member level, ℓmax(v)]. Runs an
/// AVX-512 compare-to-mask body (kernel_simd.hpp) where the CPU has one and
/// pack_level_bits_scalar elsewhere; both write identical words. Packing
/// the capped and candidate words of n = 2^20 vertices (8 MiB of levels and
/// caps) takes about 0.55 ms on the vector body and 3.4–5.4 ms on the
/// scalar loop (RelWithDebInfo, 4-CPU AVX-512 host, median of 51 calls).
template <typename Policy>
bool pack_level_bits(std::span<const std::int32_t> levels,
                     std::span<const std::int32_t> lmax, std::size_t word_lo,
                     std::size_t word_hi, std::uint64_t* capped,
                     std::uint64_t* candidate, std::uint64_t* prominent);

/// pack_level_bits as one shift-or loop per vertex: the fallback before
/// AVX-512, and the oracle the tests hold the vector body to.
template <typename Policy>
bool pack_level_bits_scalar(std::span<const std::int32_t> levels,
                            std::span<const std::int32_t> lmax,
                            std::size_t word_lo, std::size_t word_hi,
                            std::uint64_t* capped, std::uint64_t* candidate,
                            std::uint64_t* prominent);

// Both templates are instantiated for Alg1Policy and Alg2Policy in
// level_bits.cpp.

/// Engine::pack_levels: the capped and candidate words of every vertex.
template <typename Policy>
bool pack_level_bits(std::span<const std::int32_t> levels,
                     std::span<const std::int32_t> lmax,
                     std::span<std::uint64_t> capped,
                     std::span<std::uint64_t> candidate) {
  BEEPMIS_CHECK(capped.size() == (levels.size() + 63) / 64 &&
                    candidate.size() == capped.size(),
                "level bits sized for the wrong graph");
  return pack_level_bits<Policy>(levels, lmax, 0, capped.size(),
                                 capped.data(), candidate.data(), nullptr);
}

}  // namespace beepmis::core
