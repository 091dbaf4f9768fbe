#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "src/support/check.hpp"

namespace beepmis::core {

/// The one implementation of Engine::pack_levels over level and cap
/// arrays: bit v % 64 of word v / 64 of `capped` is ℓ(v) = ℓmax(v), of
/// `candidate` is ℓ(v) = member_of(ℓmax(v)); bits past n are zero. Returns
/// whether every ℓ(v) lies in [member_of(ℓmax(v)), ℓmax(v)]. One
/// sequential pass.
template <typename MemberOf>
bool pack_level_bits(std::span<const std::int32_t> levels,
                     std::span<const std::int32_t> lmax, MemberOf member_of,
                     std::span<std::uint64_t> capped,
                     std::span<std::uint64_t> candidate) {
  const std::size_t n = levels.size();
  BEEPMIS_CHECK(lmax.size() == n && capped.size() == (n + 63) / 64 &&
                    candidate.size() == capped.size(),
                "level bits sized for the wrong graph");
  bool in_range = true;
  for (std::size_t w = 0; w < capped.size(); ++w) {
    std::uint64_t cap_bits = 0, member_bits = 0;
    for (std::size_t v = w * 64, k = 0; k < 64 && v < n; ++v, ++k) {
      const std::int32_t floor = member_of(lmax[v]);
      cap_bits |= std::uint64_t{levels[v] == lmax[v]} << k;
      member_bits |= std::uint64_t{levels[v] == floor} << k;
      in_range &= (levels[v] >= floor) & (levels[v] <= lmax[v]);
    }
    capped[w] = cap_bits;
    candidate[w] = member_bits;
  }
  return in_range;
}

}  // namespace beepmis::core
