#include "src/core/level_bits.hpp"

#include "src/core/fast_engine.hpp"
#include "src/core/kernel_simd.hpp"

namespace beepmis::core {

namespace {

void check_range(std::span<const std::int32_t> levels,
                 std::span<const std::int32_t> lmax, std::size_t word_lo,
                 std::size_t word_hi) {
  BEEPMIS_CHECK(lmax.size() == levels.size() && word_lo <= word_hi &&
                    word_hi <= (levels.size() + 63) / 64,
                "level bits sized for the wrong graph");
}

}  // namespace

template <typename Policy>
bool pack_level_bits_scalar(std::span<const std::int32_t> levels,
                            std::span<const std::int32_t> lmax,
                            std::size_t word_lo, std::size_t word_hi,
                            std::uint64_t* capped, std::uint64_t* candidate,
                            std::uint64_t* prominent) {
  check_range(levels, lmax, word_lo, word_hi);
  const std::size_t n = levels.size();
  bool in_range = true;
  for (std::size_t w = word_lo; w < word_hi; ++w) {
    std::uint64_t cap_bits = 0, member_bits = 0, prom_bits = 0;
    for (std::size_t v = w * 64, k = 0; k < 64 && v < n; ++v, ++k) {
      const std::int32_t floor = Policy::member_level(lmax[v]);
      cap_bits |= std::uint64_t{levels[v] == lmax[v]} << k;
      member_bits |= std::uint64_t{levels[v] == floor} << k;
      prom_bits |= std::uint64_t{Policy::is_prominent(levels[v])} << k;
      in_range &= (levels[v] >= floor) & (levels[v] <= lmax[v]);
    }
    if (capped != nullptr) capped[w] = cap_bits;
    if (candidate != nullptr) candidate[w] = member_bits;
    if (prominent != nullptr) prominent[w] = prom_bits;
  }
  return in_range;
}

template <typename Policy>
bool pack_level_bits(std::span<const std::int32_t> levels,
                     std::span<const std::int32_t> lmax, std::size_t word_lo,
                     std::size_t word_hi, std::uint64_t* capped,
                     std::uint64_t* candidate, std::uint64_t* prominent) {
#if BEEPMIS_KERNEL_AVX512
  if (simd::have_avx512()) {
    check_range(levels, lmax, word_lo, word_hi);
    return simd::pack_level_words<Policy>(levels.data(), lmax.data(),
                                          levels.size(), word_lo, word_hi,
                                          capped, candidate, prominent);
  }
#endif
  return pack_level_bits_scalar<Policy>(levels, lmax, word_lo, word_hi,
                                        capped, candidate, prominent);
}

template bool pack_level_bits<Alg1Policy>(std::span<const std::int32_t>,
                                          std::span<const std::int32_t>,
                                          std::size_t, std::size_t,
                                          std::uint64_t*, std::uint64_t*,
                                          std::uint64_t*);
template bool pack_level_bits<Alg2Policy>(std::span<const std::int32_t>,
                                          std::span<const std::int32_t>,
                                          std::size_t, std::size_t,
                                          std::uint64_t*, std::uint64_t*,
                                          std::uint64_t*);
template bool pack_level_bits_scalar<Alg1Policy>(
    std::span<const std::int32_t>, std::span<const std::int32_t>, std::size_t,
    std::size_t, std::uint64_t*, std::uint64_t*, std::uint64_t*);
template bool pack_level_bits_scalar<Alg2Policy>(
    std::span<const std::int32_t>, std::span<const std::int32_t>, std::size_t,
    std::size_t, std::uint64_t*, std::uint64_t*, std::uint64_t*);

}  // namespace beepmis::core
