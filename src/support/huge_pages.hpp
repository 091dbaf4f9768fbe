#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace beepmis::support {

/// Size of a transparent huge page (x86-64, and arm64 with 4 KiB base pages).
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/// The whole kHugePageBytes-aligned extents inside [addr, addr + bytes): the
/// offset of the first one from addr and their total length, a multiple of
/// kHugePageBytes. {0, 0} when the range holds no whole extent.
struct HugeExtent {
  std::size_t offset = 0;
  std::size_t length = 0;
  bool operator==(const HugeExtent&) const = default;
};
HugeExtent huge_extent(std::uintptr_t addr, std::size_t bytes) noexcept;

/// Asks the kernel to back the whole huge-page extents of
/// [data, data + bytes) with transparent huge pages. Advice only: the head
/// and tail partial extents stay on base pages, a host whose THP mode is
/// `never` (or that lacks THP) keeps every page small, and `always` already
/// backs them. A no-op where the platform has no such advice.
void advise_huge_pages(const void* data, std::size_t bytes) noexcept;

/// Reserves room for n elements in `v` and advises its storage onto huge
/// pages before anything touches it, so the first-touch faults of a
/// following assign/resize map 2 MiB pages instead of 4 KiB ones. size() is
/// unchanged and capacity() is at least n, exactly as after v.reserve(n);
/// only page placement moves, never a value. For the n-sized arrays that
/// rounds read at random, where every miss would otherwise also pay a
/// 4 KiB-page walk.
template <typename T>
void reserve_huge(std::vector<T>& v, std::size_t n) {
  v.reserve(n);
  advise_huge_pages(v.data(), v.capacity() * sizeof(T));
}

}  // namespace beepmis::support
