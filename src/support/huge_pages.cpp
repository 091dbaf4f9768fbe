#include "src/support/huge_pages.hpp"

#if __has_include(<sys/mman.h>)
#include <sys/mman.h>
#endif

namespace beepmis::support {

HugeExtent huge_extent(std::uintptr_t addr, std::size_t bytes) noexcept {
  const std::size_t lead =
      (kHugePageBytes - addr % kHugePageBytes) % kHugePageBytes;
  if (bytes <= lead) return {};
  const std::size_t length = (bytes - lead) / kHugePageBytes * kHugePageBytes;
  if (length == 0) return {};
  return {lead, length};
}

void advise_huge_pages(const void* data, std::size_t bytes) noexcept {
#ifdef MADV_HUGEPAGE
  const auto addr = reinterpret_cast<std::uintptr_t>(data);
  const HugeExtent e = huge_extent(addr, bytes);
  if (e.length == 0) return;
  // A refusal (EINVAL without THP) leaves the pages small, which is all the
  // advice can change, so the result is deliberately ignored.
  (void)madvise(reinterpret_cast<void*>(addr + e.offset), e.length,
                MADV_HUGEPAGE);
#else
  (void)data;
  (void)bytes;
#endif
}

}  // namespace beepmis::support
