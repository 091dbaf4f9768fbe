#include "src/support/huge_pages.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace beepmis::support {
namespace {

constexpr std::uintptr_t kH = kHugePageBytes;

TEST(HugeExtent, RangeUnderOneHugePageHoldsNone) {
  EXPECT_EQ(huge_extent(0, kH - 1), HugeExtent{});
  EXPECT_EQ(huge_extent(16, kH), HugeExtent{});
  // Straddling a boundary without covering a whole extent on either side.
  EXPECT_EQ(huge_extent(kH - 4096, kH), HugeExtent{});
}

TEST(HugeExtent, UnalignedStartSkipsToTheNextBoundary) {
  // A malloc'd mmap block starts 16 bytes past a page: the head up to the
  // first 2 MiB boundary and the partial tail stay on base pages.
  const std::uintptr_t addr = 3 * kH + 16;
  EXPECT_EQ(huge_extent(addr, 3 * kH), (HugeExtent{kH - 16, 2 * kH}));
  EXPECT_EQ(huge_extent(addr, 2 * kH - 16), (HugeExtent{kH - 16, kH}));
  EXPECT_EQ(huge_extent(addr, 2 * kH - 17), HugeExtent{});
}

TEST(HugeExtent, ExactlyAlignedBufferIsWhollyCovered) {
  EXPECT_EQ(huge_extent(5 * kH, kH), (HugeExtent{0, kH}));
  EXPECT_EQ(huge_extent(5 * kH, 4 * kH), (HugeExtent{0, 4 * kH}));
  EXPECT_EQ(huge_extent(5 * kH, 4 * kH + 100), (HugeExtent{0, 4 * kH}));
}

TEST(HugeExtent, ZeroLengthHoldsNone) {
  EXPECT_EQ(huge_extent(0, 0), HugeExtent{});
  EXPECT_EQ(huge_extent(kH + 8, 0), HugeExtent{});
}

TEST(ReserveHuge, ActsLikeReserve) {
  std::vector<std::uint32_t> empty;
  reserve_huge(empty, 3 * kH);  // 12 MiB: several whole extents
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_GE(empty.capacity(), 3 * kH);
  empty.assign(3 * kH, 7u);
  EXPECT_EQ(empty.front(), 7u);
  EXPECT_EQ(empty.back(), 7u);

  // Growing a filled vector keeps its elements; a smaller n never shrinks.
  std::vector<std::uint64_t> filled = {1, 2, 3};
  reserve_huge(filled, kH);
  EXPECT_EQ(filled, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_GE(filled.capacity(), kH);
  const std::size_t cap = filled.capacity();
  reserve_huge(filled, 2);
  EXPECT_EQ(filled.capacity(), cap);
  EXPECT_EQ(filled.size(), 3u);

  std::vector<char> none;
  reserve_huge(none, 0);
  EXPECT_EQ(none.size(), 0u);
}

}  // namespace
}  // namespace beepmis::support
