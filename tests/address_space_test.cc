// AddressSpace: mmap/munmap/mremap/mprotect, VMA splitting, demand paging, SEGV detection.
#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace odf {
namespace {

class AddressSpaceTest : public ::testing::Test {
 protected:
  AddressSpaceTest() : p_(kernel_.CreateProcess()) {}

  Kernel kernel_;
  Process& p_;
};

TEST_F(AddressSpaceTest, MmapReturnsPageAlignedDisjointRanges) {
  Vaddr a = p_.Mmap(10000, kProtRead | kProtWrite);
  Vaddr b = p_.Mmap(4096, kProtRead | kProtWrite);
  EXPECT_TRUE(IsPageAligned(a));
  EXPECT_TRUE(IsPageAligned(b));
  EXPECT_TRUE(b >= a + PageAlignUp(10000) || a >= b + kPageSize);
}

TEST_F(AddressSpaceTest, HintIsHonoredWhenFree) {
  Vaddr hint = 0x7000000000;
  Vaddr got = p_.address_space().MapAnonymous(kPageSize, kProtRead | kProtWrite, false, hint);
  EXPECT_EQ(got, hint);
}

TEST_F(AddressSpaceTest, DemandZeroReadsReturnZero) {
  Vaddr va = p_.Mmap(64 * kPageSize, kProtRead | kProtWrite);
  std::vector<std::byte> buffer(64 * kPageSize, std::byte{0xff});
  ASSERT_TRUE(p_.ReadMemory(va, buffer));
  for (std::byte b : buffer) {
    ASSERT_EQ(b, std::byte{0});
  }
}

TEST_F(AddressSpaceTest, WriteReadRoundTrip) {
  Vaddr va = p_.Mmap(1 << 20, kProtRead | kProtWrite);
  FillPattern(p_, va, 1 << 20, 42);
  ExpectPattern(p_, va, 1 << 20, 42);
}

TEST_F(AddressSpaceTest, UnalignedCrossPageAccess) {
  Vaddr va = p_.Mmap(4 * kPageSize, kProtRead | kProtWrite);
  // Write a value straddling a page boundary.
  uint64_t value = 0x1122334455667788ULL;
  p_.StoreU64(va + kPageSize - 3, value);
  EXPECT_EQ(p_.LoadU64(va + kPageSize - 3), value);
}

TEST_F(AddressSpaceTest, AccessOutsideAnyVmaFails) {
  std::byte b{0};
  VmDeltas accesses;
  EXPECT_FALSE(p_.ReadMemory(0xdead0000, std::span(&b, 1)));
  EXPECT_FALSE(p_.WriteMemory(0xdead0000, std::span(&b, 1)));
  EXPECT_EQ(accesses.Of(VmCounter::k_pgfault_segv), 2u);
}

TEST_F(AddressSpaceTest, GuardGapBetweenMappingsFaults) {
  Vaddr a = p_.Mmap(kPageSize, kProtRead | kProtWrite);
  std::byte b{0};
  EXPECT_FALSE(p_.ReadMemory(a + kPageSize, std::span(&b, 1)))
      << "one past the mapping must fault";
}

TEST_F(AddressSpaceTest, WriteToReadOnlyVmaFails) {
  Vaddr va = p_.address_space().MapAnonymous(kPageSize, kProtRead);
  std::byte b{1};
  EXPECT_FALSE(p_.WriteMemory(va, std::span(&b, 1)));
  EXPECT_EQ(ReadByte(p_, va), std::byte{0});
}

TEST_F(AddressSpaceTest, UnmapMakesRangeInaccessible) {
  Vaddr va = p_.Mmap(8 * kPageSize, kProtRead | kProtWrite);
  FillPattern(p_, va, 8 * kPageSize, 1);
  p_.Munmap(va, 8 * kPageSize);
  std::byte b{0};
  EXPECT_FALSE(p_.ReadMemory(va, std::span(&b, 1)));
}

TEST_F(AddressSpaceTest, UnmapMiddleSplitsVma) {
  Vaddr va = p_.Mmap(10 * kPageSize, kProtRead | kProtWrite);
  FillPattern(p_, va, 10 * kPageSize, 2);
  p_.Munmap(va + 4 * kPageSize, 2 * kPageSize);
  ExpectPattern(p_, va, 4 * kPageSize, 2);
  ExpectPattern(p_, va + 6 * kPageSize, 4 * kPageSize, 2);
  std::byte b{0};
  EXPECT_FALSE(p_.ReadMemory(va + 4 * kPageSize, std::span(&b, 1)));
  EXPECT_FALSE(p_.ReadMemory(va + 5 * kPageSize, std::span(&b, 1)));
  EXPECT_EQ(p_.address_space().vmas().size(), 2u);
}

TEST_F(AddressSpaceTest, UnmapReleasesFrames) {
  Vaddr va = p_.Mmap(1 << 20, kProtRead | kProtWrite);
  FillPattern(p_, va, 1 << 20, 3);
  uint64_t allocated = kernel_.allocator().Stats().allocated_frames;
  p_.Munmap(va, 1 << 20);
  EXPECT_LT(kernel_.allocator().Stats().allocated_frames, allocated);
  kernel_.Exit(p_, 0);
  EXPECT_TRUE(kernel_.allocator().AllFree());
}

TEST_F(AddressSpaceTest, RemapShrinkKeepsPrefix) {
  Vaddr va = p_.Mmap(8 * kPageSize, kProtRead | kProtWrite);
  FillPattern(p_, va, 8 * kPageSize, 4);
  Vaddr moved = p_.Mremap(va, 8 * kPageSize, 3 * kPageSize);
  EXPECT_EQ(moved, va);
  ExpectPattern(p_, va, 3 * kPageSize, 4);
  std::byte b{0};
  EXPECT_FALSE(p_.ReadMemory(va + 3 * kPageSize, std::span(&b, 1)));
}

TEST_F(AddressSpaceTest, RemapGrowPreservesContent) {
  Vaddr va = p_.Mmap(4 * kPageSize, kProtRead | kProtWrite);
  FillPattern(p_, va, 4 * kPageSize, 5);
  Vaddr moved = p_.Mremap(va, 4 * kPageSize, 64 * kPageSize);
  // Whether grown in place or moved, the old content must be visible at the new location.
  std::vector<std::byte> buffer(4 * kPageSize);
  ASSERT_TRUE(p_.ReadMemory(moved, buffer));
  for (uint64_t i = 0; i < buffer.size(); ++i) {
    ASSERT_EQ(buffer[i], static_cast<std::byte>((5 * 1099511628211ULL + va + i) >> 5));
  }
  // The growth region is demand-zero.
  EXPECT_EQ(ReadByte(p_, moved + 10 * kPageSize), std::byte{0});
}

TEST_F(AddressSpaceTest, RemapForcedMoveRelocatesEntriesWithoutCopyingData) {
  Vaddr va = p_.Mmap(4 * kPageSize, kProtRead | kProtWrite);
  // Block in-place growth by mapping immediately after.
  p_.address_space().MapAnonymous(kPageSize, kProtRead | kProtWrite, false,
                                  va + 4 * kPageSize + kPageSize);
  FillPattern(p_, va, 4 * kPageSize, 6);
  AddressSpace& as = p_.address_space();
  Translation t = as.walker().Translate(as.pgd(), va, AccessType::kRead);
  ASSERT_EQ(t.status, TranslateStatus::kOk);
  uint64_t materialized = kernel_.allocator().Stats().materialized_bytes;

  Vaddr moved = p_.Mremap(va, 4 * kPageSize, 1 << 20);
  Translation t2 = as.walker().Translate(as.pgd(), moved, AccessType::kRead);
  ASSERT_EQ(t2.status, TranslateStatus::kOk);
  EXPECT_EQ(t2.frame, t.frame) << "mremap must move page-table entries, not copy pages";
  EXPECT_EQ(kernel_.allocator().Stats().materialized_bytes, materialized);
  std::byte b{0};
  EXPECT_FALSE(p_.ReadMemory(va, std::span(&b, 1))) << "old range must be gone";
}

TEST_F(AddressSpaceTest, ProtectDowngradeThenUpgrade) {
  Vaddr va = p_.Mmap(4 * kPageSize, kProtRead | kProtWrite);
  FillPattern(p_, va, 4 * kPageSize, 7);
  p_.address_space().Protect(va, 4 * kPageSize, kProtRead);
  std::byte b{1};
  EXPECT_FALSE(p_.WriteMemory(va, std::span(&b, 1)));
  p_.address_space().Protect(va, 4 * kPageSize, kProtRead | kProtWrite);
  EXPECT_TRUE(p_.WriteMemory(va, std::span(&b, 1)));
  EXPECT_EQ(ReadByte(p_, va), std::byte{1});
}

TEST_F(AddressSpaceTest, ProtectPartialRangeSplitsVma) {
  Vaddr va = p_.Mmap(6 * kPageSize, kProtRead | kProtWrite);
  FillPattern(p_, va, 6 * kPageSize, 8);
  p_.address_space().Protect(va + 2 * kPageSize, 2 * kPageSize, kProtRead);
  EXPECT_EQ(p_.address_space().vmas().size(), 3u);
  std::byte b{1};
  EXPECT_TRUE(p_.WriteMemory(va, std::span(&b, 1)));
  EXPECT_FALSE(p_.WriteMemory(va + 2 * kPageSize, std::span(&b, 1)));
  EXPECT_TRUE(p_.WriteMemory(va + 4 * kPageSize, std::span(&b, 1)));
}

TEST_F(AddressSpaceTest, PopulateRangeMapsEveryPageWithoutData) {
  Vaddr va = p_.Mmap(4 * kHugePageSize, kProtRead | kProtWrite);
  p_.address_space().PopulateRange(va, 4 * kHugePageSize);
  EXPECT_EQ(p_.address_space().CountPresentPtes(), 4 * kEntriesPerTable);
  // Only page tables are real memory — populate must not materialise data pages.
  FrameAllocatorStats stats = kernel_.allocator().Stats();
  EXPECT_EQ(stats.materialized_bytes, stats.page_table_frames * kPageSize);
  EXPECT_EQ(ReadByte(p_, va + 12345), std::byte{0});
}

TEST_F(AddressSpaceTest, MemsetMemoryWorksAcrossPages) {
  Vaddr va = p_.Mmap(3 * kPageSize, kProtRead | kProtWrite);
  ASSERT_TRUE(p_.MemsetMemory(va + 100, std::byte{0x5c}, 2 * kPageSize));
  EXPECT_EQ(ReadByte(p_, va + 100), std::byte{0x5c});
  EXPECT_EQ(ReadByte(p_, va + 100 + 2 * kPageSize - 1), std::byte{0x5c});
  EXPECT_EQ(ReadByte(p_, va + 99), std::byte{0});
  EXPECT_EQ(ReadByte(p_, va + 100 + 2 * kPageSize), std::byte{0});
}

TEST_F(AddressSpaceTest, TeardownFreesEverything) {
  for (int i = 0; i < 5; ++i) {
    Vaddr va = p_.Mmap((static_cast<uint64_t>(i) + 1) * 3 * kPageSize, kProtRead | kProtWrite);
    FillPattern(p_, va, 2 * kPageSize, static_cast<uint64_t>(i));
  }
  kernel_.Exit(p_, 0);
  EXPECT_TRUE(kernel_.allocator().AllFree());
}

}  // namespace
}  // namespace odf
