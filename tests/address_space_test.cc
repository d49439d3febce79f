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

// A huge VMA populates one zero-fill compound per 2 MiB at the PMD level, writable, so the
// first write takes no fault; populating again installs nothing.
TEST_F(AddressSpaceTest, PopulateHugeRangeInstallsCompounds) {
  AddressSpace& as = p_.address_space();
  Vaddr va = p_.Mmap(2 * kHugePageSize, kProtRead | kProtWrite, /*huge=*/true);
  as.PopulateRange(va, 2 * kHugePageSize);
  EXPECT_EQ(as.CountPresentPtes(), 2 * kEntriesPerTable);
  uint64_t allocated = kernel_.allocator().Stats().allocated_frames;
  as.PopulateRange(va, 2 * kHugePageSize);
  EXPECT_EQ(kernel_.allocator().Stats().allocated_frames, allocated);

  VmDeltas deltas;
  WriteByte(p_, va + kHugePageSize + 5, std::byte{0x42});
  EXPECT_EQ(ReadByte(p_, va + kHugePageSize + 5), std::byte{0x42});
  EXPECT_EQ(ReadByte(p_, va), std::byte{0});
  EXPECT_EQ(deltas.Of(VmCounter::k_pgfault_demand_zero), 0u);
  EXPECT_EQ(p_.Mincore(va, kPageSize), std::vector<uint8_t>{1});
  p_.Munmap(va, kHugePageSize);  // Splits the VMA at a 2 MiB boundary.
  EXPECT_EQ(as.CountPresentPtes(), kEntriesPerTable);
  kernel_.Exit(p_, 0);
  EXPECT_TRUE(kernel_.allocator().AllFree());
}

// A file-backed VMA populates its page-cache pages as the file fault does, but counts no
// fault: a page already mapped is skipped, a shared writable mapping is writable at once
// and a private one still COWs on its first write.
TEST_F(AddressSpaceTest, PopulateFileRangeMapsThePageCache) {
  AddressSpace& as = p_.address_space();
  auto file = kernel_.fs().Open("/populate");
  std::vector<std::byte> data(3 * kPageSize, std::byte{0x7a});
  file->Write(0, data);
  Vaddr shared = as.MapFile(file, 0, 3 * kPageSize, kProtRead | kProtWrite, /*shared=*/true);
  Vaddr priv = as.MapFile(file, 0, 3 * kPageSize, kProtRead | kProtWrite, /*shared=*/false);
  EXPECT_EQ(ReadByte(p_, shared + kPageSize), std::byte{0x7a});

  VmDeltas populate;
  as.PopulateRange(shared, 3 * kPageSize);
  as.PopulateRange(priv, 3 * kPageSize);
  EXPECT_EQ(populate.Of(VmCounter::k_pgfault_file), 0u);
  EXPECT_EQ(as.CountPresentPtes(), 6u);

  VmDeltas writes;
  WriteByte(p_, shared, std::byte{1});
  EXPECT_EQ(writes.Of(VmCounter::k_pgfault_cow_page), 0u);
  WriteByte(p_, priv + 2 * kPageSize, std::byte{2});
  EXPECT_EQ(writes.Of(VmCounter::k_pgfault_cow_page), 1u);
  EXPECT_EQ(ReadByte(p_, priv), std::byte{1}) << "the shared write reached the page cache";
  std::byte cached{0};
  file->Read(2 * kPageSize, std::span(&cached, 1));
  EXPECT_EQ(cached, std::byte{0x7a}) << "the private write stayed private";
  kernel_.Exit(p_, 0);
}

// Mincore over a chunk with no table reports 0, over a present one 1; the walk skips an
// absent PMD entry inside a populated upper table.
TEST_F(AddressSpaceTest, MincoreSkipsChunksWithoutATable) {
  Vaddr va = p_.Mmap(3 * kHugePageSize, kProtRead | kProtWrite);
  Vaddr chunk = (va + kHugePageSize) & ~(kHugePageSize - 1);
  WriteByte(p_, chunk - kPageSize, std::byte{1});
  std::vector<uint8_t> residency = p_.Mincore(chunk - kPageSize, 2 * kPageSize);
  EXPECT_EQ(residency, (std::vector<uint8_t>{1, 0}));
}

// mmap placement: a hint past the end of the user range is ignored, and the cursor skips a
// mapping placed just ahead of it.
TEST_F(AddressSpaceTest, PlacementSkipsHintsOutOfRangeAndCollidingMappings) {
  AddressSpace& as = p_.address_space();
  Vaddr hint = kUserAddressSpaceEnd - kPageSize;
  Vaddr got = as.MapAnonymous(2 * kPageSize, kProtRead | kProtWrite, false, hint);
  EXPECT_NE(got, hint);
  EXPECT_LE(got + 2 * kPageSize, kUserAddressSpaceEnd);

  Vaddr a = p_.Mmap(kPageSize, kProtRead | kProtWrite);
  Vaddr blocker = as.MapAnonymous(kPageSize, kProtRead | kProtWrite, false, a + 4 * kPageSize);
  ASSERT_EQ(blocker, a + 4 * kPageSize);
  Vaddr big = p_.Mmap(16 * kPageSize, kProtRead | kProtWrite);
  EXPECT_GE(big, blocker + 2 * kPageSize);
}

// mremap to the same length is a no-op that keeps the mapping where it is.
TEST_F(AddressSpaceTest, RemapToTheSameLengthKeepsTheMapping) {
  Vaddr va = p_.Mmap(4 * kPageSize, kProtRead | kProtWrite);
  FillPattern(p_, va, 4 * kPageSize, 9);
  EXPECT_EQ(p_.Mremap(va, 4 * kPageSize, 4 * kPageSize), va);
  ExpectPattern(p_, va, 4 * kPageSize, 9);
}

// MADV_DONTNEED over a whole huge mapping drops the compound; the next read demand-faults
// a fresh zero compound.
TEST_F(AddressSpaceTest, DontNeedOnAHugeMappingDropsTheCompound) {
  Vaddr va = p_.Mmap(kHugePageSize, kProtRead | kProtWrite, /*huge=*/true);
  WriteByte(p_, va + 7, std::byte{7});
  p_.MadviseDontNeed(va, kHugePageSize);
  EXPECT_EQ(ReadByte(p_, va + 7), std::byte{0});
  kernel_.Exit(p_, 0);
  EXPECT_TRUE(kernel_.allocator().AllFree());
}

// mprotect of part of a file mapping splits it; the tail keeps its file offset.
TEST_F(AddressSpaceTest, ProtectSplitsAFileMappingAtItsOffset) {
  auto file = kernel_.fs().Open("/split");
  std::vector<std::byte> data(4 * kPageSize);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(i / kPageSize + 1);
  }
  file->Write(0, data);
  AddressSpace& as = p_.address_space();
  Vaddr va = as.MapFile(file, 0, 4 * kPageSize, kProtRead | kProtWrite, /*shared=*/false);
  as.Protect(va + 2 * kPageSize, 2 * kPageSize, kProtRead);
  EXPECT_EQ(as.vmas().size(), 2u);
  EXPECT_EQ(ReadByte(p_, va + 3 * kPageSize), std::byte{4});
  std::byte b{9};
  EXPECT_FALSE(p_.WriteMemory(va + 3 * kPageSize, std::span(&b, 1)));
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
