// §3.3: unmapping and remapping regions whose PTE tables are shared via on-demand-fork.
#include <gtest/gtest.h>

#include "src/mm/range_ops.h"
#include "tests/test_util.h"

namespace odf {
namespace {

class SharedTableUnmapTest : public ::testing::Test {
 protected:
  SharedTableUnmapTest() : parent_(kernel_.CreateProcess()) {}

  FrameId PteTableOf(Process& p, Vaddr va) {
    AddressSpace& as = p.address_space();
    uint64_t* pmd = as.walker().FindEntry(as.pgd(), va, PtLevel::kPmd);
    if (pmd == nullptr) {
      return kInvalidFrame;
    }
    Pte entry = LoadEntry(pmd);
    return entry.IsPresent() && !entry.IsHuge() ? entry.frame() : kInvalidFrame;
  }

  uint32_t ShareCount(FrameId table) {
    return kernel_.allocator().GetMeta(table).pt_share_count.load();
  }

  Kernel kernel_;
  Process& parent_;
};

TEST_F(SharedTableUnmapTest, UnmapWholeRegionDropsShareWithoutCopy) {
  Vaddr va = parent_.Mmap(2 * kHugePageSize, kProtRead | kProtWrite);
  FillPattern(parent_, va, 2 * kHugePageSize, 1);
  FrameId table = PteTableOf(parent_, va);
  Process& child = kernel_.Fork(parent_, ForkMode::kOnDemand);
  ASSERT_EQ(ShareCount(table), 2u);

  VmDeltas unmap;
  child.Munmap(va, 2 * kHugePageSize);
  EXPECT_EQ(ShareCount(table), 1u) << "full unmap only clears the PMD reference (§3.3)";
  EXPECT_EQ(unmap.Of(VmCounter::k_pte_table_cow), 0u);
  ExpectPattern(parent_, va, 2 * kHugePageSize, 1);  // Parent view must be intact.
}

TEST_F(SharedTableUnmapTest, PartialUnmapWithLiveNeighborCopiesTableFirst) {
  // Two VMAs inside one 2 MiB chunk: [0, 1MiB) and [1MiB+gap...]. Build them with hints so
  // they land in the same PTE-table span.
  AddressSpace& as = parent_.address_space();
  Vaddr base = 0x40000000;  // 2 MiB-aligned.
  Vaddr a = as.MapAnonymous(256 * kPageSize, kProtRead | kProtWrite, false, base);
  Vaddr b = as.MapAnonymous(4 * kPageSize, kProtRead | kProtWrite, false,
                            base + 300 * kPageSize);
  ASSERT_EQ(a, base);
  ASSERT_EQ(b, base + 300 * kPageSize);
  FillPattern(parent_, a, 256 * kPageSize, 2);
  FillPattern(parent_, b, 4 * kPageSize, 3);
  FrameId table = PteTableOf(parent_, a);
  ASSERT_EQ(table, PteTableOf(parent_, b)) << "both VMAs must share one PTE table";

  Process& child = kernel_.Fork(parent_, ForkMode::kOnDemand);
  ASSERT_EQ(ShareCount(table), 2u);

  // Child unmaps VMA `a` only; VMA `b` still needs its entries -> the table must be COWed
  // for the child before zapping (§3.3).
  VmDeltas unmap;
  child.Munmap(a, 256 * kPageSize);
  EXPECT_EQ(unmap.Of(VmCounter::k_pte_table_cow), 1u);
  EXPECT_EQ(ShareCount(table), 1u);
  ExpectPattern(child, b, 4 * kPageSize, 3);
  ExpectPattern(parent_, a, 256 * kPageSize, 2);
  std::byte byte_buf{0};
  EXPECT_FALSE(child.ReadMemory(a, std::span(&byte_buf, 1)));
}

TEST_F(SharedTableUnmapTest, PartialUnmapWithoutLiveNeighborJustDropsReference) {
  AddressSpace& as = parent_.address_space();
  Vaddr base = 0x40000000;
  Vaddr a = as.MapAnonymous(512 * kPageSize, kProtRead | kProtWrite, false, base);
  ASSERT_EQ(a, base);
  FillPattern(parent_, a, 512 * kPageSize, 4);
  FrameId table = PteTableOf(parent_, a);

  Process& child = kernel_.Fork(parent_, ForkMode::kOnDemand);
  // Unmap only half the VMA — but the rest of the chunk has no other VMA in the child after
  // this unmap... it does: the un-unmapped half of `a` remains. So a copy is required.
  VmDeltas unmap;
  child.Munmap(a, 256 * kPageSize);
  EXPECT_EQ(unmap.Of(VmCounter::k_pte_table_cow), 1u);
  ExpectPattern(child, a + 256 * kPageSize, 256 * kPageSize, 4);
  ExpectPattern(parent_, a, 512 * kPageSize, 4);

  // Now unmap the remaining half: nothing else lives in the chunk; the dedicated table is
  // simply released.
  child.Munmap(a + 256 * kPageSize, 256 * kPageSize);
  EXPECT_EQ(ShareCount(table), 1u);
  ExpectPattern(parent_, a, 512 * kPageSize, 4);
}

TEST_F(SharedTableUnmapTest, MremapMoveDedicatesSharedTables) {
  Vaddr va = parent_.Mmap(kHugePageSize, kProtRead | kProtWrite);
  FillPattern(parent_, va, kHugePageSize, 5);
  FrameId table = PteTableOf(parent_, va);
  Process& child = kernel_.Fork(parent_, ForkMode::kOnDemand);
  ASSERT_EQ(ShareCount(table), 2u);

  // Force a move by growing beyond what fits in place (another mapping blocks growth).
  child.address_space().MapAnonymous(kPageSize, kProtRead | kProtWrite, false,
                                     va + kHugePageSize + kPageSize);
  Vaddr moved = child.Mremap(va, kHugePageSize, 2 * kHugePageSize);
  EXPECT_NE(moved, va);
  EXPECT_EQ(ShareCount(table), 1u) << "remap must COW the shared table first (§3.3)";
  // The moved range carries the content written at the OLD addresses.
  std::vector<std::byte> buffer(kHugePageSize);
  ASSERT_TRUE(child.ReadMemory(moved, buffer));
  for (uint64_t i = 0; i < buffer.size(); ++i) {
    ASSERT_EQ(buffer[i], static_cast<std::byte>((5 * 1099511628211ULL + va + i) >> 5));
  }
  ExpectPattern(parent_, va, kHugePageSize, 5);  // Parent unaffected by child mremap.

  // Writes through the moved mapping stay private.
  WriteByte(child, moved, std::byte{0xee});
  ExpectPattern(parent_, va, kHugePageSize, 5);
}

TEST_F(SharedTableUnmapTest, UnmapInParentLeavesChildIntact) {
  Vaddr va = parent_.Mmap(2 * kHugePageSize, kProtRead | kProtWrite);
  FillPattern(parent_, va, 2 * kHugePageSize, 6);
  Process& child = kernel_.Fork(parent_, ForkMode::kOnDemand);
  parent_.Munmap(va, 2 * kHugePageSize);
  ExpectPattern(child, va, 2 * kHugePageSize, 6);
  WriteByte(child, va, std::byte{1});
  EXPECT_EQ(ReadByte(child, va), std::byte{1});
}

TEST_F(SharedTableUnmapTest, ExitWithSharedTablesLeaksNothing) {
  Vaddr va = parent_.Mmap(3 * kHugePageSize, kProtRead | kProtWrite);
  FillPattern(parent_, va, 3 * kHugePageSize, 7);
  Process& c1 = kernel_.Fork(parent_, ForkMode::kOnDemand);
  Process& c2 = kernel_.Fork(c1, ForkMode::kOnDemand);
  WriteByte(c2, va, std::byte{1});
  c1.Munmap(va, kHugePageSize);
  kernel_.Exit(c2, 0);
  kernel_.Exit(c1, 0);
  kernel_.Exit(parent_, 0);
  EXPECT_TRUE(kernel_.allocator().AllFree());
}

// The last sharer to drop a PMD table that still maps something releases all of it: the
// huge page's reference directly and, transitively, each PTE table and its pages. Every
// in-tree path zaps a table's entries before its last drop unless a concurrent sharer's
// drop interleaves, so the state is built here by hand.
TEST(DropPmdTableReferenceTest, LastDropReleasesTheEntriesItStillHolds) {
  FrameAllocator allocator;
  FrameId pmd = AllocPageTable(allocator);
  FrameId pte = AllocPageTable(allocator);
  FrameId page = allocator.Allocate(kPageFlagAnon);
  FrameId head = allocator.AllocateCompound(kPageFlagAnon);
  StoreEntry(&allocator.TableEntries(pte)[3], Pte::Make(page, kPtePresent | kPteUser));
  StoreEntry(&allocator.TableEntries(pmd)[0],
             Pte::Make(pte, kPtePresent | kPteWritable | kPteUser));
  StoreEntry(&allocator.TableEntries(pmd)[1],
             Pte::Make(head, kPtePresent | kPteUser | kPteHuge));
  allocator.IncPtShare(pmd);  // A second sharer.

  EXPECT_FALSE(DropPmdTableReference(allocator, nullptr, pmd));
  EXPECT_TRUE(LoadEntry(&allocator.TableEntries(pmd)[1]).IsPresent());
  EXPECT_TRUE(DropPmdTableReference(allocator, nullptr, pmd));
  PtEpoch::Global().Drain();
  EXPECT_TRUE(allocator.AllFree());
}

}  // namespace
}  // namespace odf
