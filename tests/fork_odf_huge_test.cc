// The §4 "Huge Page Support" extension (ForkMode::kOnDemandHuge): PMD tables are shared too,
// write-protected at the PUD level, and tables COW lazily at two levels.
#include <gtest/gtest.h>

#include "src/mm/range_ops.h"
#include "tests/test_util.h"

namespace odf {
namespace {

class OdfHugeForkTest : public ::testing::Test {
 protected:
  OdfHugeForkTest() : parent_(kernel_.CreateProcess()) {}

  Pte EntryOf(Process& p, Vaddr va, PtLevel level) {
    AddressSpace& as = p.address_space();
    uint64_t* slot = as.walker().FindEntry(as.pgd(), va, level);
    return slot == nullptr ? Pte() : LoadEntry(slot);
  }

  uint32_t ShareCount(FrameId table) {
    return kernel_.allocator().GetMeta(table).pt_share_count.load();
  }

  Kernel kernel_;
  Process& parent_;
};

TEST_F(OdfHugeForkTest, SharesPmdTablesAtPudLevel) {
  Vaddr va = parent_.Mmap(8 * kHugePageSize, kProtRead | kProtWrite);
  FillPattern(parent_, va, 8 * kHugePageSize, 1);
  Pte pud_before = EntryOf(parent_, va, PtLevel::kPud);
  ASSERT_TRUE(pud_before.IsPresent());
  FrameId pmd_table = pud_before.frame();

  VmDeltas fork;
  Process& child = kernel_.Fork(parent_, ForkMode::kOnDemandHuge);
  EXPECT_EQ(EntryOf(child, va, PtLevel::kPud).frame(), pmd_table)
      << "parent and child must reference the same PMD table";
  EXPECT_EQ(ShareCount(pmd_table), 2u);
  EXPECT_FALSE(EntryOf(parent_, va, PtLevel::kPud).IsWritable());
  EXPECT_FALSE(EntryOf(child, va, PtLevel::kPud).IsWritable());
  // The PTE tables below are NOT individually share-counted: the PMD table owns them.
  FrameId pte_table = EntryOf(parent_, va, PtLevel::kPmd).frame();
  EXPECT_EQ(ShareCount(pte_table), 1u);
  EXPECT_EQ(fork.Of(VmCounter::k_pmd_tables_shared), 1u);
  EXPECT_EQ(fork.Of(VmCounter::k_pte_tables_shared), 0u);
}

TEST_F(OdfHugeForkTest, ReadsFlowThroughBothSharedLevels) {
  Vaddr va = parent_.Mmap(4 * kHugePageSize, kProtRead | kProtWrite);
  FillPattern(parent_, va, 4 * kHugePageSize, 2);
  Process& child = kernel_.Fork(parent_, ForkMode::kOnDemandHuge);
  VmDeltas reads;
  ExpectPattern(child, va, 4 * kHugePageSize, 2);
  EXPECT_EQ(reads.Of(VmCounter::k_pmd_table_cow), 0u);
  EXPECT_EQ(reads.Of(VmCounter::k_pte_table_cow), 0u);
}

TEST_F(OdfHugeForkTest, WriteCowsTablesAtTwoLevelsThenThePage) {
  Vaddr va = parent_.Mmap(4 * kHugePageSize, kProtRead | kProtWrite);
  FillPattern(parent_, va, 4 * kHugePageSize, 3);
  Process& child = kernel_.Fork(parent_, ForkMode::kOnDemandHuge);
  FrameId shared_pmd = EntryOf(child, va, PtLevel::kPud).frame();
  FrameId shared_pte = EntryOf(child, va, PtLevel::kPmd).frame();

  VmDeltas child_writes;
  WriteByte(child, va + 5, std::byte{0x5e});
  EXPECT_EQ(child_writes.Of(VmCounter::k_pmd_table_cow), 1u) << "first: the PMD table is copied";
  EXPECT_EQ(child_writes.Of(VmCounter::k_pte_table_cow), 1u)
      << "second: the PTE table is copied";
  EXPECT_EQ(child_writes.Of(VmCounter::k_pgfault_cow_page), 1u)
      << "third: the data page is copied";
  EXPECT_NE(EntryOf(child, va, PtLevel::kPud).frame(), shared_pmd);
  EXPECT_NE(EntryOf(child, va, PtLevel::kPmd).frame(), shared_pte);
  // The parent keeps the old tables, now dedicated.
  EXPECT_EQ(EntryOf(parent_, va, PtLevel::kPud).frame(), shared_pmd);
  EXPECT_EQ(ShareCount(shared_pmd), 1u);
  // Isolation both ways.
  EXPECT_EQ(ReadByte(child, va + 5), std::byte{0x5e});
  ExpectPattern(parent_, va, 4 * kHugePageSize, 3);

  // Writes in a different 2 MiB chunk of the SAME 1 GiB span only copy the PTE table now.
  WriteByte(child, va + kHugePageSize, std::byte{0x11});
  EXPECT_EQ(child_writes.Of(VmCounter::k_pmd_table_cow), 1u);
  EXPECT_EQ(child_writes.Of(VmCounter::k_pte_table_cow), 2u);
}

TEST_F(OdfHugeForkTest, HugeMappingsShareViaPmdTableAndCowWholePages) {
  Vaddr va = parent_.Mmap(4 * kHugePageSize, kProtRead | kProtWrite, /*huge=*/true);
  FillPattern(parent_, va, 2 * kHugePageSize, 4);
  Pte pmd_before = EntryOf(parent_, va, PtLevel::kPmd);
  ASSERT_TRUE(pmd_before.IsHuge());
  FrameId head = pmd_before.frame();

  VmDeltas fork;
  Process& child = kernel_.Fork(parent_, ForkMode::kOnDemandHuge);
  // Unlike kOnDemand, the fork did NOT touch the compound page's refcount — the shared PMD
  // table stands in for it.
  EXPECT_EQ(kernel_.allocator().GetMeta(head).refcount.load(), 1u);
  EXPECT_EQ(fork.Of(VmCounter::k_fork_huge_entries_copied), 0u);

  VmDeltas child_write;
  WriteByte(child, va + 100, std::byte{0x77});
  // The PMD-table dedication takes the compound reference; then the 2 MiB page COWs.
  EXPECT_EQ(child_write.Of(VmCounter::k_pmd_table_cow), 1u);
  EXPECT_EQ(child_write.Of(VmCounter::k_pgfault_cow_huge), 1u);
  EXPECT_EQ(ReadByte(child, va + 100), std::byte{0x77});
  ExpectPattern(parent_, va, 2 * kHugePageSize, 4);
}

TEST_F(OdfHugeForkTest, SoleSharerGetsPudFixup) {
  Vaddr va = parent_.Mmap(kHugePageSize, kProtRead | kProtWrite);
  FillPattern(parent_, va, kHugePageSize, 5);
  Process& child = kernel_.Fork(parent_, ForkMode::kOnDemandHuge);
  WriteByte(child, va, std::byte{1});  // Child dedicates its chain.
  VmDeltas parent_write;
  WriteByte(parent_, va + kPageSize, std::byte{2});
  EXPECT_EQ(parent_write.Of(VmCounter::k_pmd_table_cow), 0u);
  EXPECT_EQ(parent_write.Of(VmCounter::k_pmd_table_fixup), 1u)
      << "sole sharer re-enables the PUD write bit";
  EXPECT_TRUE(EntryOf(parent_, va, PtLevel::kPud).IsWritable());
}

TEST_F(OdfHugeForkTest, PudFixupAfterTheOtherSharerExitedAllocatesNoFrame) {
  Vaddr va = parent_.Mmap(kHugePageSize, kProtRead | kProtWrite);
  FillPattern(parent_, va, kHugePageSize, 5);
  Process& child = kernel_.Fork(parent_, ForkMode::kOnDemandHuge);
  kernel_.Exit(child, 0);  // The parent is now the PMD table's only sharer.
  kernel_.Wait(parent_);
  VmDeltas parent_write;
  WriteByte(parent_, va + kPageSize, std::byte{2});
  EXPECT_EQ(parent_write.Of(VmCounter::k_pmd_table_fixup), 1u);
  EXPECT_EQ(parent_write.Of(VmCounter::k_frames_allocated), 0u)
      << "a table with a single sharer needs no spare copy at either level";
  EXPECT_EQ(ReadByte(parent_, va + kPageSize), std::byte{2});
}

TEST_F(OdfHugeForkTest, UnmapDropsWholePmdTableReference) {
  Vaddr va = parent_.Mmap(8 * kHugePageSize, kProtRead | kProtWrite);
  FillPattern(parent_, va, 8 * kHugePageSize, 6);
  FrameId pmd_table = EntryOf(parent_, va, PtLevel::kPud).frame();
  Process& child = kernel_.Fork(parent_, ForkMode::kOnDemandHuge);
  ASSERT_EQ(ShareCount(pmd_table), 2u);

  VmDeltas unmap;
  child.Munmap(va, 8 * kHugePageSize);
  EXPECT_EQ(ShareCount(pmd_table), 1u);
  EXPECT_EQ(unmap.Of(VmCounter::k_pmd_table_cow), 0u)
      << "a full unmap must drop the span reference without copying";
  ExpectPattern(parent_, va, 8 * kHugePageSize, 6);
}

TEST_F(OdfHugeForkTest, PartialUnmapDedicatesPmdTable) {
  Vaddr va = parent_.Mmap(8 * kHugePageSize, kProtRead | kProtWrite);
  FillPattern(parent_, va, 8 * kHugePageSize, 7);
  Process& child = kernel_.Fork(parent_, ForkMode::kOnDemandHuge);

  VmDeltas unmap;
  child.Munmap(va, 2 * kHugePageSize);  // The rest of the mapping is still live.
  EXPECT_EQ(unmap.Of(VmCounter::k_pmd_table_cow), 1u);
  std::byte probe{0};
  EXPECT_FALSE(child.ReadMemory(va, std::span(&probe, 1)));
  ExpectPattern(child, va + 2 * kHugePageSize, 6 * kHugePageSize, 7);
  ExpectPattern(parent_, va, 8 * kHugePageSize, 7);
}

TEST_F(OdfHugeForkTest, ClassicForkAfterHugeOdfForkStaysCorrect) {
  Vaddr va = parent_.Mmap(2 * kHugePageSize, kProtRead | kProtWrite);
  FillPattern(parent_, va, 2 * kHugePageSize, 8);
  Process& odf_child = kernel_.Fork(parent_, ForkMode::kOnDemandHuge);
  Process& classic_child = kernel_.Fork(parent_, ForkMode::kClassic);
  WriteByte(classic_child, va, std::byte{0xaa});
  WriteByte(parent_, va + kPageSize, std::byte{0xbb});
  ExpectPattern(odf_child, va, 2 * kHugePageSize, 8);
  EXPECT_EQ(ReadByte(classic_child, va), std::byte{0xaa});
}

TEST_F(OdfHugeForkTest, GenerationsOfSharingAndExitsLeakNothing) {
  Vaddr anon = parent_.Mmap(6 * kHugePageSize, kProtRead | kProtWrite);
  Vaddr huge = parent_.Mmap(4 * kHugePageSize, kProtRead | kProtWrite, /*huge=*/true);
  FillPattern(parent_, anon, 6 * kHugePageSize, 9);
  FillPattern(parent_, huge, kHugePageSize, 10);

  Process& c1 = kernel_.Fork(parent_, ForkMode::kOnDemandHuge);
  Process& c2 = kernel_.Fork(c1, ForkMode::kOnDemandHuge);
  Process& c3 = kernel_.Fork(c2, ForkMode::kOnDemand);  // Mixed modes in one lineage.
  WriteByte(c1, anon, std::byte{1});
  WriteByte(c2, huge + 7, std::byte{2});
  WriteByte(c3, anon + 3 * kHugePageSize, std::byte{3});
  ExpectPattern(parent_, anon, 6 * kHugePageSize, 9);
  ExpectPattern(parent_, huge, kHugePageSize, 10);

  kernel_.Exit(parent_, 0);
  kernel_.Exit(c2, 0);
  ExpectPattern(c3, anon + kHugePageSize, kHugePageSize, 9);  // Still served via survivors.
  kernel_.Exit(c1, 0);
  kernel_.Exit(c3, 0);
  EXPECT_TRUE(kernel_.allocator().AllFree());
}

TEST_F(OdfHugeForkTest, InvocationTouchesFarFewerTablesThanOdf) {
  // 4 GiB mapping -> 2048 PTE tables but only 4 PMD tables.
  Vaddr va = parent_.Mmap(4ULL << 30, kProtRead | kProtWrite);
  parent_.address_space().PopulateRange(va, 4ULL << 30);
  VmDeltas fork;
  kernel_.Fork(parent_, ForkMode::kOnDemandHuge);
  EXPECT_EQ(fork.Of(VmCounter::k_pte_tables_shared), 0u);
  EXPECT_LE(fork.Of(VmCounter::k_pmd_tables_shared), 5u);
  EXPECT_GE(fork.Of(VmCounter::k_pmd_tables_shared), 4u);
}

}  // namespace
}  // namespace odf
