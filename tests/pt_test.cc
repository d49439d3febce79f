// Tests for PTE encoding, address geometry, the software walker, and the TLB.
#include <gtest/gtest.h>

#include <array>

#include "src/phys/frame_allocator.h"
#include "src/pt/geometry.h"
#include "src/pt/pte.h"
#include "src/pt/tlb.h"
#include "src/pt/walker.h"
#include "src/trace/metrics.h"

namespace odf {
namespace {

TEST(PteTest, EncodingRoundTrips) {
  Pte entry = Pte::Make(0x12345, kPtePresent | kPteWritable | kPteUser);
  EXPECT_TRUE(entry.IsPresent());
  EXPECT_TRUE(entry.IsWritable());
  EXPECT_TRUE(entry.IsUser());
  EXPECT_FALSE(entry.IsAccessed());
  EXPECT_FALSE(entry.IsDirty());
  EXPECT_FALSE(entry.IsHuge());
  EXPECT_EQ(entry.frame(), 0x12345u);
}

TEST(PteTest, FlagManipulation) {
  Pte entry = Pte::Make(7, kPtePresent);
  entry = entry.WithFlag(kPteAccessed).WithFlag(kPteDirty);
  EXPECT_TRUE(entry.IsAccessed());
  EXPECT_TRUE(entry.IsDirty());
  entry = entry.WithoutFlag(kPteDirty);
  EXPECT_FALSE(entry.IsDirty());
  EXPECT_EQ(entry.frame(), 7u);
  entry = entry.WithFrame(42);
  EXPECT_EQ(entry.frame(), 42u);
  EXPECT_TRUE(entry.IsAccessed()) << "changing the frame must preserve flags";
}

TEST(GeometryTest, LevelShifts) {
  EXPECT_EQ(EntryShift(PtLevel::kPte), 12u);
  EXPECT_EQ(EntryShift(PtLevel::kPmd), 21u);
  EXPECT_EQ(EntryShift(PtLevel::kPud), 30u);
  EXPECT_EQ(EntryShift(PtLevel::kPgd), 39u);
  EXPECT_EQ(EntrySpan(PtLevel::kPmd), 2ULL << 20);
  EXPECT_EQ(kPteTableSpan, 2ULL << 20);
}

TEST(GeometryTest, TableIndexDecomposition) {
  // va = PGD:1, PUD:2, PMD:3, PTE:4, offset 5.
  Vaddr va = (1ULL << 39) | (2ULL << 30) | (3ULL << 21) | (4ULL << 12) | 5;
  EXPECT_EQ(TableIndex(va, PtLevel::kPgd), 1u);
  EXPECT_EQ(TableIndex(va, PtLevel::kPud), 2u);
  EXPECT_EQ(TableIndex(va, PtLevel::kPmd), 3u);
  EXPECT_EQ(TableIndex(va, PtLevel::kPte), 4u);
  EXPECT_EQ(EntryBase(va, PtLevel::kPmd), va & ~((2ULL << 20) - 1));
}

class WalkerTest : public ::testing::Test {
 protected:
  WalkerTest() : walker_(&allocator_), pgd_(AllocPageTable(allocator_)) {}

  FrameAllocator allocator_;
  Walker walker_;
  FrameId pgd_;
};

TEST_F(WalkerTest, TranslateFailsOnEmptyTables) {
  Translation t = walker_.Translate(pgd_, 0x400000, AccessType::kRead);
  EXPECT_EQ(t.status, TranslateStatus::kNotPresent);
  EXPECT_EQ(t.fault_level, PtLevel::kPgd);
}

TEST_F(WalkerTest, EnsureEntryBuildsIntermediateTables) {
  Vaddr va = 0x12345000;
  uint64_t* slot = walker_.EnsureEntry(pgd_, va, PtLevel::kPte);
  ASSERT_NE(slot, nullptr);
  EXPECT_FALSE(LoadEntry(slot).IsPresent());
  // 3 intermediate tables (PUD, PMD, PTE) plus the PGD.
  EXPECT_EQ(allocator_.Stats().page_table_frames, 4u);
  // Second call must not allocate more.
  uint64_t* again = walker_.EnsureEntry(pgd_, va, PtLevel::kPte);
  EXPECT_EQ(slot, again);
  EXPECT_EQ(allocator_.Stats().page_table_frames, 4u);
}

TEST_F(WalkerTest, TranslateReadAndWriteSucceedOnMappedPage) {
  Vaddr va = 0x200000;
  uint64_t* slot = walker_.EnsureEntry(pgd_, va, PtLevel::kPte);
  FrameId frame = allocator_.Allocate(kPageFlagAnon);
  StoreEntry(slot, Pte::Make(frame, kPtePresent | kPteWritable | kPteUser));

  Translation read = walker_.Translate(pgd_, va + 123, AccessType::kRead);
  EXPECT_EQ(read.status, TranslateStatus::kOk);
  EXPECT_EQ(read.frame, frame);
  EXPECT_FALSE(read.huge);

  Translation write = walker_.Translate(pgd_, va, AccessType::kWrite);
  EXPECT_EQ(write.status, TranslateStatus::kOk);
  EXPECT_TRUE(LoadEntry(slot).IsDirty()) << "write translation must set the dirty bit";
}

TEST_F(WalkerTest, TranslateSetsAccessedBitsAtEveryLevel) {
  Vaddr va = 0x200000;
  uint64_t* pte_slot = walker_.EnsureEntry(pgd_, va, PtLevel::kPte);
  FrameId frame = allocator_.Allocate(kPageFlagAnon);
  StoreEntry(pte_slot, Pte::Make(frame, kPtePresent | kPteUser));

  ASSERT_EQ(walker_.Translate(pgd_, va, AccessType::kRead).status, TranslateStatus::kOk);
  for (PtLevel level : {PtLevel::kPgd, PtLevel::kPud, PtLevel::kPmd, PtLevel::kPte}) {
    uint64_t* slot = walker_.FindEntry(pgd_, va, level);
    ASSERT_NE(slot, nullptr);
    EXPECT_TRUE(LoadEntry(slot).IsAccessed()) << "level " << static_cast<int>(level);
  }
}

TEST_F(WalkerTest, HierarchicalWriteProtectionAtPmdBlocksWrites) {
  Vaddr va = 0x200000;
  uint64_t* pte_slot = walker_.EnsureEntry(pgd_, va, PtLevel::kPte);
  FrameId frame = allocator_.Allocate(kPageFlagAnon);
  StoreEntry(pte_slot, Pte::Make(frame, kPtePresent | kPteWritable | kPteUser));

  // Clear the writable bit at the PMD level only — the ODF write-protection mechanism.
  uint64_t* pmd_slot = walker_.FindEntry(pgd_, va, PtLevel::kPmd);
  ASSERT_NE(pmd_slot, nullptr);
  StoreEntry(pmd_slot, LoadEntry(pmd_slot).WithoutFlag(kPteWritable));

  EXPECT_EQ(walker_.Translate(pgd_, va, AccessType::kRead).status, TranslateStatus::kOk)
      << "reads must pass through a write-protected PMD";
  Translation write = walker_.Translate(pgd_, va, AccessType::kWrite);
  EXPECT_EQ(write.status, TranslateStatus::kNotWritable);
  EXPECT_EQ(write.fault_level, PtLevel::kPmd)
      << "the fault must be reported at the PMD, where ODF detects sharing";
  EXPECT_FALSE(LoadEntry(pte_slot).IsDirty())
      << "dirty must never be set while the table is write-protected (§3.2)";
}

TEST_F(WalkerTest, HugeEntryTranslatesInteriorPages) {
  Vaddr va = 0x40000000;  // 1 GiB, 2 MiB-aligned.
  uint64_t* pmd_slot = walker_.EnsureEntry(pgd_, va, PtLevel::kPmd);
  FrameId head = allocator_.AllocateCompound(kPageFlagAnon);
  StoreEntry(pmd_slot, Pte::Make(head, kPtePresent | kPteWritable | kPteUser | kPteHuge));

  Translation t = walker_.Translate(pgd_, va + 5 * kPageSize + 7, AccessType::kRead);
  EXPECT_EQ(t.status, TranslateStatus::kOk);
  EXPECT_TRUE(t.huge);
  EXPECT_EQ(t.frame, head + 5);
}

TEST(TlbTest, HitAfterInsert) {
  Tlb tlb;
  FrameId frame = kInvalidFrame;
  EXPECT_FALSE(tlb.Lookup(0x1000, false, &frame));
  tlb.Insert(0x1000, 42, /*writable=*/false);
  EXPECT_TRUE(tlb.Lookup(0x1000, false, &frame));
  EXPECT_EQ(frame, 42u);
}

TEST(TlbTest, WriteLookupRequiresWritableEntry) {
  Tlb tlb;
  tlb.Insert(0x1000, 42, /*writable=*/false);
  FrameId frame = kInvalidFrame;
  EXPECT_FALSE(tlb.Lookup(0x1000, true, &frame));
  tlb.Insert(0x1000, 42, /*writable=*/true);
  EXPECT_TRUE(tlb.Lookup(0x1000, true, &frame));
}

TEST(TlbTest, InvalidatePageDropsOnlyThatPage) {
  Tlb tlb;
  tlb.Insert(0x1000, 1, false);
  tlb.Insert(0x2000, 2, false);
  tlb.InvalidatePage(0x1000);
  FrameId frame = kInvalidFrame;
  EXPECT_FALSE(tlb.Lookup(0x1000, false, &frame));
  EXPECT_TRUE(tlb.Lookup(0x2000, false, &frame));
}

TEST(TlbTest, FlushAllDropsEverything) {
  Tlb tlb;
  for (Vaddr va = 0; va < 64 * kPageSize; va += kPageSize) {
    tlb.Insert(va, static_cast<FrameId>(va >> kPageShift), true);
  }
  tlb.FlushAll();
  FrameId frame = kInvalidFrame;
  for (Vaddr va = 0; va < 64 * kPageSize; va += kPageSize) {
    EXPECT_FALSE(tlb.Lookup(va, false, &frame));
  }
}

TEST(TlbTest, DirectMapConflictEvicts) {
  Tlb tlb;
  Vaddr a = 0x1000;
  Vaddr b = a + Tlb::kEntries * kPageSize;  // Same slot.
  tlb.Insert(a, 1, false);
  tlb.Insert(b, 2, false);
  FrameId frame = kInvalidFrame;
  EXPECT_FALSE(tlb.Lookup(a, false, &frame));
  EXPECT_TRUE(tlb.Lookup(b, false, &frame));
}

TEST(TlbTest, RangeAboveCeilingDropsSlotsWithOneGenerationBump) {
  MmLockTable locks;
  Tlb tlb(&locks);
  // 64 pages straddling the first 2 MiB boundary: covers shards 0 and 1 only.
  constexpr uint64_t kPages = 2 * (Tlb::kRangeFlushCeiling - 1);
  constexpr Vaddr kStart = kHugePageSize - (kPages / 2) * kPageSize;
  constexpr Vaddr kEnd = kStart + kPages * kPageSize;
  static_assert(kPages > Tlb::kRangeFlushCeiling && kPages <= Tlb::kEntries);
  for (Vaddr va = kStart; va < kEnd; va += kPageSize) {
    tlb.Insert(va, static_cast<FrameId>(va >> kPageShift), /*writable=*/true);
  }
  std::array<uint64_t, MmLockTable::kShards> gens_before{};
  for (int shard = 0; shard < MmLockTable::kShards; ++shard) {
    gens_before[static_cast<size_t>(shard)] =
        locks.ShardGen(static_cast<Vaddr>(shard) * kHugePageSize);
  }
  uint64_t invalidations_before = tlb.stats().single_invalidations;
  uint64_t flushes_before = tlb.stats().flushes;
  uint64_t shootdowns_before = ReadVm(VmCounter::k_tlb_shootdowns);

  tlb.InvalidateRange(kStart, kEnd);

  FrameId frame = kInvalidFrame;
  for (Vaddr va = kStart; va < kEnd; va += kPageSize) {
    EXPECT_FALSE(tlb.Lookup(va, false, &frame)) << "va " << va;
  }
  for (int shard = 0; shard < MmLockTable::kShards; ++shard) {
    uint64_t bumps = shard <= 1 ? 1 : 0;
    EXPECT_EQ(locks.ShardGen(static_cast<Vaddr>(shard) * kHugePageSize),
              gens_before[static_cast<size_t>(shard)] + bumps)
        << "shard " << shard;
  }
  EXPECT_EQ(tlb.stats().single_invalidations - invalidations_before, kPages);
  EXPECT_EQ(ReadVm(VmCounter::k_tlb_shootdowns) - shootdowns_before, kPages);
  EXPECT_EQ(tlb.stats().flushes, flushes_before) << "a range shootdown is not a full flush";
}

TEST(TlbTest, RangeAtCeilingKeepsSlotsOutsideTheRange) {
  Tlb tlb;
  constexpr Vaddr kStart = 0x40000;
  constexpr Vaddr kEnd = kStart + Tlb::kRangeFlushCeiling * kPageSize;
  constexpr Vaddr kOutside = kEnd + kPageSize;
  for (Vaddr va = kStart; va < kEnd; va += kPageSize) {
    tlb.Insert(va, static_cast<FrameId>(va >> kPageShift), /*writable=*/true);
  }
  tlb.Insert(kOutside, 7, /*writable=*/true);
  uint64_t invalidations_before = tlb.stats().single_invalidations;

  tlb.InvalidateRange(kStart, kEnd);

  FrameId frame = kInvalidFrame;
  for (Vaddr va = kStart; va < kEnd; va += kPageSize) {
    EXPECT_FALSE(tlb.Lookup(va, false, &frame)) << "va " << va;
  }
  EXPECT_TRUE(tlb.Lookup(kOutside, false, &frame));
  EXPECT_EQ(frame, 7u);
  EXPECT_EQ(tlb.stats().single_invalidations - invalidations_before,
            Tlb::kRangeFlushCeiling);
}

}  // namespace
}  // namespace odf
