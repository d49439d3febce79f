// Tests for PTE encoding, address geometry, the software walker, and TLB shootdowns.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <array>

#include "src/phys/frame_allocator.h"
#include "src/pt/geometry.h"
#include "src/pt/mm_locks.h"
#include "src/pt/pte.h"
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

TEST_F(WalkerTest, SecondWriteWalkLeavesTheDirtyEntryUnchanged) {
  Vaddr va = 0x200000;
  uint64_t* slot = walker_.EnsureEntry(pgd_, va, PtLevel::kPte);
  FrameId frame = allocator_.Allocate(kPageFlagAnon);
  StoreEntry(slot, Pte::Make(frame, kPtePresent | kPteWritable | kPteUser));
  Translation first = walker_.Translate(pgd_, va, AccessType::kWrite);
  ASSERT_EQ(first.status, TranslateStatus::kOk);
  ASSERT_TRUE(LoadEntry(slot).IsDirty());
  const uint64_t raw = LoadEntry(slot).raw();

  // Every accessed bit and the leaf's dirty bit are set now, so the second write walk must
  // not write the PTE table at all — not even a no-op locked fetch_or. Map the table's page
  // read-only for the walk: any store or RMW into it faults.
  if (sysconf(_SC_PAGESIZE) != static_cast<long>(kPageSize)) {
    GTEST_SKIP() << "host page size differs from the frame size";
  }
  void* table_page = allocator_.TableEntries(first.pte_table);
  ASSERT_EQ(mprotect(table_page, kPageSize, PROT_READ), 0);
  Translation second = walker_.Translate(pgd_, va, AccessType::kWrite);
  ASSERT_EQ(mprotect(table_page, kPageSize, PROT_READ | PROT_WRITE), 0);
  EXPECT_EQ(second.status, TranslateStatus::kOk);
  EXPECT_EQ(second.frame, frame);
  EXPECT_EQ(LoadEntry(slot).raw(), raw);
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

// The TLB-shootdown plane lives on MmLockTable: invalidations bump shard generations, which
// is what retires every per-thread TranslationCache entry and lock-free reader covering them.
class TlbTest : public ::testing::Test {
 protected:
  static Vaddr ShardBase(int shard) { return static_cast<Vaddr>(shard) * kHugePageSize; }

  std::array<uint64_t, MmLockTable::kShards> Gens() const {
    std::array<uint64_t, MmLockTable::kShards> gens{};
    for (int shard = 0; shard < MmLockTable::kShards; ++shard) {
      gens[static_cast<size_t>(shard)] = locks_.ShardGen(ShardBase(shard));
    }
    return gens;
  }

  // Invalidates [start, end) and checks that exactly the shards in [first, last] advanced,
  // each by one, that every covered page counted as one shootdown, and that no full flush
  // was counted.
  void ExpectRangeBumps(Vaddr start, Vaddr end, int first, int last) {
    std::array<uint64_t, MmLockTable::kShards> before = Gens();
    uint64_t shootdowns_before = ReadVm(VmCounter::k_tlb_shootdowns);
    uint64_t flushes_before = ReadVm(VmCounter::k_tlb_flushes);

    locks_.InvalidateRange(start, end);

    std::array<uint64_t, MmLockTable::kShards> after = Gens();
    for (int shard = 0; shard < MmLockTable::kShards; ++shard) {
      uint64_t bumps = shard >= first && shard <= last ? 1 : 0;
      EXPECT_EQ(after[static_cast<size_t>(shard)], before[static_cast<size_t>(shard)] + bumps)
          << "shard " << shard;
    }
    EXPECT_EQ(ReadVm(VmCounter::k_tlb_shootdowns) - shootdowns_before,
              (end - start) / kPageSize);
    EXPECT_EQ(ReadVm(VmCounter::k_tlb_flushes), flushes_before)
        << "a range shootdown is not a full flush";
  }

  MmLockTable locks_;
};

TEST_F(TlbTest, InvalidatePageBumpsOnlyItsShard) {
  std::array<uint64_t, MmLockTable::kShards> before = Gens();
  uint64_t shootdowns_before = ReadVm(VmCounter::k_tlb_shootdowns);
  locks_.InvalidatePage(ShardBase(3) + 5 * kPageSize);
  std::array<uint64_t, MmLockTable::kShards> after = Gens();
  for (int shard = 0; shard < MmLockTable::kShards; ++shard) {
    EXPECT_EQ(after[static_cast<size_t>(shard)],
              before[static_cast<size_t>(shard)] + (shard == 3 ? 1 : 0))
        << "shard " << shard;
  }
  EXPECT_EQ(ReadVm(VmCounter::k_tlb_shootdowns) - shootdowns_before, 1u);
}

TEST_F(TlbTest, ShortRangeBumpsCoveredShardsOnce) {
  // 33 pages (Linux's tlb_single_page_flush_ceiling) straddling the shard 4/5 boundary.
  constexpr uint64_t kPages = 33;
  Vaddr start = ShardBase(5) - 16 * kPageSize;
  ExpectRangeBumps(start, start + kPages * kPageSize, 4, 5);
}

TEST_F(TlbTest, LongRangeBumpsCoveredShardsOnce) {
  // 1 536 pages (6 MiB, far over the 33-page ceiling) spanning shards 1..4: still one
  // bump each, and still counted page by page rather than as a full flush.
  constexpr uint64_t kPages = 3 * kEntriesPerTable;
  Vaddr start = ShardBase(1) + kHugePageSize / 2;
  ExpectRangeBumps(start, start + kPages * kPageSize, 1, 4);
}

TEST_F(TlbTest, WideRangeBumpsEveryShard) {
  // 65 chunks: more than there are shards, so every shard advances exactly once.
  Vaddr start = ShardBase(7);
  ExpectRangeBumps(start, start + 65 * kHugePageSize, 0, MmLockTable::kShards - 1);
}

TEST_F(TlbTest, FlushAllDropsEverything) {
  std::array<uint64_t, MmLockTable::kShards> before = Gens();
  uint64_t flushes_before = ReadVm(VmCounter::k_tlb_flushes);
  uint64_t shootdowns_before = ReadVm(VmCounter::k_tlb_shootdowns);
  locks_.FlushAll();
  std::array<uint64_t, MmLockTable::kShards> after = Gens();
  for (int shard = 0; shard < MmLockTable::kShards; ++shard) {
    EXPECT_EQ(after[static_cast<size_t>(shard)], before[static_cast<size_t>(shard)] + 1)
        << "shard " << shard;
  }
  EXPECT_EQ(ReadVm(VmCounter::k_tlb_flushes) - flushes_before, 1u);
  EXPECT_EQ(ReadVm(VmCounter::k_tlb_shootdowns), shootdowns_before);
}

}  // namespace
}  // namespace odf
