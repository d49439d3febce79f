// Semantics of on-demand-fork: last-level table sharing, PMD write-protection, fast reads,
// on-demand table COW, the share-count lifecycle (§3.1–§3.5) and accounting (§3.6).
#include <gtest/gtest.h>

#include <algorithm>

#include "src/debug/mutation.h"
#include "src/debug/verify.h"
#include "src/mf/memory_failure.h"
#include "src/mm/range_ops.h"
#include "src/pt/mm_locks.h"
#include "src/reclaim/mm_gate.h"
#include "src/trace/metrics.h"
#include "src/trace/trace.h"
#include "tests/test_util.h"

namespace odf {
namespace {

class OdfForkTest : public ::testing::Test {
 protected:
  OdfForkTest() : parent_(kernel_.CreateProcess()) {}

  // Maps and fully populates (with real data) an anonymous region in the parent.
  Vaddr MapFilled(uint64_t length, uint64_t seed = 1) {
    Vaddr va = parent_.Mmap(length, kProtRead | kProtWrite);
    FillPattern(parent_, va, length, seed);
    return va;
  }

  FrameId PteTableOf(Process& p, Vaddr va) {
    AddressSpace& as = p.address_space();
    uint64_t* pmd = as.walker().FindEntry(as.pgd(), va, PtLevel::kPmd);
    if (pmd == nullptr) {
      return kInvalidFrame;
    }
    Pte entry = LoadEntry(pmd);
    return entry.IsPresent() && !entry.IsHuge() ? entry.frame() : kInvalidFrame;
  }

  Pte PmdEntryOf(Process& p, Vaddr va) {
    AddressSpace& as = p.address_space();
    uint64_t* pmd = as.walker().FindEntry(as.pgd(), va, PtLevel::kPmd);
    return pmd == nullptr ? Pte() : LoadEntry(pmd);
  }

  uint32_t ShareCount(FrameId table) {
    return kernel_.allocator().GetMeta(table).pt_share_count.load();
  }

  Kernel kernel_;
  Process& parent_;
};

TEST_F(OdfForkTest, ChildSharesParentPteTables) {
  Vaddr va = MapFilled(8 * kHugePageSize);  // 16 MiB -> 8 PTE tables.
  Process& child = kernel_.Fork(parent_, ForkMode::kOnDemand);
  for (uint64_t i = 0; i < 8; ++i) {
    Vaddr probe = va + i * kHugePageSize;
    FrameId parent_table = PteTableOf(parent_, probe);
    FrameId child_table = PteTableOf(child, probe);
    ASSERT_NE(parent_table, kInvalidFrame);
    EXPECT_EQ(parent_table, child_table) << "chunk " << i << " must share one PTE table";
    EXPECT_EQ(ShareCount(parent_table), 2u);
  }
}

TEST_F(OdfForkTest, UpperLevelsAreCopiedNotShared) {
  Vaddr va = MapFilled(kHugePageSize);
  Process& child = kernel_.Fork(parent_, ForkMode::kOnDemand);
  AddressSpace& pas = parent_.address_space();
  AddressSpace& cas = child.address_space();
  EXPECT_NE(pas.pgd(), cas.pgd());
  for (PtLevel level : {PtLevel::kPud, PtLevel::kPmd}) {
    uint64_t* p_entry = pas.walker().FindEntry(pas.pgd(), va, level);
    uint64_t* c_entry = cas.walker().FindEntry(cas.pgd(), va, level);
    ASSERT_NE(p_entry, nullptr);
    ASSERT_NE(c_entry, nullptr);
    if (level != PtLevel::kPmd) {
      EXPECT_NE(LoadEntry(p_entry).frame(), LoadEntry(c_entry).frame());
    }
  }
}

TEST_F(OdfForkTest, BothPmdEntriesAreWriteProtected) {
  Vaddr va = MapFilled(kHugePageSize);
  Process& child = kernel_.Fork(parent_, ForkMode::kOnDemand);
  EXPECT_FALSE(PmdEntryOf(parent_, va).IsWritable());
  EXPECT_FALSE(PmdEntryOf(child, va).IsWritable());
}

TEST_F(OdfForkTest, PageRefcountsAreNotTouchedAtForkTime) {
  Vaddr va = MapFilled(kHugePageSize);
  AddressSpace& as = parent_.address_space();
  Translation t = as.walker().Translate(as.pgd(), va, AccessType::kRead);
  ASSERT_EQ(t.status, TranslateStatus::kOk);
  EXPECT_EQ(kernel_.allocator().GetMeta(t.frame).refcount.load(), 1u);
  kernel_.Fork(parent_, ForkMode::kOnDemand);
  EXPECT_EQ(kernel_.allocator().GetMeta(t.frame).refcount.load(), 1u)
      << "ODF must not reference-count data pages during the fork call (§3.6)";
}

TEST_F(OdfForkTest, ChildSeesParentDataAfterFork) {
  Vaddr va = MapFilled(3 * kHugePageSize, /*seed=*/7);
  Process& child = kernel_.Fork(parent_, ForkMode::kOnDemand);
  ExpectPattern(child, va, 3 * kHugePageSize, 7);
}

TEST_F(OdfForkTest, ReadsDoNotCopyTables) {
  Vaddr va = MapFilled(4 * kHugePageSize);
  Process& child = kernel_.Fork(parent_, ForkMode::kOnDemand);
  std::vector<std::byte> buffer(4 * kHugePageSize);
  VmDeltas read;
  ASSERT_TRUE(child.ReadMemory(va, buffer));
  EXPECT_EQ(read.Of(VmCounter::k_pte_table_cow), 0u)
      << "reads must be served through shared tables without faults (fast read, §3.4)";
  FrameId table = PteTableOf(parent_, va);
  EXPECT_EQ(ShareCount(table), 2u);
}

TEST_F(OdfForkTest, FirstWriteCopiesTableOncePer2MiB) {
  Vaddr va = MapFilled(2 * kHugePageSize);
  Process& child = kernel_.Fork(parent_, ForkMode::kOnDemand);
  FrameId shared_table = PteTableOf(child, va);

  VmDeltas child_writes;
  WriteByte(child, va + 100, std::byte{0xaa});
  EXPECT_EQ(child_writes.Of(VmCounter::k_pte_table_cow), 1u);
  FrameId child_table = PteTableOf(child, va);
  EXPECT_NE(child_table, shared_table) << "child must have its own table after the write";
  EXPECT_EQ(PteTableOf(parent_, va), shared_table);
  EXPECT_EQ(ShareCount(shared_table), 1u) << "parent remains the only user of the old table";
  EXPECT_EQ(ShareCount(child_table), 1u);
  EXPECT_TRUE(PmdEntryOf(child, va).IsWritable()) << "child PMD write permission restored";

  // More writes within the same 2 MiB region must not copy tables again.
  for (int i = 1; i <= 64; ++i) {
    WriteByte(child, va + static_cast<uint64_t>(i) * kPageSize, std::byte{0xbb});
  }
  EXPECT_EQ(child_writes.Of(VmCounter::k_pte_table_cow), 1u)
      << "table COW can only occur once per process per 2 MiB region (§3.4)";

  // The second 2 MiB region still shares; writing there copies its table.
  WriteByte(child, va + kHugePageSize, std::byte{0xcc});
  EXPECT_EQ(child_writes.Of(VmCounter::k_pte_table_cow), 2u);
}

TEST_F(OdfForkTest, TableCopyTakesPageReferences) {
  Vaddr va = MapFilled(kHugePageSize);
  Process& child = kernel_.Fork(parent_, ForkMode::kOnDemand);
  AddressSpace& pas = parent_.address_space();
  Translation t = pas.walker().Translate(pas.pgd(), va + 8 * kPageSize, AccessType::kRead);
  ASSERT_EQ(t.status, TranslateStatus::kOk);

  WriteByte(child, va, std::byte{1});  // Dedicates the child's table.
  EXPECT_EQ(kernel_.allocator().GetMeta(t.frame).refcount.load(), 2u)
      << "the dedicated copy must take one reference on every mapped page (§3.6)";
}

TEST_F(OdfForkTest, CowIsolatesChildWritesFromParent) {
  Vaddr va = MapFilled(2 * kHugePageSize, /*seed=*/3);
  Process& child = kernel_.Fork(parent_, ForkMode::kOnDemand);
  WriteByte(child, va + 5000, std::byte{0x5a});
  EXPECT_EQ(ReadByte(child, va + 5000), std::byte{0x5a});
  ExpectPattern(parent_, va, 2 * kHugePageSize, 3);
}

TEST_F(OdfForkTest, CowIsolatesParentWritesFromChild) {
  Vaddr va = MapFilled(2 * kHugePageSize, /*seed=*/4);
  Process& child = kernel_.Fork(parent_, ForkMode::kOnDemand);
  WriteByte(parent_, va + 123456, std::byte{0x77});
  ExpectPattern(child, va, 2 * kHugePageSize, 4);
  EXPECT_EQ(ReadByte(parent_, va + 123456), std::byte{0x77});
}

TEST_F(OdfForkTest, SoleSharerGetsFixupNotCopy) {
  Vaddr va = MapFilled(kHugePageSize);
  Process& child = kernel_.Fork(parent_, ForkMode::kOnDemand);
  WriteByte(child, va, std::byte{1});  // Child dedicates; parent's table share drops to 1.
  VmDeltas parent_write;
  WriteByte(parent_, va + kPageSize, std::byte{2});
  EXPECT_EQ(parent_write.Of(VmCounter::k_pte_table_cow), 0u)
      << "a sole sharer must not copy the table";
  EXPECT_EQ(parent_write.Of(VmCounter::k_pte_table_fixup), 1u)
      << "the PMD write permission is simply re-enabled";
  EXPECT_TRUE(PmdEntryOf(parent_, va).IsWritable());
}

TEST_F(OdfForkTest, FixupAfterTheOtherSharerExitedAllocatesNoFrame) {
  Vaddr va = MapFilled(kHugePageSize);
  Process& child = kernel_.Fork(parent_, ForkMode::kOnDemand);
  kernel_.Exit(child, 0);  // The parent is now the table's only sharer.
  kernel_.Wait(parent_);
  VmDeltas parent_write;
  WriteByte(parent_, va + kPageSize, std::byte{2});
  EXPECT_EQ(parent_write.Of(VmCounter::k_pte_table_fixup), 1u);
  EXPECT_EQ(parent_write.Of(VmCounter::k_frames_allocated), 0u)
      << "a table with a single sharer needs no spare copy, and its page no COW copy";
  EXPECT_EQ(ReadByte(parent_, va + kPageSize), std::byte{2});
}

TEST_F(OdfForkTest, ManyProcessesCanShareOneTable) {
  Vaddr va = MapFilled(kHugePageSize);
  FrameId table = PteTableOf(parent_, va);
  Process& c1 = kernel_.Fork(parent_, ForkMode::kOnDemand);
  Process& c2 = kernel_.Fork(parent_, ForkMode::kOnDemand);
  Process& grandchild = kernel_.Fork(c1, ForkMode::kOnDemand);
  EXPECT_EQ(ShareCount(table), 4u) << "unlimited processes may share one table (§3.4)";
  WriteByte(grandchild, va, std::byte{9});
  EXPECT_EQ(ShareCount(table), 3u);
  EXPECT_EQ(ReadByte(c2, va), ReadByte(parent_, va));
}

TEST_F(OdfForkTest, SharedTableSurvivesParentExit) {
  Vaddr va = MapFilled(kHugePageSize, /*seed=*/11);
  FrameId table = PteTableOf(parent_, va);
  Process& child = kernel_.Fork(parent_, ForkMode::kOnDemand);
  kernel_.Exit(parent_, 0);
  EXPECT_EQ(ShareCount(table), 1u);
  ExpectPattern(child, va, kHugePageSize, 11);  // Reads through the surviving table.
  WriteByte(child, va, std::byte{0x11});
  EXPECT_EQ(ReadByte(child, va), std::byte{0x11});
}

TEST_F(OdfForkTest, DirtyBitNeverSetWhileShared) {
  Vaddr va = MapFilled(kHugePageSize);
  Process& child = kernel_.Fork(parent_, ForkMode::kOnDemand);

  // The parent's pre-fork writes dirtied entries; scrub them so any dirty bit observed below
  // must have been set while the table was shared — which §3.2 guarantees cannot happen
  // because write permission is revoked at the PMD.
  FrameId table = PteTableOf(parent_, va);
  ASSERT_EQ(ShareCount(table), 2u);
  uint64_t* entries = kernel_.allocator().TableEntries(table);
  for (uint64_t i = 0; i < kEntriesPerTable; ++i) {
    StoreEntry(&entries[i], LoadEntry(&entries[i]).WithoutFlag(kPteDirty));
  }

  std::vector<std::byte> buffer(kHugePageSize);
  ASSERT_TRUE(child.ReadMemory(va, buffer));
  ASSERT_TRUE(parent_.ReadMemory(va, buffer));
  for (uint64_t i = 0; i < kEntriesPerTable; ++i) {
    Pte entry = LoadEntry(&entries[i]);
    if (entry.IsPresent()) {
      EXPECT_FALSE(entry.IsDirty()) << "entry " << i << " dirtied while table shared (§3.2)";
    }
  }
}

TEST_F(OdfForkTest, AccessedBitsAreDuplicatedOnTableCopy) {
  Vaddr va = MapFilled(kHugePageSize);
  Process& child = kernel_.Fork(parent_, ForkMode::kOnDemand);
  // Touch one page so its entry is accessed in the shared table; the populate path set
  // accessed everywhere, so clear a different entry first to create contrast.
  FrameId table = PteTableOf(parent_, va);
  uint64_t* entries = kernel_.allocator().TableEntries(table);
  StoreEntry(&entries[9], LoadEntry(&entries[9]).WithoutFlag(kPteAccessed));

  WriteByte(child, va, std::byte{1});  // Table copy.
  AddressSpace& cas = child.address_space();
  uint64_t* c_pmd = cas.walker().FindEntry(cas.pgd(), va, PtLevel::kPmd);
  uint64_t* c_entries = kernel_.allocator().TableEntries(LoadEntry(c_pmd).frame());
  EXPECT_FALSE(LoadEntry(&c_entries[9]).IsAccessed())
      << "the copy must duplicate accessed-bit values, not invent them (§3.2)";
  EXPECT_TRUE(LoadEntry(&c_entries[3]).IsAccessed());
}

#if ODF_MEMORY_FAILURE_COMPILED
// One shared PTE table that holds every kind of entry the table COW copies: the subpages of
// a split huge mapping (the head and its tails, each holding a reference on the head), an
// order-0 page, a swap entry, a hwpoison marker and empty slots. The child's first write
// dedicates it, and the copy must take exactly one reference per entry.
TEST_F(OdfForkTest, TableCowOfMixedTableTakesOneReferencePerEntry) {
  FrameAllocator& allocator = kernel_.allocator();
  SwapSpace& swap = kernel_.swap_space();
  Vaddr base = parent_.Mmap(kHugePageSize, kProtRead | kProtWrite, /*huge=*/true);
  FillPattern(parent_, base, kHugePageSize, /*seed=*/3);
  auto slot_va = [base](uint64_t i) { return base + i * kPageSize; };
  AddressSpace& pas = parent_.address_space();
  Translation huge = pas.walker().Translate(pas.pgd(), base, AccessType::kRead);
  ASSERT_EQ(huge.status, TranslateStatus::kOk);
  ASSERT_TRUE(huge.huge);
  const FrameId head = huge.frame;

  // Hard offline of subpage 5 splits the mapping (SplitHugeMapping) and leaves a marker;
  // soft offline moves subpages 7 and 8 to order-0 frames.
  ASSERT_EQ(kernel_.MemoryFailure(head + 5), mf::MfResult::kRecovered);
  ASSERT_EQ(kernel_.SoftOfflinePage(head + 7), mf::MfResult::kMigrated);
  ASSERT_EQ(kernel_.SoftOfflinePage(head + 8), mf::MfResult::kMigrated);
  // Empty slots 100-103. MADV_DONTNEED insists on 2 MiB granules in a huge VMA, so zap
  // under the same locks it takes.
  {
    debug::MutationScope mutation;
    MmLockTable::WriteScope ws(pas.locks());
    reclaim::MmGate::SharedScope gate;
    ZapRange(pas, slot_va(100), slot_va(104));
  }
  // Reclaim skips compound frames, so it swaps out subpage 7 or 8.
  for (int pass = 0; pass < 8 && swap.Stats().slots_in_use == 0; ++pass) {
    kernel_.ReclaimMemory(1);
  }
  ASSERT_EQ(swap.Stats().slots_in_use, 1u);

  const FrameId table = PteTableOf(parent_, base);
  ASSERT_NE(table, kInvalidFrame);
  const uint64_t* entries = allocator.TableEntries(table);
  uint64_t subpage_entries = 0;
  uint64_t page_index = kEntriesPerTable;
  uint64_t swap_index = kEntriesPerTable;
  for (uint64_t i = 0; i < kEntriesPerTable; ++i) {
    Pte entry = LoadEntry(&entries[i]);
    if (entry.IsPresent() && allocator.GetMeta(entry.frame()).IsCompound()) {
      ++subpage_entries;
    } else if (entry.IsPresent()) {
      page_index = i;
    } else if (entry.IsSwap()) {
      swap_index = i;
    }
  }
  ASSERT_EQ(subpage_entries, kEntriesPerTable - 1 - 2 - 4);
  ASSERT_EQ(page_index + swap_index, 7u + 8u) << "one of subpages 7/8 each way";
  ASSERT_TRUE(LoadEntry(&entries[5]).IsHwPoison());

  Process& child = kernel_.Fork(parent_, ForkMode::kOnDemand);
  ASSERT_EQ(PteTableOf(child, base), table);
  ASSERT_EQ(ShareCount(table), 2u);
  const Pte page_entry = LoadEntry(&entries[page_index]);
  const Pte swap_entry = LoadEntry(&entries[swap_index]);
  const Pte marker = LoadEntry(&entries[5]);
  const uint32_t head_refs = allocator.GetMeta(head).refcount.load();
  const uint32_t page_refs = allocator.GetMeta(page_entry.frame()).refcount.load();
  const uint32_t swap_refs = swap.RefCount(swap_entry.swap_slot());

  // The child's first write lands in an empty slot: the fault dedicates the table, then
  // demand-zeroes one page into the child's private copy. No page COW muddies the counts.
  WriteByte(child, slot_va(100), std::byte{0x5a});
  const FrameId copy = PteTableOf(child, base);
  ASSERT_NE(copy, kInvalidFrame);
  ASSERT_NE(copy, table);
  EXPECT_EQ(ShareCount(table), 1u);
  EXPECT_EQ(allocator.GetMeta(head).refcount.load(), head_refs + subpage_entries)
      << "each subpage entry takes one reference, on the head";
  EXPECT_EQ(allocator.GetMeta(head + 1).refcount.load(), 0u) << "tails hold none";
  EXPECT_EQ(allocator.GetMeta(page_entry.frame()).refcount.load(), page_refs + 1);
  EXPECT_EQ(swap.RefCount(swap_entry.swap_slot()), swap_refs + 1);
  const uint64_t* copied = allocator.TableEntries(copy);
  EXPECT_EQ(LoadEntry(&copied[5]).raw(), marker.raw()) << "the marker copies verbatim";
  EXPECT_EQ(LoadEntry(&copied[swap_index]).raw(), swap_entry.raw());
  EXPECT_TRUE(LoadEntry(&copied[100]).IsPresent());
  EXPECT_TRUE(LoadEntry(&entries[100]).IsNone());
  for (uint64_t i = 101; i < 104; ++i) {
    EXPECT_TRUE(LoadEntry(&entries[i]).IsNone()) << "parent slot " << i;
    EXPECT_TRUE(LoadEntry(&copied[i]).IsNone()) << "child slot " << i;
  }
  for (uint64_t i = 0; i < kEntriesPerTable; ++i) {
    Pte entry = LoadEntry(&entries[i]);
    if (entry.IsPresent()) {
      EXPECT_FALSE(entry.IsWritable()) << "slot " << i << " must stay COW-protected";
      EXPECT_EQ(LoadEntry(&copied[i]).frame(), entry.frame()) << "slot " << i;
    }
  }
  EXPECT_EQ(ReadByte(child, slot_va(100)), std::byte{0x5a});
  ExpectPattern(child, slot_va(page_index), kPageSize, /*seed=*/3);
  ExpectPattern(child, slot_va(swap_index), kPageSize, /*seed=*/3);
  EXPECT_TRUE(debug::VerifyKernel(kernel_).ok());

  kernel_.Exit(child, 0);
  kernel_.Wait(parent_);
  kernel_.Exit(parent_, 0);
  EXPECT_TRUE(allocator.AllFree());
  EXPECT_EQ(swap.Stats().slots_in_use, 0u);
  EXPECT_TRUE(debug::VerifyKernel(kernel_).ok());
}
#endif  // ODF_MEMORY_FAILURE_COMPILED

TEST_F(OdfForkTest, NoLeaksAfterForkStorm) {
  Vaddr va = MapFilled(4 * kHugePageSize, /*seed=*/2);
  for (int round = 0; round < 10; ++round) {
    Process& child = kernel_.Fork(parent_, ForkMode::kOnDemand);
    Pid child_pid = child.pid();
    WriteByte(child, va + static_cast<uint64_t>(round) * kPageSize, std::byte{0xee});
    kernel_.Exit(child, 0);
    ASSERT_EQ(kernel_.Wait(parent_), child_pid);  // Wait frees the child Process object.
  }
  ExpectPattern(parent_, va, 4 * kHugePageSize, 2);
  kernel_.Exit(parent_, 0);
  EXPECT_TRUE(kernel_.allocator().AllFree()) << "fork storm leaked frames";
}

TEST_F(OdfForkTest, ForkVmCountersTrackSharing) {
  MapFilled(8 * kHugePageSize);
  VmDeltas fork;
  kernel_.Fork(parent_, ForkMode::kOnDemand);
  EXPECT_EQ(fork.Of(VmCounter::k_fork_on_demand), 1u);
  EXPECT_EQ(fork.Of(VmCounter::k_pte_tables_shared), 8u);
  EXPECT_EQ(fork.Of(VmCounter::k_fork_pte_entries_copied), 0u);
}

// The acceptance scenario from docs/observability.md: with tracing enabled, an on-demand
// fork of a 1 GiB-mapped process emits fork_begin, one pte_table_shared per last-level
// table, fork_end — and a subsequent child write emits the deferred COW events.
TEST_F(OdfForkTest, TraceCapturesOnDemandForkSequence) {
#if !ODF_TRACE_COMPILED
  GTEST_SKIP() << "tracepoints compiled out (ODF_TRACE=OFF)";
#endif
  constexpr uint64_t kGiB = 1ull << 30;
  constexpr uint64_t kTables = kGiB / kPteTableSpan;  // 512 PTE tables.
  Vaddr va = parent_.Mmap(kGiB, kProtRead | kProtWrite);
  parent_.address_space().PopulateRange(va, kGiB);  // Every page present, no data buffers.

  trace::Tracer::Global().Clear();
  MetricsRegistry::Global().ResetForTest();
  trace::SetEnabled(true);
  Process& child = kernel_.Fork(parent_, ForkMode::kOnDemand);
  child.StoreU64(va, 1);  // First write: PTE-table COW, then data-page COW.
  trace::SetEnabled(false);

  std::vector<TraceEvent> events = trace::Tracer::Global().CollectAll();
  auto count_of = [&events](TraceEventId id) {
    return std::count_if(events.begin(), events.end(),
                         [id](const TraceEvent& e) { return e.id == id; });
  };
  auto index_of = [&events](TraceEventId id) {
    for (size_t i = 0; i < events.size(); ++i) {
      if (events[i].id == id) {
        return static_cast<ptrdiff_t>(i);
      }
    }
    return static_cast<ptrdiff_t>(-1);
  };

  // Fork bracketing, with every table-share event in between.
  EXPECT_EQ(count_of(TraceEventId::k_fork_begin), 1);
  EXPECT_EQ(count_of(TraceEventId::k_fork_end), 1);
  EXPECT_EQ(count_of(TraceEventId::k_pte_table_shared), static_cast<ptrdiff_t>(kTables));
  ptrdiff_t begin_at = index_of(TraceEventId::k_fork_begin);
  ptrdiff_t end_at = index_of(TraceEventId::k_fork_end);
  ASSERT_NE(begin_at, -1);
  ASSERT_NE(end_at, -1);
  EXPECT_LT(begin_at, index_of(TraceEventId::k_pte_table_shared));
  EXPECT_LT(index_of(TraceEventId::k_pte_table_shared), end_at);

  // fork_begin carries (mode, mapped bytes); all fork events name the parent.
  const TraceEvent& begin = events[static_cast<size_t>(begin_at)];
  EXPECT_EQ(begin.pid, parent_.pid());
  EXPECT_EQ(begin.a0, static_cast<uint64_t>(ForkMode::kOnDemand));
  EXPECT_EQ(begin.a1, kGiB);

  // The deferred costs surfaced after fork_end: the child's write COWed one PTE table, then
  // one data page (the populated-no-data page COWs as a reuse or copy depending on backing).
  EXPECT_EQ(count_of(TraceEventId::k_fault_cow_pte_table), 1);
  EXPECT_GT(index_of(TraceEventId::k_fault_cow_pte_table), end_at);

  // And the vmstat counters saw the same story.
  EXPECT_EQ(ReadVm(VmCounter::k_fork_on_demand), 1u);
  EXPECT_EQ(ReadVm(VmCounter::k_pte_tables_shared), kTables);
  EXPECT_EQ(ReadVm(VmCounter::k_pte_table_cow), 1u);
  EXPECT_EQ(ReadVm(VmCounter::k_fork_pte_entries_copied), 0u);
}

}  // namespace
}  // namespace odf
