// Transactional fork under allocation failure (docs/robustness.md): Kernel::TryFork either
// fully succeeds (possibly via a graceful-degradation path) or rolls the half-built child
// back completely — parent memory byte-identical, zero leaked frames — and the fault
// handler's typed verdicts (kOom / kSwapIoError) are recoverable by retrying.
#include <gtest/gtest.h>

#include "src/fi/fault_inject.h"
#include "src/mm/fault.h"
#include "src/mm/range_ops.h"
#include "src/trace/metrics.h"
#include "tests/test_util.h"

namespace odf {
namespace {

using fi::FaultInjector;
using fi::ScopedInjection;

class ForkOomRollbackTest : public ::testing::Test {
 protected:
  void SetUp() override {
#if !ODF_FAULT_INJECT_COMPILED
    GTEST_SKIP() << "fault-injection hooks compiled out (ODF_FAULT_INJECT=OFF)";
#endif
    FaultInjector::Global().Reset();
  }
  void TearDown() override { FaultInjector::Global().Reset(); }

  Process& MakeParent(uint64_t length, bool huge = false, uint64_t seed = 21) {
    Process& parent = kernel_.CreateProcess();
    region_ = parent.Mmap(length, kProtRead | kProtWrite, huge);
    region_length_ = length;
    pattern_seed_ = seed;
    FillPattern(parent, region_, length, seed);
    return parent;
  }

  void ExpectParentIntact(Process& parent) {
    ExpectPattern(parent, region_, region_length_, pattern_seed_);
  }

  Pte PmdEntryOf(Process& p, Vaddr va) {
    AddressSpace& as = p.address_space();
    uint64_t* pmd = as.walker().FindEntry(as.pgd(), va, PtLevel::kPmd);
    return pmd == nullptr ? Pte() : LoadEntry(pmd);
  }

  FrameId PteTableOf(Process& p, Vaddr va) {
    Pte entry = PmdEntryOf(p, va);
    return entry.IsPresent() && !entry.IsHuge() ? entry.frame() : kInvalidFrame;
  }

  // Exit + reap a TryFork child so its frames return to the pool.
  void Dispose(Process& parent, Process* child) {
    ASSERT_NE(child, nullptr);
    Pid pid = child->pid();
    kernel_.Exit(*child, 0);
    ASSERT_EQ(kernel_.Wait(parent), pid);
  }

  // Injects a page-table-allocation failure at every call index the fork makes, one fork
  // attempt per index. Each attempt must either roll back completely (parent byte-identical,
  // allocated-frame count restored) or succeed through a degradation path (child sees the
  // parent's data). This is the "injection at each fork phase" satellite: the sweep hits the
  // upper-level walk, the PTE/PMD table copies, and the shared-table install in turn.
  void SweepPageTableAllocFailures(ForkMode mode, uint64_t* rollbacks_out,
                                   uint64_t* degraded_out) {
    Process& parent = MakeParent(4 * kPteTableSpan);  // 4 PTE tables, multi-level skeleton.
    FaultInjector& fi = FaultInjector::Global();
    uint64_t baseline = kernel_.allocator().Stats().allocated_frames;
    uint64_t rollbacks = 0;
    uint64_t degraded = 0;
    for (uint64_t nth = 1; nth <= 64; ++nth) {
      fi.Arm(FiSite::k_page_table_alloc, FiSiteConfig{.nth = nth});
      uint64_t rollback_before = ReadVm(VmCounter::k_fork_rollback);
      uint64_t degrade_before = ReadVm(VmCounter::k_fork_degrade_classic);
      Process* child = kernel_.TryFork(parent, mode);
      uint64_t injected = fi.SiteStats(FiSite::k_page_table_alloc).injected;
      if (child == nullptr) {
        ++rollbacks;
        EXPECT_EQ(ReadVm(VmCounter::k_fork_rollback), rollback_before + 1);
        EXPECT_EQ(kernel_.allocator().Stats().allocated_frames, baseline)
            << "nth=" << nth << ": rollback must free every frame the child held";
        ExpectParentIntact(parent);
      } else {
        if (ReadVm(VmCounter::k_fork_degrade_classic) > degrade_before) {
          ++degraded;
        }
        ExpectPattern(*child, region_, region_length_, pattern_seed_);
        ExpectParentIntact(parent);
        Dispose(parent, child);
        EXPECT_EQ(kernel_.allocator().Stats().allocated_frames, baseline)
            << "nth=" << nth << ": child teardown must free every frame";
      }
      fi.Disarm(FiSite::k_page_table_alloc);
      if (injected == 0) {
        break;  // nth exceeded the fork's page-table allocations: schedule exhausted.
      }
    }
    // A disarmed fork still works and the parent still has its memory.
    Process* child = kernel_.TryFork(parent, mode);
    ASSERT_NE(child, nullptr);
    ExpectPattern(*child, region_, region_length_, pattern_seed_);
    Dispose(parent, child);
    kernel_.Exit(parent, 0);
    EXPECT_TRUE(kernel_.allocator().AllFree()) << "sweep leaked frames";
    *rollbacks_out = rollbacks;
    *degraded_out = degraded;
  }

  Kernel kernel_;
  Vaddr region_ = 0;
  uint64_t region_length_ = 0;
  uint64_t pattern_seed_ = 0;
};

TEST_F(ForkOomRollbackTest, TryForkMatchesForkWhenNothingFails) {
  Process& parent = MakeParent(2 * kPteTableSpan);
  Process* child = kernel_.TryFork(parent, ForkMode::kOnDemand);
  ASSERT_NE(child, nullptr);
  ExpectPattern(*child, region_, region_length_, pattern_seed_);
  Dispose(parent, child);
  kernel_.Exit(parent, 0);
  EXPECT_TRUE(kernel_.allocator().AllFree());
}

TEST_F(ForkOomRollbackTest, ClassicForkSurvivesFailureAtEveryTableAlloc) {
  uint64_t rollbacks = 0;
  uint64_t degraded = 0;
  SweepPageTableAllocFailures(ForkMode::kClassic, &rollbacks, &degraded);
  // A single injected failure never rolls a classic fork back: whichever table alloc fails,
  // the chunk falls into the zero-allocation sharing fallback (whose own walk retries the
  // chain after the one-shot schedule has fired). That resilience is the point.
  EXPECT_EQ(rollbacks, 0u);
  EXPECT_GT(degraded, 0u) << "a table-alloc failure must degrade to ODF-style sharing";
}

TEST_F(ForkOomRollbackTest, ClassicForkRollsBackWhenFallbackAllocFailsToo) {
  Process& parent = MakeParent(2 * kPteTableSpan);
  uint64_t baseline = kernel_.allocator().Stats().allocated_frames;
  // Every page-table allocation fails: the chunk copy fails AND its sharing fallback cannot
  // build the child's PMD path. Nothing is left to degrade to — transactional rollback.
  ScopedInjection inject(FiSite::k_page_table_alloc, FiSiteConfig{.interval = 1});
  EXPECT_EQ(kernel_.TryFork(parent, ForkMode::kClassic), nullptr);
  EXPECT_EQ(kernel_.allocator().Stats().allocated_frames, baseline);
  ExpectParentIntact(parent);
  kernel_.Exit(parent, 0);
  EXPECT_TRUE(kernel_.allocator().AllFree());
}

TEST_F(ForkOomRollbackTest, OnDemandForkSurvivesFailureAtEveryTableAlloc) {
  uint64_t rollbacks = 0;
  uint64_t degraded = 0;
  SweepPageTableAllocFailures(ForkMode::kOnDemand, &rollbacks, &degraded);
  EXPECT_GT(rollbacks, 0u) << "a PUD-table alloc failure must roll the fork back";
  EXPECT_GT(degraded, 0u) << "a PMD-table alloc failure must degrade to PMD-table sharing";
}

TEST_F(ForkOomRollbackTest, OnDemandHugeForkSurvivesFailureAtEveryTableAlloc) {
  uint64_t rollbacks = 0;
  uint64_t degraded = 0;
  SweepPageTableAllocFailures(ForkMode::kOnDemandHuge, &rollbacks, &degraded);
  EXPECT_GT(rollbacks, 0u);
}

TEST_F(ForkOomRollbackTest, ClassicForkSharesTableWhenPteTableAllocFails) {
  Process& parent = MakeParent(kPteTableSpan);  // One chunk: child allocs PUD, PMD, PTE.
  ScopedInjection inject(FiSite::k_page_table_alloc, FiSiteConfig{.nth = 3});
  VmDeltas fork;
  Process* child = kernel_.TryFork(parent, ForkMode::kClassic);
  ASSERT_NE(child, nullptr) << "PTE-table failure has a zero-allocation sharing fallback";
  EXPECT_EQ(fork.Of(VmCounter::k_pte_tables_shared), 1u);

  // The degraded chunk looks exactly like an on-demand fork: one shared, write-protected
  // PTE table reached from both PMDs.
  FrameId table = PteTableOf(parent, region_);
  ASSERT_NE(table, kInvalidFrame);
  EXPECT_EQ(PteTableOf(*child, region_), table);
  EXPECT_EQ(kernel_.allocator().GetMeta(table).pt_share_count.load(), 2u);
  EXPECT_FALSE(PmdEntryOf(parent, region_).IsWritable());
  EXPECT_FALSE(PmdEntryOf(*child, region_).IsWritable());

  // And it behaves like one: the child's write COWs the table and leaves the parent intact.
  WriteByte(*child, region_ + 64, std::byte{0xcd});
  EXPECT_NE(PteTableOf(*child, region_), table);
  ExpectParentIntact(parent);
  Dispose(parent, child);
  kernel_.Exit(parent, 0);
  EXPECT_TRUE(kernel_.allocator().AllFree());
}

TEST_F(ForkOomRollbackTest, OnDemandForkSharesPmdTableWhenItsAllocFails) {
  Process& parent = MakeParent(2 * kPteTableSpan);
  // Call 1 allocates the child PUD table; call 2 would be the child PMD table.
  ScopedInjection inject(FiSite::k_page_table_alloc, FiSiteConfig{.nth = 2});
  VmDeltas fork;
  Process* child = kernel_.TryFork(parent, ForkMode::kOnDemand);
  ASSERT_NE(child, nullptr) << "PMD-table failure degrades to kOnDemandHuge-style sharing";
  EXPECT_EQ(fork.Of(VmCounter::k_pmd_tables_shared), 1u);
  ExpectPattern(*child, region_, region_length_, pattern_seed_);

  // Writes still work on both sides of the shared-PMD path and stay isolated.
  WriteByte(*child, region_ + 128, std::byte{0x42});
  ExpectParentIntact(parent);
  WriteByte(parent, region_ + kPteTableSpan + 7, std::byte{0x43});
  EXPECT_EQ(ReadByte(*child, region_ + 128), std::byte{0x42});
  Dispose(parent, child);
  kernel_.Exit(parent, 0);
  EXPECT_TRUE(kernel_.allocator().AllFree());
}

TEST_F(ForkOomRollbackTest, OnDemandForkRollsBackWhenPudTableAllocFails) {
  Process& parent = MakeParent(2 * kPteTableSpan);
  uint64_t baseline = kernel_.allocator().Stats().allocated_frames;
  ScopedInjection inject(FiSite::k_page_table_alloc, FiSiteConfig{.nth = 1});
  EXPECT_EQ(kernel_.TryFork(parent, ForkMode::kOnDemand), nullptr)
      << "a PGD-level child-table failure has no sharing fallback";
  EXPECT_EQ(kernel_.allocator().Stats().allocated_frames, baseline);
  ExpectParentIntact(parent);
  kernel_.Exit(parent, 0);
  EXPECT_TRUE(kernel_.allocator().AllFree());
}

TEST_F(ForkOomRollbackTest, HugeDemandInstallDegradesTo4kPaging) {
  Process& parent = kernel_.CreateProcess();
  Vaddr va = parent.Mmap(kHugePageSize, kProtRead | kProtWrite, /*huge=*/true);
  uint64_t degrade_before = ReadVm(VmCounter::k_fork_degrade_classic);
  {
    ScopedInjection inject(FiSite::k_compound_alloc, FiSiteConfig{.interval = 1});
    // Every compound allocation fails, so the first touch cannot install a 2 MiB page —
    // it must fall back to plain 4 KiB demand paging instead of failing the access.
    WriteByte(parent, va + 5 * kPageSize, std::byte{0x77});
  }
  EXPECT_GT(ReadVm(VmCounter::k_fork_degrade_classic), degrade_before);
  EXPECT_EQ(ReadByte(parent, va + 5 * kPageSize), std::byte{0x77});
  Pte pmd = PmdEntryOf(parent, va);
  ASSERT_TRUE(pmd.IsPresent());
  EXPECT_FALSE(pmd.IsHuge()) << "the degraded mapping goes through a PTE table";
  // With injection gone the degraded chunk keeps working through its PTE table.
  WriteByte(parent, va + kHugePageSize / 2, std::byte{0x78});
  kernel_.Exit(parent, 0);
  EXPECT_TRUE(kernel_.allocator().AllFree());
}

TEST_F(ForkOomRollbackTest, HugeCowSplitsMappingWhenCompoundAllocFails) {
  Process& parent = MakeParent(kHugePageSize, /*huge=*/true, /*seed=*/33);
  ASSERT_TRUE(PmdEntryOf(parent, region_).IsHuge());
  Process* child = kernel_.TryFork(parent, ForkMode::kClassic);
  ASSERT_NE(child, nullptr);

  {
    ScopedInjection inject(FiSite::k_compound_alloc, FiSiteConfig{.interval = 1});
    // The huge COW cannot get a 2 MiB frame; it must split the child's mapping into a PTE
    // table of 4 KiB entries and copy only the single faulting page.
    WriteByte(*child, region_ + 3 * kPageSize, std::byte{0x99});
  }
  EXPECT_EQ(ReadByte(*child, region_ + 3 * kPageSize), std::byte{0x99});
  EXPECT_FALSE(PmdEntryOf(*child, region_).IsHuge()) << "child mapping split to 4 KiB";
  EXPECT_TRUE(PmdEntryOf(parent, region_).IsHuge()) << "parent keeps its 2 MiB mapping";
  ExpectParentIntact(parent);
  // The untouched remainder of the split region still reads the original bytes.
  for (uint64_t offset : {uint64_t{0}, 100 * kPageSize, kHugePageSize - kPageSize}) {
    ExpectPattern(*child, region_ + offset, kPageSize, pattern_seed_);
  }
  Dispose(parent, child);
  kernel_.Exit(parent, 0);
  EXPECT_TRUE(kernel_.allocator().AllFree());
}

TEST_F(ForkOomRollbackTest, FaultReturnsTypedOomAndTheAccessIsRetryable) {
  Process& parent = kernel_.CreateProcess();
  Vaddr va = parent.Mmap(16 * kPageSize, kProtRead | kProtWrite);
  std::byte value{0x11};
  {
    ScopedInjection inject(FiSite::k_frame_alloc, FiSiteConfig{.nth = 1});
    VmDeltas write;
    EXPECT_FALSE(parent.WriteMemory(va, std::span(&value, 1)));
    EXPECT_EQ(parent.last_fault_result(), FaultResult::kOom);
    EXPECT_TRUE(IsRecoverableFault(parent.last_fault_result()));
    EXPECT_EQ(write.Of(VmCounter::k_pgfault_oom), 1u);
    // The schedule fired once; the same access now succeeds (the errno-style retry story).
    EXPECT_TRUE(parent.WriteMemory(va, std::span(&value, 1)));
  }
  EXPECT_EQ(ReadByte(parent, va), value);
  kernel_.Exit(parent, 0);
  EXPECT_TRUE(kernel_.allocator().AllFree());
}

// When the huge COW can get neither a 2 MiB frame nor the split's one PTE table, the write
// fails with kOom and leaves the shared 2 MiB mapping as it was; it succeeds once memory
// is back.
TEST_F(ForkOomRollbackTest, HugeCowIsOomWhenTheSplitTableCannotBeAllocated) {
  Process& parent = MakeParent(kHugePageSize, /*huge=*/true, /*seed=*/34);
  Process* child = kernel_.TryFork(parent, ForkMode::kClassic);
  ASSERT_NE(child, nullptr);
  std::byte value{0x9a};
  {
    ScopedInjection compound(FiSite::k_compound_alloc, FiSiteConfig{.interval = 1});
    ScopedInjection table(FiSite::k_page_table_alloc, FiSiteConfig{.interval = 1});
    EXPECT_FALSE(child->WriteMemory(region_ + kPageSize, std::span(&value, 1)));
    EXPECT_EQ(child->last_fault_result(), FaultResult::kOom);
  }
  EXPECT_TRUE(PmdEntryOf(*child, region_).IsHuge()) << "nothing was half-split";
  ExpectPattern(*child, region_, kHugePageSize, pattern_seed_);
  EXPECT_TRUE(child->WriteMemory(region_ + kPageSize, std::span(&value, 1)));
  ExpectParentIntact(parent);
  Dispose(parent, child);
}

TEST_F(ForkOomRollbackTest, SwapInErrorIsRecoverableAndKeepsTheSlot) {
  Process& parent = MakeParent(kPteTableSpan, /*huge=*/false, /*seed=*/55);
  // Push cold pages out to the swap device, then find one that left residency.
  ASSERT_GT(kernel_.ReclaimMemory(64), 0u);
  std::vector<uint8_t> residency = parent.Mincore(region_, region_length_);
  uint64_t swapped_page = residency.size();
  for (uint64_t i = 0; i < residency.size(); ++i) {
    if (residency[i] == 2) {  // Mincore: 0 = untouched, 1 = resident, 2 = on swap.
      swapped_page = i;
      break;
    }
  }
  ASSERT_LT(swapped_page, residency.size()) << "reclaim should have swapped something out";
  Vaddr victim = region_ + swapped_page * kPageSize;

  std::byte out{0};
  {
    ScopedInjection inject(FiSite::k_swap_in, FiSiteConfig{.nth = 1});
    VmDeltas read;
    EXPECT_FALSE(parent.ReadMemory(victim, std::span(&out, 1)));
    EXPECT_EQ(parent.last_fault_result(), FaultResult::kSwapIoError);
    EXPECT_EQ(read.Of(VmCounter::k_swap_io_errors), 1u);
  }
  // The slot kept its reference, so the retry reads the page back intact.
  ExpectPattern(parent, victim, kPageSize, pattern_seed_);
  ExpectParentIntact(parent);
  kernel_.Exit(parent, 0);
  EXPECT_TRUE(kernel_.allocator().AllFree());
}

TEST_F(ForkOomRollbackTest, GenuineEnomemUnderFrameLimitRollsForkBack) {
  Process& parent = MakeParent(2 * kPteTableSpan);
  // Block the reclaimer's writeback so the limit is a hard wall, and leave exactly one
  // spare frame: enough for the child's PGD (NOFAIL) but not for the first Try table.
  ScopedInjection block_swap(FiSite::k_swap_out, FiSiteConfig{.interval = 1});
  uint64_t allocated = kernel_.allocator().Stats().allocated_frames;
  kernel_.SetMemoryLimitFrames(allocated + 1);
  EXPECT_EQ(kernel_.TryFork(parent, ForkMode::kOnDemand), nullptr);
  EXPECT_EQ(kernel_.allocator().Stats().allocated_frames, allocated);
  EXPECT_EQ(kernel_.oom_kills(), 0u) << "the forking parent is immune to its own OOM";
  ExpectParentIntact(parent);

  // Lifting the limit makes the identical fork succeed.
  kernel_.SetMemoryLimitFrames(0);
  Process* child = kernel_.TryFork(parent, ForkMode::kOnDemand);
  ASSERT_NE(child, nullptr);
  ExpectPattern(*child, region_, region_length_, pattern_seed_);
  Dispose(parent, child);
  kernel_.Exit(parent, 0);
  EXPECT_TRUE(kernel_.allocator().AllFree());
}

TEST_F(ForkOomRollbackTest, OomKillerStillFiresForNofailPressureAndCountsAtomically) {
  Process& hog = kernel_.CreateProcess();
  Vaddr hog_va = hog.Mmap(2 * kPteTableSpan, kProtRead | kProtWrite);
  ASSERT_TRUE(hog.TouchRange(hog_va, 2 * kPteTableSpan, AccessType::kWrite));
  Process& small = kernel_.CreateProcess();
  Vaddr small_va = small.Mmap(8 * kPageSize, kProtRead | kProtWrite);

  // Nothing is reclaimable (writeback blocked), so satisfying the small process's fault
  // under the limit requires killing the hog — the classic last resort.
  ScopedInjection block_swap(FiSite::k_swap_out, FiSiteConfig{.interval = 1});
  kernel_.SetMemoryLimitFrames(kernel_.allocator().Stats().allocated_frames + 2);
  ASSERT_TRUE(small.TouchRange(small_va, 8 * kPageSize, AccessType::kWrite));
  EXPECT_EQ(kernel_.oom_kills(), 1u);
  EXPECT_EQ(hog.state(), ProcessState::kZombie);

  kernel_.SetMemoryLimitFrames(0);
  kernel_.Exit(small, 0);
  EXPECT_TRUE(kernel_.allocator().AllFree());
}

}  // namespace
}  // namespace odf
