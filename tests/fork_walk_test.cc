// Fork and exit pay for what is mapped: the on-demand fork walks only the parent's VMA
// spans (fork_upper_entries counts its upper-level work), a full flush is one bump of the
// address-space flush generation, and layouts whose VMAs share tables, cross table
// boundaries or leave holes fork and exit exactly. The fork and fault instrumentation is
// one path too: a profiled fork fills the phases of its engine, and the fault latency
// histograms sample whatever the trace setting.
#include <gtest/gtest.h>

#include "src/debug/verify.h"
#include "src/pt/mm_locks.h"
#include "src/trace/trace.h"
#include "tests/test_util.h"

namespace odf {
namespace {

constexpr uint64_t kGiB = 1ull << 30;
constexpr uint32_t kRw = kProtRead | kProtWrite;

// --- Work counts ---------------------------------------------------------------------

TEST(ForkWorkTest, OdfForkVisitsOnlyTheUpperEntriesItsVmaCovers) {
  Kernel kernel;
  Process& parent = kernel.CreateProcess();
  constexpr uint64_t kLength = 40ull << 20;  // 20 chunks; 21 when not 2 MiB-aligned.
  Vaddr va = parent.Mmap(kLength, kRw);
  parent.address_space().PopulateRange(va, kLength);

  VmDeltas fork;
  Process& child = kernel.Fork(parent, ForkMode::kOnDemand);
  // One PGD entry, one PUD entry and the PMD entries of the VMA's chunks — not the 1 536
  // entries of the three tables on the path.
  EXPECT_LE(fork.Of(VmCounter::k_fork_upper_entries), 1u + 1u + 21u);
  EXPECT_GE(fork.Of(VmCounter::k_fork_upper_entries), 1u + 1u + 20u);
  EXPECT_EQ(fork.Of(VmCounter::k_pte_tables_shared),
            (EntryBase(va + kLength - 1, PtLevel::kPmd) - EntryBase(va, PtLevel::kPmd)) /
                    kPteTableSpan +
                1);
  EXPECT_EQ(fork.Of(VmCounter::k_tlb_flushes), 1u);

  kernel.Exit(child, 0);
  kernel.Wait(parent);
  kernel.Exit(parent, 0);
  EXPECT_TRUE(kernel.allocator().AllFree());
}

TEST(ForkWorkTest, FlushAllChangesTheGenerationOfEveryAddress) {
  MmLockTable locks;
  const Vaddr probes[] = {0, kPageSize, kHugePageSize, 63 * kHugePageSize,
                          64 * kHugePageSize + 5 * kPageSize, kGiB + 3 * kHugePageSize,
                          kUserAddressSpaceEnd - kPageSize};
  std::vector<uint64_t> before;
  for (Vaddr va : probes) {
    before.push_back(locks.ShardGen(va));
  }
  locks.FlushAll();
  for (size_t i = 0; i < std::size(probes); ++i) {
    EXPECT_NE(locks.ShardGen(probes[i]), before[i]) << "va " << probes[i];
  }
}

TEST(ForkWorkTest, WideInvalidateRangeMissesACachedTranslation) {
  Kernel kernel;
  Process& p = kernel.CreateProcess();
  Vaddr va = p.Mmap(kHugePageSize, kRw);
  WriteByte(p, va, std::byte{0x42});
  ASSERT_EQ(ReadByte(p, va), std::byte{0x42});  // Now cached for reads on this thread.
  {
    VmDeltas hit;
    EXPECT_EQ(ReadByte(p, va), std::byte{0x42});
    ASSERT_EQ(hit.Of(VmCounter::k_tlb_hits), 1u);
    ASSERT_EQ(hit.Of(VmCounter::k_tlb_l1_hits), 0u) << "the first read should hit L0";
  }
  // 64 chunks that do not even contain `va`: they cover every shard, so the range costs one
  // flush-generation bump, which must invalidate this translation too.
  Vaddr far = EntryBase(va, PtLevel::kPud) + 4 * kGiB;
  p.address_space().locks().InvalidateRange(far, far + MmLockTable::kShards * kHugePageSize);
  VmDeltas miss;
  EXPECT_EQ(ReadByte(p, va), std::byte{0x42});
  EXPECT_EQ(miss.Of(VmCounter::k_tlb_l1_hits) + miss.Of(VmCounter::k_tlb_misses), 1u)
      << "the L0 entry survived a range that covers every shard";
  kernel.Exit(p, 0);
  EXPECT_TRUE(kernel.allocator().AllFree());
}

// --- Layouts -------------------------------------------------------------------------

// Each layout test forks with both on-demand engines.
class ForkLayoutTest : public ::testing::TestWithParam<ForkMode> {
 protected:
  ForkLayoutTest() : parent_(kernel_.CreateProcess()) {}

  // Maps [hint, hint + length) and fills it with a pattern seeded by `seed`.
  void MapFilledAt(Vaddr hint, uint64_t length, uint64_t seed) {
    ASSERT_EQ(parent_.address_space().MapAnonymous(length, kRw, /*huge=*/false, hint), hint);
    FillPattern(parent_, hint, length, seed);
  }

  // Forks `from`, checks that the child reads every region's bytes, writes into each
  // region of the child and checks that `from` still reads its own bytes.
  Process& ForkAndCheck(Process& from) {
    Process& child = kernel_.Fork(from, GetParam());
    for (const Region& r : regions_) {
      ExpectPattern(child, r.start, r.length, r.seed);
    }
    for (const Region& r : regions_) {
      WriteByte(child, r.start + r.length - 1, std::byte{0xc3});
    }
    for (const Region& r : regions_) {
      ExpectPattern(from, r.start, r.length, r.seed);
    }
    EXPECT_TRUE(debug::VerifyKernel(kernel_).ok());
    return child;
  }

  void ExitAllAndExpectFree(std::initializer_list<Process*> processes) {
    for (Process* p : processes) {
      kernel_.Exit(*p, 0);
    }
    EXPECT_TRUE(debug::VerifyKernel(kernel_).ok());
    while (kernel_.Wait(parent_) != -1) {
    }
    kernel_.Exit(parent_, 0);
    EXPECT_TRUE(kernel_.allocator().AllFree()) << "a layout leaked frames after both exits";
  }

  struct Region {
    Vaddr start;
    uint64_t length;
    uint64_t seed;
  };

  Kernel kernel_;
  Process& parent_;
  std::vector<Region> regions_;
};

TEST_P(ForkLayoutTest, VmasSharingOneChunk) {
  // Three VMAs inside one 2 MiB chunk (guard gaps between them): one PTE table.
  const Vaddr chunk = 8 * kGiB + 6 * kHugePageSize;
  regions_ = {{chunk, 256 * kPageSize, 1},
              {chunk + 260 * kPageSize, 64 * kPageSize, 2},
              {chunk + 400 * kPageSize, 100 * kPageSize, 3}};
  for (const Region& r : regions_) {
    MapFilledAt(r.start, r.length, r.seed);
  }
  Process& child = ForkAndCheck(parent_);
  ExitAllAndExpectFree({&child});
}

TEST_P(ForkLayoutTest, VmaCrossingAPudBoundary) {
  // 6 MiB straddling 9 GiB: its chunks live under two PUD entries (two PMD tables).
  const Vaddr start = 9 * kGiB - 3 * kHugePageSize / 2;
  regions_ = {{start, 3 * kHugePageSize, 4}};
  MapFilledAt(start, 3 * kHugePageSize, 4);
  Process& child = ForkAndCheck(parent_);
  ExitAllAndExpectFree({&child});
}

TEST_P(ForkLayoutTest, VmasUnderTwoPudEntriesMappedHighFirst) {
  // Two spans under different PUD entries of one PGD entry, the higher one mapped first:
  // the fork walks both, and both exits free the tables under each.
  regions_ = {{12 * kGiB + kHugePageSize, 2 * kHugePageSize, 8},
              {8 * kGiB + 5 * kPageSize, kHugePageSize, 9}};
  for (const Region& r : regions_) {
    MapFilledAt(r.start, r.length, r.seed);
  }
  Process& child = ForkAndCheck(parent_);
  ExitAllAndExpectFree({&child});
}

TEST_P(ForkLayoutTest, HolesFromMunmapAndMprotectSplits) {
  const Vaddr start = 10 * kGiB;
  constexpr uint64_t kLength = 16 * kHugePageSize;
  MapFilledAt(start, kLength, 5);
  // An unaligned hole of 5 MiB + 12 KiB, wide enough that the VMAs on either side touch
  // no common chunk (two spans under the same upper tables), and a read-only piece that
  // splits the VMA again.
  const Vaddr hole = start + 3 * kHugePageSize + 5 * kPageSize;
  const uint64_t hole_length = 5 * kHugePageSize / 2 + 3 * kPageSize;
  parent_.Munmap(hole, hole_length);
  const Vaddr ro = start + 9 * kHugePageSize + kHugePageSize / 2;
  const uint64_t ro_length = 2 * kHugePageSize;
  parent_.address_space().Protect(ro, ro_length, kProtRead);
  regions_ = {{start, hole - start, 5},
              {hole + hole_length, ro - (hole + hole_length), 5},
              {ro + ro_length, start + kLength - (ro + ro_length), 5}};

  Process& child = ForkAndCheck(parent_);
  ExpectPattern(child, ro, ro_length, 5);
  std::byte probe{0};
  EXPECT_FALSE(child.ReadMemory(hole + kPageSize, std::span(&probe, 1)))
      << "the child inherited a translation inside the parent's hole";
  EXPECT_FALSE(child.WriteMemory(ro, std::span(&probe, 1)));
  ExitAllAndExpectFree({&child});
}

TEST_P(ForkLayoutTest, TopVmaGrownInPlaceAcrossAPudBoundary) {
  // The highest VMA ends 4 pages below 13 GiB; mremap grows it in place by 4 MiB, so its
  // new pages live under the next PUD entry (a PMD table and PTE tables the mapping's
  // first extent never had). Both exits must free those tables too.
  const Vaddr start = 13 * kGiB - 4 * kPageSize;
  MapFilledAt(start, 4 * kPageSize, 10);
  const uint64_t length = 4 * kPageSize + 2 * kHugePageSize;
  ASSERT_EQ(parent_.Mremap(start, 4 * kPageSize, length), start) << "grown in place";
  FillPattern(parent_, start, length, 10);
  regions_ = {{start, length, 10}};
  Process& child = ForkAndCheck(parent_);
  ExitAllAndExpectFree({&child});
}

TEST_P(ForkLayoutTest, ForkOfFork) {
  const Vaddr start = 11 * kGiB + kHugePageSize / 2;
  regions_ = {{start, 5 * kHugePageSize, 6}, {start + 6 * kHugePageSize, kHugePageSize, 7}};
  for (const Region& r : regions_) {
    MapFilledAt(r.start, r.length, r.seed);
  }
  Process& child = kernel_.Fork(parent_, GetParam());
  // The grandchild forks from a child whose tables are all still shared with the parent.
  Process& grandchild = ForkAndCheck(child);
  for (const Region& r : regions_) {
    ExpectPattern(parent_, r.start, r.length, r.seed);
  }
  kernel_.Exit(grandchild, 0);
  EXPECT_TRUE(debug::VerifyKernel(kernel_).ok());
  while (kernel_.Wait(child) != -1) {
  }
  ExitAllAndExpectFree({&child});
}

INSTANTIATE_TEST_SUITE_P(OnDemandEngines, ForkLayoutTest,
                         ::testing::Values(ForkMode::kOnDemand, ForkMode::kOnDemandHuge),
                         [](const ::testing::TestParamInfo<ForkMode>& param_info) {
                           return param_info.param == ForkMode::kOnDemand ? "OnDemand"
                                                                          : "OnDemandHuge";
                         });

// --- Instrumentation -----------------------------------------------------------------

class ProfiledForkTest : public ::testing::TestWithParam<ForkMode> {};

TEST_P(ProfiledForkTest, FillsThePhasesOfItsEngine) {
  Kernel kernel;
  Process& parent = kernel.CreateProcess();
  constexpr uint64_t kLength = 8ull << 20;
  Vaddr va = parent.Mmap(kLength, kRw);
  parent.address_space().PopulateRange(va, kLength);

  ForkProfile profile;
  VmDeltas fork;
  Process& child = kernel.Fork(parent, GetParam(), &profile);
  EXPECT_LE(profile.AttributedNs(), profile.total_ns);
  if (GetParam() == ForkMode::kClassic) {
    EXPECT_GT(profile.meta_resolve_ns, 0u);
    EXPECT_GT(profile.refcount_ns, 0u);
    EXPECT_GT(profile.entry_copy_ns, 0u);
    EXPECT_GT(profile.table_alloc_ns, 0u);
    EXPECT_EQ(fork.Of(VmCounter::k_fork_pte_entries_copied), kLength / kPageSize);
  } else {
    EXPECT_GT(profile.upper_level_ns, 0u);
    EXPECT_EQ(profile.meta_resolve_ns + profile.refcount_ns + profile.entry_copy_ns +
                  profile.table_alloc_ns,
              0u);
  }

  kernel.Exit(child, 0);
  kernel.Wait(parent);
  kernel.Exit(parent, 0);
  EXPECT_TRUE(kernel.allocator().AllFree());
}

INSTANTIATE_TEST_SUITE_P(AllEngines, ProfiledForkTest,
                         ::testing::Values(ForkMode::kClassic, ForkMode::kOnDemand,
                                           ForkMode::kOnDemandHuge),
                         [](const ::testing::TestParamInfo<ForkMode>& param_info) {
                           switch (param_info.param) {
                             case ForkMode::kClassic:
                               return "Classic";
                             case ForkMode::kOnDemand:
                               return "OnDemand";
                             case ForkMode::kOnDemandHuge:
                               return "OnDemandHuge";
                           }
                           return "?";
                         });

// Takes 64 x 64 COW-page faults on this thread with tracing set to `tracing`, and returns
// how far the fault_cow_page_ns sample count and the pgfault_cow_page counter moved.
std::pair<uint64_t, uint64_t> CowFaultSamples(bool tracing) {
  Kernel kernel;
  Process& parent = kernel.CreateProcess();
  constexpr uint64_t kPages = 64 * 64;
  Vaddr va = parent.Mmap(kPages * kPageSize, kRw);
  parent.address_space().PopulateRange(va, kPages * kPageSize);
  Process& child = kernel.Fork(parent, ForkMode::kClassic);
  const LatencyHistogram& histogram =
      MetricsRegistry::Global().RegisterHistogram("fault_cow_page_ns");

  const uint64_t samples_before = histogram.TotalCount();
  VmDeltas faults;
  trace::SetEnabled(tracing);
  for (uint64_t i = 0; i < kPages; ++i) {
    WriteByte(child, va + i * kPageSize, std::byte{1});
  }
  trace::SetEnabled(false);
  trace::Tracer::Global().Clear();
  std::pair<uint64_t, uint64_t> moved = {histogram.TotalCount() - samples_before,
                                         faults.Of(VmCounter::k_pgfault_cow_page)};

  kernel.Exit(child, 0);
  kernel.Wait(parent);
  kernel.Exit(parent, 0);
  return moved;
}

TEST(FaultHistogramTest, SamplesCowFaultsWithTracingOff) {
  auto [samples, faults] = CowFaultSamples(/*tracing=*/false);
  EXPECT_EQ(faults, 64u * 64u);
  EXPECT_GT(samples, 0u);
  EXPECT_LE(samples, faults);
}

TEST(FaultHistogramTest, TimesEveryCowFaultWithTracingOn) {
#if !ODF_TRACE_COMPILED
  GTEST_SKIP() << "tracepoints compiled out (ODF_TRACE=OFF)";
#endif
  auto [samples, faults] = CowFaultSamples(/*tracing=*/true);
  EXPECT_EQ(faults, 64u * 64u);
  EXPECT_EQ(samples, faults);
}

}  // namespace
}  // namespace odf
