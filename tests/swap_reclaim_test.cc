// Memory pressure (paper §4 "Robustness"): frame quota, direct reclaim (second chance over
// accessed bits, rmap-driven swap-out), the swap device, swap-entry interaction with both
// fork flavours, and the OOM killer.
#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace odf {
namespace {

TEST(SwapSpaceTest, WriteReadRoundTrip) {
  SwapSpace swap;
  std::vector<std::byte> page(kPageSize);
  for (size_t i = 0; i < page.size(); ++i) {
    page[i] = static_cast<std::byte>(i * 3);
  }
  SwapSlot slot = swap.WriteOut(page.data());
  std::vector<std::byte> back(kPageSize);
  swap.ReadIn(slot, back.data());
  EXPECT_EQ(back, page);
  EXPECT_EQ(swap.Stats().slots_in_use, 1u);
  swap.DecRef(slot);
  EXPECT_TRUE(swap.AllFree());
}

TEST(SwapSpaceTest, ZeroPagesNeedNoStorage) {
  SwapSpace swap;
  SwapSlot slot = swap.WriteOut(nullptr);
  std::vector<std::byte> back(kPageSize, std::byte{0xff});
  swap.ReadIn(slot, back.data());
  for (std::byte b : back) {
    ASSERT_EQ(b, std::byte{0});
  }
  swap.DecRef(slot);
}

TEST(SwapSpaceTest, RefcountingAndRecycling) {
  SwapSpace swap;
  std::vector<std::byte> page(kPageSize, std::byte{7});
  SwapSlot a = swap.WriteOut(page.data());
  swap.IncRef(a);
  swap.DecRef(a);
  EXPECT_EQ(swap.Stats().slots_in_use, 1u);
  swap.DecRef(a);
  EXPECT_EQ(swap.Stats().slots_in_use, 0u);
  SwapSlot b = swap.WriteOut(page.data());
  EXPECT_EQ(b, a) << "freed slots should be recycled";
  swap.DecRef(b);
}

class ReclaimTest : public ::testing::Test {
 protected:
  ReclaimTest() : p_(kernel_.CreateProcess()) {}

  Kernel kernel_;
  Process& p_;
};

TEST_F(ReclaimTest, ClockSwapsOutColdPagesAfterSecondChance) {
  Vaddr va = p_.Mmap(64 * kPageSize, kProtRead | kProtWrite);
  FillPattern(p_, va, 64 * kPageSize, 1);

  // The first scan gives every recently written page its second chance (accessed bit
  // harvested, page re-activated); the aging pass then demotes them cold and the next scan
  // evicts them — all inside one direct-reclaim call.
  VmDeltas reclaim;
  EXPECT_EQ(kernel_.ReclaimMemory(1000), 64u);
  EXPECT_EQ(reclaim.Of(VmCounter::k_pgactivate), 64u)
      << "all pages were recently accessed: each got its second chance first";
  EXPECT_EQ(reclaim.Of(VmCounter::k_pgswapout), 64u);
  EXPECT_EQ(kernel_.swap_space().Stats().slots_in_use, 64u);

  // Content must survive the round trip through the device (swap-in faults).
  VmDeltas reads;
  ExpectPattern(p_, va, 64 * kPageSize, 1);
  EXPECT_EQ(reads.Of(VmCounter::k_pgfault_swap_in), 64u);
  EXPECT_TRUE(kernel_.swap_space().AllFree());
}

TEST_F(ReclaimTest, AccessedPagesSurviveOnePass) {
  Vaddr va = p_.Mmap(48 * kPageSize, kProtRead | kProtWrite);
  FillPattern(p_, va, 48 * kPageSize, 2);
  // Every page takes its second chance (accessed bits cleared), then the 16 coldest go.
  ASSERT_EQ(kernel_.ReclaimMemory(16), 16u);
  std::vector<uint8_t> residency = p_.Mincore(va, 48 * kPageSize);
  std::vector<Vaddr> resident;
  for (uint64_t i = 0; i < residency.size(); ++i) {
    if (residency[i] == 1) {
      resident.push_back(va + i * kPageSize);
    }
  }
  ASSERT_EQ(resident.size(), 32u);
  // Touch half of the survivors again: those pages get their accessed bit back.
  for (size_t i = 0; i < 16; ++i) {
    ReadByte(p_, resident[i]);
  }
  uint64_t freed = kernel_.ReclaimMemory(16);
  EXPECT_EQ(freed, 16u) << "only the untouched half is cold";
  residency = p_.Mincore(va, 48 * kPageSize);
  for (size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(residency[(resident[i] - va) / kPageSize], 1) << "touched page was evicted";
  }
  ExpectPattern(p_, va, 48 * kPageSize, 2);
}

TEST_F(ReclaimTest, NeverMaterializedPagesAreDroppedWithoutSwap) {
  Vaddr va = p_.Mmap(16 * kPageSize, kProtRead | kProtWrite);
  p_.address_space().PopulateRange(va, 16 * kPageSize);
  uint64_t freed = kernel_.ReclaimMemory(1000);
  EXPECT_EQ(freed, 16u);
  EXPECT_EQ(kernel_.swap_space().Stats().writes, 0u) << "zero pages need no swap slots";
  EXPECT_EQ(ReadByte(p_, va), std::byte{0});
}

class SwapForkTest : public ReclaimTest, public ::testing::WithParamInterface<ForkMode> {};

TEST_P(SwapForkTest, ForkWithSwappedPagesKeepsCowSemantics) {
  Vaddr va = p_.Mmap(32 * kPageSize, kProtRead | kProtWrite);
  FillPattern(p_, va, 32 * kPageSize, 4);
  uint64_t freed = kernel_.ReclaimMemory(1000);
  ASSERT_EQ(freed, 32u);

  Process& child = kernel_.Fork(p_, GetParam());
  // Both sides fault their own copies in; writes stay private.
  WriteByte(child, va + 5, std::byte{0xc1});
  EXPECT_EQ(ReadByte(child, va + 5), std::byte{0xc1});
  ExpectPattern(p_, va, 32 * kPageSize, 4);
  // And the child sees the parent's pre-fork data everywhere else.
  auto original = [&](Vaddr addr) {
    return static_cast<std::byte>((4 * 1099511628211ULL + addr) >> 5);
  };
  EXPECT_EQ(ReadByte(child, va + 6), original(va + 6));

  kernel_.Exit(child, 0);
  kernel_.Wait(p_);
  kernel_.Exit(p_, 0);
  EXPECT_TRUE(kernel_.allocator().AllFree());
  EXPECT_TRUE(kernel_.swap_space().AllFree()) << "swap slots leaked";
}

TEST_P(SwapForkTest, UnmapReleasesSwapSlots) {
  Vaddr va = p_.Mmap(16 * kPageSize, kProtRead | kProtWrite);
  FillPattern(p_, va, 16 * kPageSize, 5);
  ASSERT_EQ(kernel_.ReclaimMemory(1000), 16u);
  Process& child = kernel_.Fork(p_, GetParam());
  ASSERT_GT(kernel_.swap_space().Stats().slots_in_use, 0u);
  child.Munmap(va, 16 * kPageSize);
  p_.Munmap(va, 16 * kPageSize);
  EXPECT_TRUE(kernel_.swap_space().AllFree());
}

INSTANTIATE_TEST_SUITE_P(BothForks, SwapForkTest,
                         ::testing::Values(ForkMode::kClassic, ForkMode::kOnDemand),
                         [](const auto& param_info) {
                           return param_info.param == ForkMode::kClassic ? "classic"
                                                                         : "ondemand";
                         });

TEST(MemoryPressureTest, QuotaTriggersTransparentSwapping) {
  Kernel kernel;
  Process& p = kernel.CreateProcess();
  // Budget: 2048 frames (8 MiB of simulated RAM). Write 12 MiB of data through it.
  kernel.SetMemoryLimitFrames(2048);
  Vaddr va = p.Mmap(12 << 20, kProtRead | kProtWrite);
  FillPattern(p, va, 12 << 20, 6);
  EXPECT_GT(kernel.swap_space().Stats().writes, 0u)
      << "filling past the quota must push pages to swap";
  EXPECT_LE(kernel.allocator().Stats().allocated_frames, 2048u);
  // Every byte must still read back correctly through swap-in faults.
  VmDeltas reads;
  ExpectPattern(p, va, 12 << 20, 6);
  EXPECT_GT(reads.Of(VmCounter::k_pgfault_swap_in), 0u);
  EXPECT_EQ(kernel.oom_kills(), 0u);
  kernel.Exit(p, 0);
  EXPECT_TRUE(kernel.allocator().AllFree());
  EXPECT_TRUE(kernel.swap_space().AllFree());
}

TEST(MemoryPressureTest, ForkUnderPressureStaysCorrect) {
  Kernel kernel;
  kernel.SetMemoryLimitFrames(3072);  // 12 MiB simulated RAM.
  Process& p = kernel.CreateProcess();
  Vaddr va = p.Mmap(8 << 20, kProtRead | kProtWrite);
  FillPattern(p, va, 8 << 20, 7);

  Process& child = kernel.Fork(p, ForkMode::kOnDemand);
  WriteByte(child, va + 1000, std::byte{0x3c});
  ExpectPattern(p, va, 8 << 20, 7);
  EXPECT_EQ(ReadByte(child, va + 1000), std::byte{0x3c});
  kernel.Exit(child, 0);
  kernel.Wait(p);
  kernel.Exit(p, 0);
  EXPECT_TRUE(kernel.allocator().AllFree());
  EXPECT_TRUE(kernel.swap_space().AllFree());
}

TEST(MemoryPressureTest, OomKillerFiresWhenNothingIsReclaimable) {
  Kernel kernel;
  Process& small = kernel.CreateProcess();
  Process& big = kernel.CreateProcess();

  // Huge (compound) pages are not on the LRU, so the reclaimer cannot swap them; filling
  // the machine with them leaves the OOM killer as the only way out — like a
  // hugetlbfs-heavy box.
  Vaddr big_va = big.Mmap(8 * kHugePageSize, kProtRead | kProtWrite, /*huge=*/true);
  WriteByte(big, big_va, std::byte{1});  // Populate all 8 compounds.
  for (int i = 1; i < 8; ++i) {
    WriteByte(big, big_va + static_cast<uint64_t>(i) * kHugePageSize, std::byte{1});
  }
  Vaddr small_va = small.Mmap(kHugePageSize, kProtRead | kProtWrite, /*huge=*/true);
  WriteByte(small, small_va, std::byte{2});

  // Cap RAM just above current usage: the next compound allocation cannot fit, nothing is
  // reclaimable, so the largest process must die.
  kernel.SetMemoryLimitFrames(kernel.allocator().Stats().allocated_frames + 4);
  Vaddr extra = small.Mmap(kHugePageSize, kProtRead | kProtWrite, /*huge=*/true);
  WriteByte(small, extra, std::byte{3});

  EXPECT_GE(kernel.oom_kills(), 1u);
  EXPECT_EQ(big.state(), ProcessState::kZombie) << "the largest process should be the victim";
  EXPECT_EQ(small.state(), ProcessState::kRunning);
  EXPECT_EQ(ReadByte(small, extra), std::byte{3});
  EXPECT_EQ(ReadByte(small, small_va), std::byte{2});
}

}  // namespace
}  // namespace odf
