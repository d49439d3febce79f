// madvise(MADV_DONTNEED) and mincore analogs, including their interaction with COW sharing
// and the swap device.
#include <gtest/gtest.h>

#include "src/proc/auditor.h"
#include "tests/test_util.h"

namespace odf {
namespace {

class MadviseTest : public ::testing::Test {
 protected:
  MadviseTest() : p_(kernel_.CreateProcess()) {}

  Kernel kernel_;
  Process& p_;
};

TEST_F(MadviseTest, DontNeedZeroesAnonymousMemory) {
  Vaddr va = p_.Mmap(16 * kPageSize, kProtRead | kProtWrite);
  FillPattern(p_, va, 16 * kPageSize, 1);
  uint64_t frames_before = kernel_.allocator().Stats().allocated_frames;
  p_.MadviseDontNeed(va, 16 * kPageSize);
  EXPECT_LT(kernel_.allocator().Stats().allocated_frames, frames_before)
      << "DONTNEED must release the backing frames";
  for (Vaddr addr = va; addr < va + 16 * kPageSize; addr += kPageSize) {
    EXPECT_EQ(ReadByte(p_, addr), std::byte{0});
  }
  // The mapping itself survives: writes work again.
  WriteByte(p_, va, std::byte{7});
  EXPECT_EQ(ReadByte(p_, va), std::byte{7});
}

TEST_F(MadviseTest, DontNeedOnSubrangeKeepsTheRest) {
  Vaddr va = p_.Mmap(8 * kPageSize, kProtRead | kProtWrite);
  FillPattern(p_, va, 8 * kPageSize, 2);
  p_.MadviseDontNeed(va + 2 * kPageSize, 2 * kPageSize);
  ExpectPattern(p_, va, 2 * kPageSize, 2);
  EXPECT_EQ(ReadByte(p_, va + 2 * kPageSize), std::byte{0});
  EXPECT_EQ(ReadByte(p_, va + 3 * kPageSize), std::byte{0});
  ExpectPattern(p_, va + 4 * kPageSize, 4 * kPageSize, 2);
  EXPECT_EQ(p_.address_space().vmas().size(), 1u) << "madvise must not split the VMA";
}

TEST_F(MadviseTest, DontNeedRevertsPrivateFilePagesToCache) {
  auto file = kernel_.fs().Open("/f");
  std::vector<std::byte> content(2 * kPageSize, std::byte{0x44});
  file->Write(0, content);
  Vaddr va = p_.address_space().MapFile(file, 0, 2 * kPageSize, kProtRead | kProtWrite,
                                        /*shared=*/false);
  WriteByte(p_, va, std::byte{0x99});  // COW off the cache.
  EXPECT_EQ(ReadByte(p_, va), std::byte{0x99});
  p_.MadviseDontNeed(va, 2 * kPageSize);
  EXPECT_EQ(ReadByte(p_, va), std::byte{0x44}) << "DONTNEED must restore the file view";
}

TEST_F(MadviseTest, DontNeedInChildLeavesParentAndSharedTableIntact) {
  Vaddr va = p_.Mmap(2 * kHugePageSize, kProtRead | kProtWrite);
  FillPattern(p_, va, 2 * kHugePageSize, 3);
  Process& child = kernel_.Fork(p_, ForkMode::kOnDemand);
  child.MadviseDontNeed(va, 2 * kHugePageSize);
  EXPECT_EQ(ReadByte(child, va), std::byte{0});
  ExpectPattern(p_, va, 2 * kHugePageSize, 3);
  AuditResult audit = AuditKernel(kernel_);
  EXPECT_TRUE(audit.ok()) << audit.Describe();
}

TEST_F(MadviseTest, DontNeedReleasesSwapSlots) {
  Vaddr va = p_.Mmap(32 * kPageSize, kProtRead | kProtWrite);
  FillPattern(p_, va, 32 * kPageSize, 4);
  kernel_.ReclaimMemory(1000);
  ASSERT_GT(kernel_.swap_space().Stats().slots_in_use, 0u);
  p_.MadviseDontNeed(va, 32 * kPageSize);
  EXPECT_TRUE(kernel_.swap_space().AllFree())
      << "dropping swapped pages must free their slots";
  EXPECT_EQ(ReadByte(p_, va), std::byte{0});
}

TEST_F(MadviseTest, MincoreReportsResidency) {
  Vaddr va = p_.Mmap(8 * kPageSize, kProtRead | kProtWrite);
  WriteByte(p_, va + kPageSize, std::byte{1});
  WriteByte(p_, va + 5 * kPageSize, std::byte{1});
  std::vector<uint8_t> residency = p_.Mincore(va, 8 * kPageSize);
  ASSERT_EQ(residency.size(), 8u);
  EXPECT_EQ(residency[0], 0);
  EXPECT_EQ(residency[1], 1);
  EXPECT_EQ(residency[5], 1);
  EXPECT_EQ(residency[7], 0);
}

TEST_F(MadviseTest, MincoreReportsSwappedPages) {
  Vaddr va = p_.Mmap(4 * kPageSize, kProtRead | kProtWrite);
  FillPattern(p_, va, 4 * kPageSize, 5);
  kernel_.ReclaimMemory(1000);
  std::vector<uint8_t> residency = p_.Mincore(va, 4 * kPageSize);
  for (uint8_t state : residency) {
    EXPECT_EQ(state, 2) << "every page should be on swap";
  }
  ExpectPattern(p_, va, 4 * kPageSize, 5);  // Swap back in.
  residency = p_.Mincore(va, 4 * kPageSize);
  for (uint8_t state : residency) {
    EXPECT_EQ(state, 1);
  }
}

TEST_F(MadviseTest, MincoreSeesHugeMappings) {
  Vaddr va = p_.Mmap(kHugePageSize, kProtRead | kProtWrite, /*huge=*/true);
  std::vector<uint8_t> before = p_.Mincore(va, kHugePageSize);
  for (uint8_t state : before) {
    EXPECT_EQ(state, 0);
  }
  WriteByte(p_, va, std::byte{1});
  std::vector<uint8_t> after = p_.Mincore(va, kHugePageSize);
  for (uint8_t state : after) {
    EXPECT_EQ(state, 1) << "one write populates the whole 2 MiB mapping";
  }
}

TEST_F(MadviseTest, FuzzerStyleResetLoop) {
  // The fuzzing pattern madvise exists for: reset a scratch region between runs without
  // remapping. Every iteration must observe zeros, cheaply.
  Vaddr scratch = p_.Mmap(64 * kPageSize, kProtRead | kProtWrite);
  for (int run = 0; run < 20; ++run) {
    EXPECT_EQ(ReadByte(p_, scratch + static_cast<uint64_t>(run) * kPageSize), std::byte{0});
    ASSERT_TRUE(p_.MemsetMemory(scratch, std::byte{0xcc}, 64 * kPageSize));
    p_.MadviseDontNeed(scratch, 64 * kPageSize);
  }
  EXPECT_TRUE(kernel_.allocator().Stats().allocated_frames <
              64 + kernel_.allocator().Stats().page_table_frames + 8)
      << "the reset loop must not accumulate frames";
}

}  // namespace
}  // namespace odf
