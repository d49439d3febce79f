// Huge (2 MiB) pages: PMD-level mappings, compound pages, fork behaviour, and the 512x COW
// amplification the paper attributes to them (§2.3).
#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace odf {
namespace {

class HugePageTest : public ::testing::Test {
 protected:
  HugePageTest() : p_(kernel_.CreateProcess()) {}

  Pte PmdEntryOf(Process& p, Vaddr va) {
    AddressSpace& as = p.address_space();
    uint64_t* pmd = as.walker().FindEntry(as.pgd(), va, PtLevel::kPmd);
    return pmd == nullptr ? Pte() : LoadEntry(pmd);
  }

  Kernel kernel_;
  Process& p_;
};

TEST_F(HugePageTest, MmapHugeIsAlignedAndPmdMapped) {
  Vaddr va = p_.Mmap(3 * kHugePageSize, kProtRead | kProtWrite, /*huge=*/true);
  EXPECT_TRUE(IsHugeAligned(va));
  WriteByte(p_, va, std::byte{1});
  Pte pmd = PmdEntryOf(p_, va);
  EXPECT_TRUE(pmd.IsPresent());
  EXPECT_TRUE(pmd.IsHuge());
  EXPECT_TRUE(kernel_.allocator().GetMeta(pmd.frame()).IsCompoundHead());
}

TEST_F(HugePageTest, HugeLengthIsRoundedUpTo2MiB) {
  Vaddr va = p_.Mmap(kHugePageSize + 1, kProtRead | kProtWrite, /*huge=*/true);
  VmArea* vma = p_.address_space().FindVma(va);
  ASSERT_NE(vma, nullptr);
  EXPECT_EQ(vma->length(), 2 * kHugePageSize);
}

TEST_F(HugePageTest, WriteReadRoundTripAcrossHugePages) {
  Vaddr va = p_.Mmap(2 * kHugePageSize, kProtRead | kProtWrite, /*huge=*/true);
  FillPattern(p_, va, 2 * kHugePageSize, 21);
  ExpectPattern(p_, va, 2 * kHugePageSize, 21);
}

TEST_F(HugePageTest, DemandFaultAllocatesOneCompoundPer2MiB) {
  Vaddr va = p_.Mmap(4 * kHugePageSize, kProtRead | kProtWrite, /*huge=*/true);
  WriteByte(p_, va, std::byte{1});
  WriteByte(p_, va + 3 * kHugePageSize, std::byte{1});
  EXPECT_EQ(kernel_.allocator().Stats().allocated_frames,
            2 * (1u << kHugePageOrder) + kernel_.allocator().Stats().page_table_frames);
}

class HugeForkTest : public HugePageTest, public ::testing::WithParamInterface<ForkMode> {};

TEST_P(HugeForkTest, ForkSharesCompoundsWithRefcount) {
  Vaddr va = p_.Mmap(kHugePageSize, kProtRead | kProtWrite, /*huge=*/true);
  FillPattern(p_, va, kHugePageSize, 22);
  FrameId head = PmdEntryOf(p_, va).frame();
  Process& child = kernel_.Fork(p_, GetParam());
  EXPECT_EQ(kernel_.allocator().GetMeta(head).refcount.load(), 2u);
  EXPECT_FALSE(PmdEntryOf(p_, va).IsWritable());
  EXPECT_FALSE(PmdEntryOf(child, va).IsWritable());
  ExpectPattern(child, va, kHugePageSize, 22);
}

TEST_P(HugeForkTest, WriteCopiesWhole2MiB) {
  Vaddr va = p_.Mmap(kHugePageSize, kProtRead | kProtWrite, /*huge=*/true);
  FillPattern(p_, va, kHugePageSize, 23);
  Process& child = kernel_.Fork(p_, GetParam());
  uint64_t materialized = kernel_.allocator().Stats().materialized_bytes;
  VmDeltas write;
  WriteByte(child, va + 12345, std::byte{0x44});
  EXPECT_EQ(write.Of(VmCounter::k_pgfault_cow_huge), 1u);
  EXPECT_EQ(kernel_.allocator().Stats().materialized_bytes - materialized, kHugePageSize)
      << "a huge COW fault copies the entire 2 MiB page (the paper's 512x cost)";
  EXPECT_EQ(ReadByte(child, va + 12345), std::byte{0x44});
  ExpectPattern(p_, va, kHugePageSize, 23);
}

TEST_P(HugeForkTest, SoleOwnerHugeWriteReuses) {
  Vaddr va = p_.Mmap(kHugePageSize, kProtRead | kProtWrite, /*huge=*/true);
  FillPattern(p_, va, kHugePageSize, 24);
  Process& child = kernel_.Fork(p_, GetParam());
  kernel_.Exit(child, 0);
  kernel_.Wait(p_);
  VmDeltas write;
  WriteByte(p_, va, std::byte{1});
  EXPECT_EQ(write.Of(VmCounter::k_pgfault_cow_huge), 0u);
  EXPECT_GE(write.Of(VmCounter::k_pgfault_cow_reuse), 1u);
}

TEST_P(HugeForkTest, NoLeaks) {
  Vaddr va = p_.Mmap(2 * kHugePageSize, kProtRead | kProtWrite, /*huge=*/true);
  FillPattern(p_, va, 2 * kHugePageSize, 25);
  Process& child = kernel_.Fork(p_, GetParam());
  WriteByte(child, va, std::byte{1});
  kernel_.Exit(child, 0);
  kernel_.Wait(p_);
  p_.Munmap(va, 2 * kHugePageSize);
  kernel_.Exit(p_, 0);
  EXPECT_TRUE(kernel_.allocator().AllFree());
}

INSTANTIATE_TEST_SUITE_P(BothForks, HugeForkTest,
                         ::testing::Values(ForkMode::kClassic, ForkMode::kOnDemand),
                         [](const auto& param_info) {
                           return param_info.param == ForkMode::kClassic ? "classic" : "ondemand";
                         });

}  // namespace
}  // namespace odf
