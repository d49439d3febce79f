// odf::debug verifier coverage: each test seeds one deliberate corruption of the kind
// the paper's mechanism is most exposed to (stale PTEs, drifted refcounts, wrong table
// share counts, writes to freed frames) and asserts VerifyKernel reports it — then
// restores the damage and asserts the kernel verifies clean again, proving the detection
// is specific, not noise. VerifyKernel is compiled into every build; only the poison
// canary subtest and the VM_BUG_ON death test require the debug-vm preset and skip
// themselves elsewhere.
#include <gtest/gtest.h>

#include "src/debug/verify.h"
#include "src/pt/pte.h"
#include "src/pt/walker.h"
#include "tests/test_util.h"

namespace odf {
namespace {

class DebugVmTest : public ::testing::Test {
 protected:
  // Seeded corruptions would make the automatic post-mutation verifier abort the test
  // before its EXPECT; run the verifier by hand instead.
  void SetUp() override { debug::SetAutoVerify(false); }
  void TearDown() override { debug::SetAutoVerify(true); }
};

TEST_F(DebugVmTest, CleanKernelVerifiesOk) {
  Kernel kernel;
  Process& parent = kernel.CreateProcess();
  Vaddr va = parent.Mmap(8 * kPageSize, kProtRead | kProtWrite);
  FillPattern(parent, va, 8 * kPageSize, 1);
  kernel.Fork(parent, ForkMode::kOnDemand);
  debug::VerifyResult result = debug::VerifyKernel(kernel);
  EXPECT_TRUE(result.ok()) << result.Describe();
  std::string text = result.Describe();
  EXPECT_EQ(text.rfind("verified 2 processes, ", 0), 0u) << text;
  EXPECT_EQ(text.substr(text.size() - 4), ": OK") << text;
  EXPECT_EQ(result.processes_audited, 2u);
  EXPECT_GT(result.frames_swept, 0u);
  EXPECT_GT(result.leaf_entries_checked, 0u);
}

TEST_F(DebugVmTest, CatchesRefcountOffByOne) {
  Kernel kernel;
  Process& p = kernel.CreateProcess();
  Vaddr va = p.Mmap(kPageSize, kProtRead | kProtWrite);
  FillPattern(p, va, kPageSize, 2);
  AddressSpace& as = p.address_space();
  Translation t = as.walker().Translate(as.pgd(), va, AccessType::kRead);
  ASSERT_EQ(t.status, TranslateStatus::kOk);

  kernel.allocator().IncRef(t.frame);  // One reference nothing maps.
  debug::VerifyResult result = debug::VerifyKernel(kernel);
  EXPECT_FALSE(result.ok()) << "a refcount with no matching mapping must be reported";
  EXPECT_NE(result.Describe().find(" violations\n  - "), std::string::npos)
      << result.Describe();

  kernel.allocator().DecRef(t.frame);
  EXPECT_TRUE(debug::VerifyKernel(kernel).ok());
}

TEST_F(DebugVmTest, CatchesStalePteToFreedFrame) {
  Kernel kernel;
  Process& p = kernel.CreateProcess();
  Vaddr va = p.Mmap(kPageSize, kProtRead | kProtWrite);
  FillPattern(p, va, kPageSize, 3);
  // A frame that was genuinely allocated and freed: the worst-case dangling target.
  FrameId freed = kernel.allocator().Allocate(kPageFlagAnon);
  kernel.allocator().DecRef(freed);

  AddressSpace& as = p.address_space();
  uint64_t* slot = as.walker().FindEntry(as.pgd(), va, PtLevel::kPte);
  ASSERT_NE(slot, nullptr);
  Pte good = LoadEntry(slot);
  ASSERT_TRUE(good.IsPresent());
  StoreEntry(slot, Pte::Make(freed, good.flags()));
  as.locks().FlushAll();  // The stale entry must be read from the table, not a cache.

  EXPECT_FALSE(debug::VerifyKernel(kernel).ok())
      << "a present PTE referencing a freed frame must be reported";

  StoreEntry(slot, good);
  as.locks().FlushAll();
  EXPECT_TRUE(debug::VerifyKernel(kernel).ok());
}

TEST_F(DebugVmTest, CatchesPtShareCountDrift) {
  Kernel kernel;
  Process& p = kernel.CreateProcess();
  Vaddr va = p.Mmap(kHugePageSize, kProtRead | kProtWrite);
  FillPattern(p, va, kHugePageSize, 4);
  kernel.Fork(p, ForkMode::kOnDemand);  // Shares the PTE table (§3.6).

  AddressSpace& as = p.address_space();
  uint64_t* pmd = as.walker().FindEntry(as.pgd(), va, PtLevel::kPmd);
  ASSERT_NE(pmd, nullptr);
  FrameId table = LoadEntry(pmd).frame();

  kernel.allocator().IncPtShare(table);  // Claims a sharer that does not exist.
  EXPECT_FALSE(debug::VerifyKernel(kernel).ok())
      << "a pt_share_count disagreeing with the sharing topology must be reported";

  EXPECT_EQ(kernel.allocator().DecPtShare(table), 3u);
  EXPECT_TRUE(debug::VerifyKernel(kernel).ok());
}

TEST_F(DebugVmTest, CatchesMutatedFreedFrame) {
  Kernel kernel;
  Process& p = kernel.CreateProcess();
  Vaddr va = p.Mmap(kPageSize, kProtRead | kProtWrite);
  FillPattern(p, va, kPageSize, 5);
  FrameId freed = kernel.allocator().Allocate(kPageFlagAnon);
  kernel.allocator().DecRef(freed);
  PageMeta& meta = kernel.allocator().GetMeta(freed);

  // odf-lint: allow(raw-refcount) — deliberate stale write to a freed frame under test.
  meta.refcount.store(1, std::memory_order_relaxed);
  EXPECT_FALSE(debug::VerifyKernel(kernel).ok())
      << "a freed frame with a nonzero refcount must be reported";
  // odf-lint: allow(raw-refcount) — undo the seeded corruption.
  meta.refcount.store(0, std::memory_order_relaxed);
  EXPECT_TRUE(debug::VerifyKernel(kernel).ok());
}

TEST_F(DebugVmTest, CatchesFreedFramePoisonOverwrite) {
  if (!debug::Compiled()) {
    GTEST_SKIP() << "poison canaries exist only in debug-vm builds (-DODF_DEBUG_VM=ON)";
  }
  Kernel kernel;
  FrameId freed = kernel.allocator().Allocate(kPageFlagAnon);
  kernel.allocator().DecRef(freed);
  PageMeta& meta = kernel.allocator().GetMeta(freed);
  ASSERT_EQ(meta.reserved, debug::kPoisonFreed);

  meta.reserved = 0x1234;  // The stale-write the canary is there to catch.
  EXPECT_FALSE(debug::VerifyKernel(kernel).ok())
      << "a clobbered free-frame canary must be reported";

  meta.reserved = debug::kPoisonFreed;
  EXPECT_TRUE(debug::VerifyKernel(kernel).ok());
}

TEST_F(DebugVmTest, AutoVerifyRunsAfterForkExitAndZap) {
  if (!debug::Compiled()) {
    GTEST_SKIP() << "the automatic hook compiles out with -DODF_DEBUG_VM=OFF";
  }
  debug::SetAutoVerify(true);
  uint64_t runs_before = debug::GetVerifyStats().runs;
  Kernel kernel;
  Process& p = kernel.CreateProcess();
  Vaddr va = p.Mmap(4 * kPageSize, kProtRead | kProtWrite);
  FillPattern(p, va, 4 * kPageSize, 6);
  Process& child = kernel.Fork(p, ForkMode::kOnDemand);  // hook: fork
  p.Munmap(va, 4 * kPageSize);                           // hook: zap
  kernel.Exit(child, 0);                                 // hook: exit
  EXPECT_GE(debug::GetVerifyStats().runs - runs_before, 3u)
      << "fork, zap, and exit must each trigger an automatic verification";
}

using DebugVmDeathTest = DebugVmTest;

TEST_F(DebugVmDeathTest, DecRefOnFreedFrameAborts) {
  if (!debug::Compiled()) {
    GTEST_SKIP() << "VM_BUG_ON compiles out with -DODF_DEBUG_VM=OFF";
  }
  FrameAllocator allocator;
  FrameId frame = allocator.Allocate(kPageFlagAnon);
  allocator.DecRef(frame);
  EXPECT_DEATH(allocator.DecRef(frame), "VM_BUG_ON");
}

}  // namespace
}  // namespace odf
