#include "src/phys/frame_allocator.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace odf {
namespace {

TEST(FrameAllocatorTest, AllocateReturnsDistinctFrames) {
  FrameAllocator allocator;
  std::set<FrameId> seen;
  for (int i = 0; i < 1000; ++i) {
    FrameId frame = allocator.Allocate(kPageFlagAnon);
    EXPECT_TRUE(seen.insert(frame).second) << "frame " << frame << " handed out twice";
  }
  EXPECT_EQ(allocator.Stats().allocated_frames, 1000u);
}

TEST(FrameAllocatorTest, AllocateSetsInitialState) {
  FrameAllocator allocator;
  FrameId frame = allocator.Allocate(kPageFlagAnon);
  const PageMeta& meta = allocator.GetMeta(frame);
  EXPECT_EQ(meta.refcount.load(), 1u);
  EXPECT_TRUE((meta.flags & kPageFlagAllocated) != 0);
  EXPECT_FALSE(meta.IsCompound());
  EXPECT_EQ(meta.compound_head, frame);
  EXPECT_EQ(allocator.PeekData(frame), nullptr) << "data must be lazy for non-table frames";
}

TEST(FrameAllocatorTest, PageTableFramesAreMaterializedAndZeroed) {
  FrameAllocator allocator;
  FrameId frame = allocator.Allocate(kPageFlagPageTable);
  EXPECT_TRUE(allocator.GetMeta(frame).IsPageTable());
  uint64_t* entries = allocator.TableEntries(frame);
  ASSERT_NE(entries, nullptr);
  for (uint64_t i = 0; i < kPageSize / sizeof(uint64_t); ++i) {
    EXPECT_EQ(entries[i], 0u);
  }
}

TEST(FrameAllocatorTest, DecRefFreesAtZero) {
  FrameAllocator allocator;
  FrameId frame = allocator.Allocate(kPageFlagAnon);
  allocator.IncRef(frame);
  allocator.DecRef(frame);
  EXPECT_EQ(allocator.Stats().allocated_frames, 1u);
  allocator.DecRef(frame);
  EXPECT_EQ(allocator.Stats().allocated_frames, 0u);
  EXPECT_TRUE(allocator.AllFree());
}

TEST(FrameAllocatorTest, FreedFramesAreRecycled) {
  FrameAllocator allocator;
  FrameId first = allocator.Allocate(kPageFlagAnon);
  allocator.DecRef(first);
  FrameId second = allocator.Allocate(kPageFlagAnon);
  EXPECT_EQ(first, second);
}

TEST(FrameAllocatorTest, MaterializeZeroFillsAndAccounts) {
  FrameAllocator allocator;
  FrameId frame = allocator.Allocate(kPageFlagAnon);
  std::byte* data = allocator.MaterializeData(frame);
  ASSERT_NE(data, nullptr);
  for (uint64_t i = 0; i < kPageSize; ++i) {
    EXPECT_EQ(data[i], std::byte{0});
  }
  EXPECT_EQ(allocator.Stats().materialized_bytes, kPageSize);
  EXPECT_EQ(allocator.MaterializeData(frame), data) << "second materialize must be idempotent";
  allocator.DecRef(frame);
  EXPECT_EQ(allocator.Stats().materialized_bytes, 0u);
}

TEST(FrameAllocatorTest, CompoundAllocationShapesHeadAndTails) {
  FrameAllocator allocator;
  FrameId head = allocator.AllocateCompound(kPageFlagAnon);
  EXPECT_EQ(head % (1u << kHugePageOrder), 0u) << "compound head must be 512-aligned";
  const PageMeta& head_meta = allocator.GetMeta(head);
  EXPECT_TRUE(head_meta.IsCompoundHead());
  EXPECT_EQ(head_meta.order, kHugePageOrder);
  EXPECT_EQ(head_meta.refcount.load(), 1u);
  for (FrameId i = 1; i < (1u << kHugePageOrder); ++i) {
    const PageMeta& tail = allocator.GetMeta(head + i);
    EXPECT_TRUE(tail.IsCompoundTail());
    EXPECT_EQ(tail.compound_head, head);
    EXPECT_EQ(ResolveCompoundHead(tail, head + i), head);
  }
  EXPECT_EQ(allocator.Stats().allocated_frames, 1u << kHugePageOrder);
}

TEST(FrameAllocatorTest, CompoundTailDataPointsIntoHeadBuffer) {
  FrameAllocator allocator;
  FrameId head = allocator.AllocateCompound(kPageFlagAnon);
  std::byte* head_data = allocator.MaterializeData(head);
  std::byte* tail_data = allocator.MaterializeData(head + 3);
  EXPECT_EQ(tail_data, head_data + 3 * kPageSize);
  EXPECT_EQ(allocator.Stats().materialized_bytes, kHugePageSize);
}

#if defined(__SANITIZE_ADDRESS__)
// A freed frame's bytes stay mapped at their fixed address, so a stale read through an old
// PeekData pointer would silently succeed; the allocator poisons them for ASan instead.
TEST(FrameAllocatorDeathTest, ReadThroughFreedFramePointerIsReported) {
  FrameAllocator allocator;
  FrameId frame = allocator.Allocate(kPageFlagAnon);
  allocator.MaterializeData(frame)[0] = std::byte{1};
  const std::byte* stale = allocator.PeekData(frame);
  allocator.DecRef(frame);
  EXPECT_DEATH(
      {
        volatile std::byte value = stale[0];
        (void)value;
      },
      "use-after-poison");
}
#endif

TEST(FrameAllocatorTest, CompoundFreeReleasesWholeUnitAndRecycles) {
  FrameAllocator allocator;
  FrameId head = allocator.AllocateCompound(kPageFlagAnon);
  allocator.DecRef(head);
  EXPECT_TRUE(allocator.AllFree());
  FrameId again = allocator.AllocateCompound(kPageFlagAnon);
  EXPECT_EQ(again, head) << "freed compounds should be recycled whole";
}

// Poisoning a frame of a free compound run breaks the run: the dead frame goes to
// quarantine, its 511 siblings to the order-0 free list, and no later compound is built
// around it.
TEST(FrameAllocatorTest, PoisonInsideAFreeCompoundRunBreaksTheRun) {
  FrameAllocator allocator;
  FrameId head = allocator.AllocateCompound(kPageFlagAnon);
  allocator.DecRef(head);
  // odf-lint: allow(hwpoison-flag) — a bare allocator: no mapping can point at the frame.
  allocator.MarkHwPoison(head + 7);
  // odf-lint: allow(hwpoison-flag) — idempotent second poison of the same free frame.
  allocator.MarkHwPoison(head + 7);
  FrameAllocatorStats stats = allocator.Stats();
  EXPECT_EQ(stats.hwpoisoned_frames, 1u);
  EXPECT_EQ(stats.quarantined_frames, 1u);
  FrameId again = allocator.AllocateCompound(kPageFlagAnon);
  EXPECT_NE(again, head) << "a run holding a poisoned frame must not be recycled whole";
  FrameId single = allocator.Allocate(kPageFlagAnon);
  EXPECT_GE(single, head);
  EXPECT_LT(single, head + (1u << kHugePageOrder));
  EXPECT_NE(single, head + 7);
  allocator.DecRef(single);
  allocator.DecRef(again);

  // A free frame parked in this thread's cache is diverted to quarantine when popped.
  FrameId parked = allocator.Allocate(kPageFlagAnon);
  allocator.DecRef(parked);
  // odf-lint: allow(hwpoison-flag) — a bare allocator: no mapping can point at the frame.
  allocator.MarkHwPoison(parked);
  FrameId next = allocator.Allocate(kPageFlagAnon);
  EXPECT_NE(next, parked);
  EXPECT_EQ(allocator.Stats().quarantined_frames, 2u);
  allocator.DecRef(next);
}

TEST(FrameAllocatorTest, MixedSinglesAndCompoundsDoNotCollide) {
  FrameAllocator allocator;
  std::vector<FrameId> singles;
  for (int i = 0; i < 100; ++i) {
    singles.push_back(allocator.Allocate(kPageFlagAnon));
  }
  FrameId head = allocator.AllocateCompound(kPageFlagAnon);
  for (FrameId single : singles) {
    EXPECT_TRUE(single < head || single >= head + (1u << kHugePageOrder));
  }
}

TEST(FrameAllocatorTest, GrowsBeyondOneChunk) {
  FrameAllocator allocator;
  // One chunk is 65536 frames; allocate past it.
  std::vector<FrameId> frames;
  for (int i = 0; i < 70000; ++i) {
    frames.push_back(allocator.Allocate(kPageFlagAnon));
  }
  EXPECT_GE(allocator.Stats().total_frames, 70000u);
  for (FrameId frame : frames) {
    allocator.DecRef(frame);
  }
  EXPECT_TRUE(allocator.AllFree());
}

}  // namespace
}  // namespace odf
