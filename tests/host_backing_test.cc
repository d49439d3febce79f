// How the host backs simulated RAM (src/phys/frame_allocator.cc): frame data sits in
// 2 MiB-aligned mappings advised MADV_HUGEPAGE, so a simulated 2 MiB compound is exactly
// one host huge page, and PopulateRange builds a range's page tables ahead of its data
// frames, so written table frames do not make the host back never-written data frames
// 2 MiB at a time all through the range. The huge-page test reads this process's
// smaps_rollup and skips on a host whose THP mode is neither `always` nor `madvise`.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/phys/frame_allocator.h"
#include "src/proc/kernel.h"
#include "src/util/host_memory.h"

namespace odf {
namespace {

constexpr FrameId kChunkFrames = 1u << 16;  // FrameAllocator's chunk: 256 MiB of frames.
constexpr FrameId kRunFrames = 1u << kHugePageOrder;

bool HugeAligned(const std::byte* bytes) {
  return (reinterpret_cast<uintptr_t>(bytes) & (kHugePageSize - 1)) == 0;
}

// First in the file: the frames it materialises must be ones no earlier test in the same
// process touched, or their huge pages would already be counted.
TEST(HostBackingTest, MaterialisedFramesRaiseAnonHugePages) {
  const std::string mode = HostThpMode();
  if (mode != "always" && mode != "madvise") {
    GTEST_SKIP() << "host THP mode is " << mode << "; frame data stays on 4 KiB pages";
  }
  FrameAllocator allocator;
  const uint64_t before_kb = SelfSmapsRollupKb("AnonHugePages");
  FrameId first = allocator.AllocateCompound(kPageFlagAnon);
  FrameId second = allocator.AllocateCompound(kPageFlagAnon);
  allocator.MaterializeData(first);
  allocator.MaterializeData(second);
  const uint64_t after_kb = SelfSmapsRollupKb("AnonHugePages");
  EXPECT_GE(after_kb, before_kb + 4096)
      << "4 MiB of materialised frames should sit on two host huge pages (THP mode " << mode
      << ")";
  allocator.DecRef(first);
  allocator.DecRef(second);
}

TEST(HostBackingTest, ChunksAndCompoundsStartOnHugePageBoundaries) {
  FrameAllocator allocator;
  // Two order-0 chunks (metadata only until the probes below) and one compound chunk.
  std::vector<FrameId> frames(kChunkFrames + 1);
  allocator.AllocateBatch(kPageFlagAnon, frames);
  std::vector<FrameId> heads;
  for (int i = 0; i < 3; ++i) {
    heads.push_back(allocator.AllocateCompound(kPageFlagAnon));
  }
  const uint64_t chunks = allocator.Stats().total_frames / kChunkFrames;
  ASSERT_GE(chunks, 3u);
  for (FrameId chunk_base = 0; chunk_base < chunks * kChunkFrames; chunk_base += kChunkFrames) {
    // Any frame of the chunk locates its base: frame data is base + index * 4 KiB.
    FrameId probe = kInvalidFrame;
    for (FrameId frame : frames) {
      if (frame / kChunkFrames == chunk_base / kChunkFrames) {
        probe = frame;
        break;
      }
    }
    for (FrameId head : heads) {
      if (head / kChunkFrames == chunk_base / kChunkFrames) {
        probe = head;
      }
    }
    ASSERT_NE(probe, kInvalidFrame) << "chunk at frame " << chunk_base << " was not handed out";
    const std::byte* base =
        allocator.MaterializeData(probe) - static_cast<uint64_t>(probe - chunk_base) * kPageSize;
    EXPECT_TRUE(HugeAligned(base)) << "chunk at frame " << chunk_base;
  }
  for (FrameId head : heads) {
    EXPECT_TRUE(HugeAligned(allocator.MaterializeData(head))) << "compound head " << head;
    allocator.DecRef(head);
  }
  allocator.FreeBatch(frames);
  EXPECT_TRUE(allocator.AllFree());
}

// Tables and data still come from one free list (the thread's 32-frame refills and the
// pool), so the run where the range's tables end and its data frames begin is shared; what
// tables-first rules out is a refill of table frames landing between data frames every 32
// tables, each making the host back 2 MiB of never-written data.
TEST(HostBackingTest, PopulatedTablesShareAtMostOneRunWithNeverWrittenData) {
  Kernel kernel;
  Process& process = kernel.CreateProcess();
  constexpr uint64_t kBytes = 64ULL << 20;
  Vaddr va = process.Mmap(kBytes, kProtRead | kProtWrite);
  process.address_space().PopulateRange(va, kBytes);

  FrameAllocator& allocator = kernel.allocator();
  const uint64_t total = allocator.Stats().total_frames;
  uint64_t tables = 0;
  uint64_t data = 0;
  std::vector<FrameId> mixed_runs;
  for (FrameId run = 0; run < total; run += kRunFrames) {
    uint64_t run_tables = 0;
    uint64_t run_data = 0;
    for (FrameId frame = run; frame < run + kRunFrames; ++frame) {
      const PageMeta& meta = allocator.GetMeta(frame);
      if ((meta.flags & kPageFlagAllocated) == 0) {
        continue;
      }
      if (meta.IsPageTable()) {
        ++run_tables;
      } else if (allocator.PeekData(frame) == nullptr) {
        ++run_data;
      }
    }
    if (run_tables > 0 && run_data > 0) {
      mixed_runs.push_back(run);
    }
    tables += run_tables;
    data += run_data;
  }
  EXPECT_LE(mixed_runs.size(), 1u)
      << "page tables landed between never-written data frames; first mixed runs at frames "
      << mixed_runs.front() << " and " << mixed_runs.back();
  EXPECT_GE(tables, kBytes / kPteTableSpan) << "one PTE table per 2 MiB at least";
  EXPECT_EQ(data, kBytes / kPageSize) << "every populated page is a metadata-only frame";
}

}  // namespace
}  // namespace odf
