// The odf::reclaim subsystem end to end (ctest labels: reclaim, concurrency):
// reverse-map bookkeeping under both fork flavours, LRU second-chance aging,
// workingset refault detection, watermark-driven kswapd balancing, and the
// acceptance workload from docs/reclaim.md — a working set twice the frame pool
// that completes through reclaim alone, byte-checked, with zero OOM kills.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/debug/mutation.h"
#include "src/debug/verify.h"
#include "src/fi/fault_inject.h"
#include "src/proc/procfs.h"
#include "src/reclaim/kswapd.h"
#include "src/reclaim/lru.h"
#include "src/reclaim/mm_gate.h"
#include "src/reclaim/rmap.h"
#include "src/reclaim/shrink.h"
#include "src/trace/metrics.h"
#include "tests/test_util.h"

namespace odf {
namespace {

// The built-in vmstat counters are process-global, so every assertion works on deltas.
class CounterDelta {
 public:
  explicit CounterDelta(VmCounter counter)
      : counter_(counter), start_(ReadVm(counter)) {}
  uint64_t Get() const { return ReadVm(counter_) - start_; }

 private:
  VmCounter counter_;
  uint64_t start_;
};

uint64_t VmstatValue(const std::string& vmstat, const std::string& name) {
  std::istringstream in(vmstat);
  std::string line;
  while (std::getline(in, line)) {
    size_t space = line.find(' ');
    if (space != std::string::npos && line.substr(0, space) == name) {
      return std::stoull(line.substr(space + 1));
    }
  }
  ADD_FAILURE() << "vmstat has no line for " << name;
  return 0;
}

void ExpectVerifies(Kernel& kernel) {
  debug::VerifyResult result = debug::VerifyKernel(kernel);
  EXPECT_TRUE(result.ok()) << result.Describe();
}

// --- Rmap bookkeeping ---

TEST(RmapTest, TracksLeafInstallAndClear) {
  Kernel kernel;
  Process& p = kernel.CreateProcess();
  reclaim::Rmap& rmap = kernel.rmap();
  ASSERT_EQ(rmap.TotalLocations(), 0u);

  Vaddr va = p.Mmap(8 * kPageSize, kProtRead | kProtWrite);
  FillPattern(p, va, 8 * kPageSize, 1);
  EXPECT_EQ(rmap.TotalLocations(), 8u);
  EXPECT_EQ(rmap.MappedFrames(), 8u);
  EXPECT_EQ(kernel.lru().Size(), 8u) << "anonymous order-0 frames join the LRU";
  ExpectVerifies(kernel);

  p.Munmap(va, 8 * kPageSize);
  EXPECT_EQ(rmap.TotalLocations(), 0u);
  EXPECT_EQ(kernel.lru().Size(), 0u);
  ExpectVerifies(kernel);
}

TEST(RmapTest, HugePagesAreMappedButNotLruManaged) {
  Kernel kernel;
  Process& p = kernel.CreateProcess();
  Vaddr va = p.Mmap(kHugePageSize, kProtRead | kProtWrite, /*huge=*/true);
  WriteByte(p, va, std::byte{0x5a});
  EXPECT_EQ(kernel.rmap().TotalLocations(), 1u) << "one huge PMD entry, one location";
  EXPECT_EQ(kernel.lru().Size(), 0u) << "compound pages are not reclaim candidates";
  ExpectVerifies(kernel);
}

TEST(RmapTest, SharedPteTableIsOneLocationPerSlot) {
  Kernel kernel;
  Process& p = kernel.CreateProcess();
  Vaddr va = p.Mmap(8 * kPageSize, kProtRead | kProtWrite);
  FillPattern(p, va, 8 * kPageSize, 2);
  ASSERT_EQ(kernel.rmap().TotalLocations(), 8u);

  // On-demand fork shares the PTE table: the same 8 slots now map the frames into both
  // processes, so the registry must NOT grow — the fan-out lives in pt_share_count (§3.6).
  Process& odf_child = kernel.Fork(p, ForkMode::kOnDemand);
  EXPECT_EQ(kernel.rmap().TotalLocations(), 8u)
      << "a shared table contributes one location per slot, not one per sharer";

  // A write through the shared table COW-breaks it: the child gets a private copy whose 8
  // present entries (7 still-shared frames + 1 fresh COW frame) all register.
  WriteByte(odf_child, va, std::byte{0x11});
  EXPECT_EQ(kernel.rmap().TotalLocations(), 16u);
  ExpectVerifies(kernel);

  // Classic fork copies every present leaf entry into its own private table: +8.
  Process& classic_child = kernel.Fork(p, ForkMode::kClassic);
  EXPECT_EQ(kernel.rmap().TotalLocations(), 24u);
  ExpectVerifies(kernel);

  kernel.Exit(classic_child, 0);
  kernel.Exit(odf_child, 0);
  EXPECT_EQ(kernel.rmap().TotalLocations(), 8u) << "teardown unregisters exactly";
  ExpectVerifies(kernel);
}

// --- LRU aging and workingset shadows (direct unit coverage) ---

TEST(LruTest, InactiveTailIsColdestAndSecondChanceReinserts) {
  // The lists link through PageMeta, so the frames must be real.
  FrameAllocator allocator;
  reclaim::PageLru lru(&allocator);
  FrameId f1 = allocator.Allocate(kPageFlagAnon);
  FrameId f2 = allocator.Allocate(kPageFlagAnon);
  FrameId f3 = allocator.Allocate(kPageFlagAnon);
  lru.Insert(f1, /*active=*/false);
  lru.Insert(f2, /*active=*/false);
  lru.Insert(f3, /*active=*/false);
  EXPECT_EQ(lru.InactiveSize(), 3u);

  std::vector<FrameId> batch;
  ASSERT_EQ(lru.TakeInactive(2, &batch), 2u);
  EXPECT_EQ(batch[0], f1) << "tail of the inactive list is the first inserted (coldest)";
  EXPECT_EQ(batch[1], f2);

  EXPECT_EQ(allocator.GetMeta(f1).refcount.load(), 2u) << "isolation pins the frame";
  lru.PutBack(batch[0], /*active=*/true);  // Referenced: promoted.
  lru.PutBack(batch[1], /*active=*/false);
  allocator.DecRef(batch[0]);
  allocator.DecRef(batch[1]);
  EXPECT_EQ(lru.ActiveSize(), 1u);
  EXPECT_EQ(lru.InactiveSize(), 2u);

  lru.Erase(f3);
  EXPECT_EQ(lru.Size(), 2u);
  EXPECT_FALSE(lru.Contains(f3));
}

// A read hit takes no gate, so its unpin can drop a frame's last reference while the
// shrinker, under the exclusive gate, has that frame isolated. The isolation pin makes the
// unpin an ordinary drop: the frame is freed once, by whoever drops last, after PutBack.
TEST(LruTest, IsolationPinOutlivesTheLastReadUnpin) {
  FrameAllocator allocator;
  reclaim::PageLru lru(&allocator);
  allocator.SetLruReleaseHook([&](std::span<const FrameId> frames) { lru.Release(frames); });
  // The allocation reference plays a read hit's pin that a COW or munmap left as the
  // frame's only reference.
  FrameId frame = allocator.Allocate(kPageFlagAnon);
  lru.Insert(frame, /*active=*/true);
  CounterDelta freed(VmCounter::k_frames_freed);

  std::vector<FrameId> batch;
  ASSERT_EQ(lru.TakeActive(8, &batch), 1u);
  ASSERT_EQ(batch[0], frame);
  allocator.DecRef(frame);  // The reader unpins while the aging pass has the frame.
  EXPECT_EQ(freed.Get(), 0u) << "an isolated frame was freed under the shrinker";
  EXPECT_EQ(allocator.GetMeta(frame).refcount.load(), 1u);

  lru.PutBack(frame, /*active=*/false);
  allocator.DecRef(frame);  // The shrinker's own drop is now the last one.
  EXPECT_EQ(freed.Get(), 1u);
  EXPECT_EQ(lru.Size(), 0u) << "the free takes the frame off the list it was put back on";
  EXPECT_EQ(lru.ForEachTracked([](FrameId, reclaim::LruState) {}), "");
  EXPECT_TRUE(allocator.AllFree());
  allocator.SetLruReleaseHook(nullptr);
}

// The other order: the last reference drops first, and the shrinker reaches the frame
// between the drop and the free's Release (the hook below runs exactly there). Isolation
// must not pin a count that already reached zero: the frame leaves the list unreturned.
TEST(LruTest, TakeSkipsAFrameWhoseLastReferenceIsDropping) {
  FrameAllocator allocator;
  reclaim::PageLru lru(&allocator);
  FrameId dying = allocator.Allocate(kPageFlagAnon);
  FrameId live = allocator.Allocate(kPageFlagAnon);
  lru.Insert(dying, /*active=*/false);
  lru.Insert(live, /*active=*/false);
  std::vector<FrameId> batch;
  allocator.SetLruReleaseHook([&](std::span<const FrameId> frames) {
    lru.TakeInactive(8, &batch);
    lru.Release(frames);
  });
  allocator.DecRef(dying);
  ASSERT_EQ(batch.size(), 1u) << "the dying frame was isolated (and its count revived)";
  EXPECT_EQ(batch[0], live);
  EXPECT_EQ(lru.Size(), 0u);

  allocator.SetLruReleaseHook([&](std::span<const FrameId> frames) { lru.Release(frames); });
  lru.PutBack(live, /*active=*/false);
  allocator.DecRef(live);  // Isolation pin.
  allocator.DecRef(live);  // Allocation reference.
  EXPECT_EQ(lru.Size(), 0u);
  EXPECT_EQ(lru.ForEachTracked([](FrameId, reclaim::LruState) {}), "");
  EXPECT_TRUE(allocator.AllFree());
  allocator.SetLruReleaseHook(nullptr);
}

TEST(LruTest, RefaultWithinHorizonCountsAndConsumesShadow) {
  FrameAllocator allocator;
  reclaim::PageLru lru(&allocator);
  CounterDelta refaults(VmCounter::k_pgrefault);
  lru.RecordEviction(/*slot=*/7);
  EXPECT_EQ(lru.ShadowCount(), 1u);
  EXPECT_TRUE(lru.NoteRefault(7)) << "distance 0 is always within the workingset";
  EXPECT_EQ(refaults.Get(), 1u);
  EXPECT_EQ(lru.ShadowCount(), 0u) << "a shadow is consumed by its refault";
  EXPECT_FALSE(lru.NoteRefault(7)) << "no shadow, no refault";
  EXPECT_FALSE(lru.NoteRefault(99)) << "never-evicted slots are not refaults";
}

// --- Direct reclaim through the kernel entry point ---

TEST(ReclaimTest, DirectReclaimEvictsColdPagesAndFaultsBackByteIdentical) {
  Kernel kernel;
  Process& p = kernel.CreateProcess();
  Vaddr va = p.Mmap(64 * kPageSize, kProtRead | kProtWrite);
  FillPattern(p, va, 64 * kPageSize, 3);

  CounterDelta scanned(VmCounter::k_pgscan);
  CounterDelta stolen(VmCounter::k_pgsteal);
  uint64_t freed = kernel.ReclaimMemory(16);
  EXPECT_GE(freed, 16u) << "aging rounds must defeat the freshly-set accessed bits";
  EXPECT_GT(scanned.Get(), 0u);
  EXPECT_GE(stolen.Get(), freed);
  EXPECT_GT(kernel.swap_space().Stats().writes, 0u);
  ExpectVerifies(kernel);

  // Every page faults back byte-identical, and recent evictions count as refaults.
  CounterDelta refaults(VmCounter::k_pgrefault);
  ExpectPattern(p, va, 64 * kPageSize, 3);
  EXPECT_GT(refaults.Get(), 0u) << "immediate re-touch is inside the workingset horizon";
  ExpectVerifies(kernel);
}

// Gen before free holds for the evictor without its exclusive MmGate hold: read hits pin
// frames without the gate, so a frame freed before the TLB flush could be reused under a
// translation whose generation is not bumped yet. At the flush, and after the unmap phase
// ends, every evicted frame still holds its mapping's reference (its write-out is not
// committed yet); once the pageout finishes, the evicted frames are free.
TEST(ReclaimTest, EvictedFramesAreFreedOnlyAfterTheFlush) {
  constexpr uint64_t kPages = 16;
  Kernel kernel;
  Process& p = kernel.CreateProcess();
  Vaddr va = p.Mmap(kPages * kPageSize, kProtRead | kProtWrite);
  FillPattern(p, va, kPages * kPageSize, 9);
  FrameAllocator& allocator = kernel.allocator();
  std::vector<FrameId> frames;
  for (uint64_t i = 0; i < kPages; ++i) {
    AddressSpace& as = p.address_space();
    Translation t = as.walker().Translate(as.pgd(), va + i * kPageSize, AccessType::kRead);
    ASSERT_EQ(t.status, TranslateStatus::kOk);
    frames.push_back(t.frame);
  }
  auto referenced = [&] {
    uint64_t count = 0;
    for (FrameId frame : frames) {
      if (allocator.GetMeta(frame).refcount.load() != 0) {
        ++count;
      }
    }
    return count;
  };

  reclaim::ShrinkContext ctx;
  ctx.allocator = &allocator;
  ctx.swap = &kernel.swap_space();
  ctx.rmap = &kernel.rmap();
  ctx.lru = &kernel.lru();
  uint64_t referenced_at_flush = 0;
  ctx.flush_tlbs = [&] {
    referenced_at_flush = referenced();
    p.address_space().locks().FlushAll();
  };
  AgeLruCold(kernel);
  reclaim::Pageout pageout;
  uint64_t freed = 0;
  {
    reclaim::MmGate::ExclusiveScope gate;
    freed = reclaim::UnmapPages(ctx, kPages / 2, &pageout);
  }
  ASSERT_GT(freed, 0u);
  EXPECT_EQ(referenced_at_flush, kPages) << "an evicted frame was freed before the flush";
  EXPECT_EQ(referenced(), kPages) << "an evicted frame was freed before its write-out";
  reclaim::FinishPageout(ctx, &pageout);
  EXPECT_EQ(referenced(), kPages - freed);
  ExpectPattern(p, va, kPages * kPageSize, 9);
  ExpectVerifies(kernel);
}

// Read pins that outlive the references around them, both ways round. A pin that a
// munmap left as a frame's only reference is dropped inside the evictor's flush, with the
// exclusive gate held as kswapd holds it; a pin that a stale translation takes on an
// evicted, still-isolated frame outlives the evictor's own drops, which come after the
// write-out commits. Each frame is freed once, by its last drop, and the LRU and the
// reverse map stay consistent.
TEST(ReclaimTest, ReadPinsThatOutliveTheirMappingsFreeTheFrameOnce) {
  constexpr uint64_t kPages = 16;
  Kernel kernel;
  Process& p = kernel.CreateProcess();
  Vaddr va = p.Mmap(kPages * kPageSize, kProtRead | kProtWrite);
  FillPattern(p, va, kPages * kPageSize, 5);
  FrameAllocator& allocator = kernel.allocator();
  AddressSpace& as = p.address_space();
  std::vector<FrameId> frames;
  for (uint64_t i = 0; i < kPages; ++i) {
    Translation t = as.walker().Translate(as.pgd(), va + i * kPageSize, AccessType::kRead);
    ASSERT_EQ(t.status, TranslateStatus::kOk);
    frames.push_back(t.frame);
  }
  auto allocated = [&](FrameId frame) {
    return (allocator.GetMeta(frame).flags & kPageFlagAllocated) != 0;
  };
  auto isolated = [&](FrameId frame) {
    return allocator.GetMeta(frame).lru_state.load() ==
           static_cast<uint8_t>(reclaim::LruState::kIsolated);
  };

  // A reader holds its pins inside AccessMemory's MutationScope, which keeps the debug-vm
  // auto-verifier (exact only at quiescent points) from running meanwhile; so do we.
  {
    debug::MutationScope reading;
    // Page 0: a read hit pins its frame, then a munmap drops the mapping under the pin.
    FrameId orphan = frames[0];
    ASSERT_TRUE(allocator.TryGetRef(orphan));
    p.Munmap(va, kPageSize);
    ASSERT_EQ(allocator.GetMeta(orphan).refcount.load(), 1u);
    ASSERT_TRUE(kernel.lru().Contains(orphan)) << "only the free takes a frame off the LRU";

    reclaim::ShrinkContext ctx;
    ctx.allocator = &allocator;
    ctx.swap = &kernel.swap_space();
    ctx.rmap = &kernel.rmap();
    ctx.lru = &kernel.lru();
    FrameId late = kInvalidFrame;
    bool orphan_freed_in_flush = false;
    ctx.flush_tlbs = [&] {
      allocator.DecRef(orphan);  // The reader unpins while the evictor holds the gate.
      orphan_freed_in_flush = !allocated(orphan);
      for (uint64_t i = 1; i < kPages && late == kInvalidFrame; ++i) {
        if (isolated(frames[i])) {
          late = frames[i];
          EXPECT_TRUE(allocator.TryGetRef(late)) << "an evicted frame lost its references";
        }
      }
      as.locks().FlushAll();
    };
    AgeLruCold(kernel);
    reclaim::Pageout pageout;
    uint64_t freed = 0;
    {
      reclaim::MmGate::ExclusiveScope gate;
      freed = reclaim::UnmapPages(ctx, kPages / 2, &pageout);
    }
    ASSERT_GT(freed, 0u);
    if (late != kInvalidFrame) {
      EXPECT_GT(allocator.GetMeta(late).refcount.load(), 1u)
          << "the pageout dropped its references before committing the write-out";
    }
    reclaim::FinishPageout(ctx, &pageout);
    EXPECT_TRUE(orphan_freed_in_flush);
    EXPECT_FALSE(kernel.lru().Contains(orphan));
    ASSERT_NE(late, kInvalidFrame) << "no evicted frame was isolated at the flush";
    EXPECT_EQ(allocator.GetMeta(late).refcount.load(), 1u) << "only the late pin is left";
    EXPECT_TRUE(isolated(late)) << "an evicted frame stays isolated until its last drop";
    allocator.DecRef(late);
    EXPECT_FALSE(allocated(late));
    EXPECT_EQ(allocator.GetMeta(late).lru_state.load(), 0u);
  }
  EXPECT_EQ(kernel.lru().ForEachTracked([](FrameId, reclaim::LruState) {}), "");
  ExpectVerifies(kernel);

  ExpectPattern(p, va + kPageSize, (kPages - 1) * kPageSize, 5);
  ExpectVerifies(kernel);
  kernel.Exit(p, 0);
  EXPECT_TRUE(allocator.AllFree());
}

// A swap-in that lands between the two phases of an eviction: the page tables already hold
// swap entries, but no byte has reached the device yet. The fault reads the pre-eviction
// bytes from the still-pinned frame; the swap-in drops each slot's last reference, so the
// commit recycles every slot without copying, and nothing leaks either way.
TEST(ReclaimTest, SwapInDuringPendingWriteOutReadsTheFrame) {
  constexpr uint64_t kPages = 8;
  Kernel kernel;
  Process& p = kernel.CreateProcess();
  Vaddr va = p.Mmap(kPages * kPageSize, kProtRead | kProtWrite);
  FillPattern(p, va, kPages * kPageSize, 11);
  reclaim::ShrinkContext ctx = KernelShrinkContext(kernel);
  SwapSpace& swap = kernel.swap_space();
  {
    // The debug-vm auto-verifier must not run while the pageout is open (kswapd keeps its
    // MutationScope across the pageout for the same reason).
    debug::MutationScope mid_pageout;
    AgeLruCold(kernel);
    reclaim::Pageout pageout;
    uint64_t evicted = 0;
    {
      reclaim::MmGate::ExclusiveScope gate;
      evicted = reclaim::UnmapPages(ctx, kPages, &pageout);
    }
    ASSERT_EQ(evicted, kPages);
    ASSERT_EQ(pageout.slots.size(), kPages);
    CounterDelta swapins(VmCounter::k_pgfault_swap_in);
    CounterDelta pending(VmCounter::k_pgswapin_pending);
    ExpectPattern(p, va, kPages * kPageSize, 11);
    EXPECT_EQ(swapins.Get(), kPages);
    EXPECT_EQ(pending.Get(), kPages) << "a swap-in read an uncommitted slot's buffer";
    EXPECT_EQ(swap.Stats().slots_in_use, kPages) << "a pending slot was recycled early";
    reclaim::FinishPageout(ctx, &pageout);
    EXPECT_TRUE(swap.AllFree()) << "the commit did not recycle the dropped slots";
  }
  ExpectPattern(p, va, kPages * kPageSize, 11);
  ExpectVerifies(kernel);
  kernel.Exit(p, 0);
  EXPECT_TRUE(kernel.allocator().AllFree());
  EXPECT_TRUE(swap.AllFree());
}

// A slot whose last reference drops while its write-out is pending (here: a munmap of the
// evicted pages) stays out of the free list until the commit. Reusing it earlier would let
// the commit's copy land in another page's slot.
TEST(ReclaimTest, SlotDroppedWhileWriteOutPendingIsReusedOnlyAfterCommit) {
  constexpr uint64_t kPages = 4;
  Kernel kernel;
  Process& p = kernel.CreateProcess();
  Vaddr va = p.Mmap(kPages * kPageSize, kProtRead | kProtWrite);
  FillPattern(p, va, kPages * kPageSize, 12);
  reclaim::ShrinkContext ctx = KernelShrinkContext(kernel);
  SwapSpace& swap = kernel.swap_space();
  std::vector<std::byte> other_page(kPageSize, std::byte{0x77});
  std::vector<SwapSlot> reserved;
  {
    debug::MutationScope mid_pageout;
    AgeLruCold(kernel);
    reclaim::Pageout pageout;
    {
      reclaim::MmGate::ExclusiveScope gate;
      ASSERT_EQ(reclaim::UnmapPages(ctx, kPages, &pageout), kPages);
    }
    reserved = pageout.slots;
    ASSERT_EQ(reserved.size(), kPages);
    p.Munmap(va, kPages * kPageSize);
    for (SwapSlot slot : reserved) {
      EXPECT_EQ(swap.RefCount(slot), 0u);
    }
    EXPECT_EQ(swap.Stats().slots_in_use, kPages) << "a pending slot was recycled early";
    SwapSlot other = swap.WriteOut(other_page.data());
    EXPECT_EQ(std::count(reserved.begin(), reserved.end(), other), 0)
        << "slot " << other << " was reused before its write-out committed";
    swap.DecRef(other);
    reclaim::FinishPageout(ctx, &pageout);
  }
  EXPECT_TRUE(swap.AllFree());
  // Now the slots are free, and the next write-outs may take them; what they read back is
  // their own content.
  std::vector<SwapSlot> taken;
  bool reused = false;
  for (uint64_t i = 0; i <= kPages; ++i) {
    taken.push_back(swap.WriteOut(other_page.data()));
    reused |= std::count(reserved.begin(), reserved.end(), taken.back()) != 0;
  }
  EXPECT_TRUE(reused) << "a committed, unreferenced slot was never recycled";
  std::vector<std::byte> back(kPageSize);
  for (SwapSlot slot : taken) {
    swap.ReadIn(slot, back.data());
    EXPECT_EQ(back, other_page);
    swap.DecRef(slot);
  }
  ExpectVerifies(kernel);
  kernel.Exit(p, 0);
  EXPECT_TRUE(kernel.allocator().AllFree());
  EXPECT_TRUE(swap.AllFree());
}

// A direct reclaimer whose round runs while another reclaimer's aging pass holds the
// whole active list isolated. Its aging finds the active list empty and its unmap phase,
// which waits for the pass to end, an empty inactive list (the pass puts every frame back
// on the active list, all referenced). That is no stall: the round waits for the pass and
// tries again instead of reporting nothing reclaimable, which would OOM-kill a process.
TEST(ReclaimTest, DirectReclaimRetriesWhileAnotherReclaimersAgingHoldsTheActiveList) {
  constexpr uint64_t kPages = 32;
  Kernel kernel;
  Process& p = kernel.CreateProcess();
  Vaddr va = p.Mmap(kPages * kPageSize, kProtRead | kProtWrite);
  FillPattern(p, va, kPages * kPageSize, 17);
  RotateLruToActive(kernel);
  ASSERT_EQ(kernel.lru().ActiveSize(), kPages);
  ASSERT_EQ(kernel.lru().InactiveSize(), 0u);
  // Free frames below what the reclaimer wants: a reclaim that reports nothing would have
  // to OOM-kill.
  kernel.SetMemoryLimitFrames(kernel.allocator().Stats().allocated_frames + 1);

  FrameAllocator& allocator = kernel.allocator();
  std::vector<FrameId> isolated;
  uint64_t freed = 0;
  std::thread reclaimer;
  {
    // Another reclaimer's aging pass, in flight: the shared gate, the frames isolated.
    reclaim::MmGate::SharedScope gate;
    reclaim::MmGate::BeginAging();
    ASSERT_EQ(kernel.lru().TakeActive(kPages, &isolated), kPages);
    reclaimer = std::thread([&] { freed = kernel.ReclaimMemory(8); });
    // Long enough for the reclaimer's aging to find the active list empty and its unmap
    // phase to queue behind this shared hold.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    kernel.lru().PutBack(isolated, /*active=*/true);
    allocator.DecRefBatch(isolated);
    reclaim::MmGate::EndAging(/*isolated=*/true);
  }
  reclaimer.join();
  EXPECT_GT(freed, 0u) << "the reclaimer gave up while the frames were only isolated";
  EXPECT_EQ(kernel.oom_kills(), 0u);
  kernel.SetMemoryLimitFrames(0);
  ExpectPattern(p, va, kPages * kPageSize, 17);
  ExpectVerifies(kernel);
  kernel.Exit(p, 0);
  EXPECT_TRUE(allocator.AllFree());
}

// The headline satellite: evict a frame that is mapped through an on-demand-SHARED PTE
// table, then make every forked child fault it back. The data must round-trip
// byte-identical through the swap device and the verifier must find the table share
// counts exactly balanced afterwards.
TEST(ReclaimTest, SharedTableEvictionFaultsBackInAllChildren) {
  constexpr int kChildren = 4;
  constexpr uint64_t kBytes = 32 * kPageSize;
  Kernel kernel;
  Process& parent = kernel.CreateProcess();
  Vaddr va = parent.Mmap(kBytes, kProtRead | kProtWrite);
  FillPattern(parent, va, kBytes, 4);

  std::vector<Process*> children;
  for (int i = 0; i < kChildren; ++i) {
    children.push_back(&kernel.Fork(parent, ForkMode::kOnDemand));
  }
  ASSERT_EQ(kernel.rmap().TotalLocations(), kBytes / kPageSize)
      << "all children share the parent's leaf slots";

  CounterDelta stolen(VmCounter::k_pgsteal);
  uint64_t freed = kernel.ReclaimMemory(kBytes / kPageSize);
  EXPECT_GT(freed, 0u) << "pages under shared tables must be evictable via the rmap";
  EXPECT_GT(kernel.swap_space().Stats().writes, 0u);
  ExpectVerifies(kernel);

  // Children first (their faults go through the shared-table paths), parent last.
  for (Process* child : children) {
    ExpectPattern(*child, va, kBytes, 4);
  }
  ExpectPattern(parent, va, kBytes, 4);
  EXPECT_GT(stolen.Get(), 0u);
  ExpectVerifies(kernel);  // Walk/rmap bijection AND pt_share_count balance.

  for (Process* child : children) {
    kernel.Exit(*child, 0);
  }
  ExpectVerifies(kernel);
}

// The reverse map's one allocation is the family link at fork (the anon_vma_fork -ENOMEM
// analog). Failing it fails the fork before anything is shared, for every engine, and the
// rollback is exact: no process, no frame, no reference survives it.
TEST(ReclaimTest, RmapAllocFailureFailsForkWithExactRollback) {
#if !ODF_FAULT_INJECT_COMPILED
  GTEST_SKIP() << "fault-injection hooks compiled out (ODF_FAULT_INJECT=OFF)";
#endif
  constexpr uint64_t kPages = 64;
  Kernel kernel;
  {
    Process& parent = kernel.CreateProcess();
    Vaddr va = parent.Mmap(kPages * kPageSize, kProtRead | kProtWrite);
    FillPattern(parent, va, kPages * kPageSize, 5);
    auto refcounts = [&] {
      std::vector<uint32_t> counts;
      for (uint64_t i = 0; i < kPages; ++i) {
        Translation t = parent.address_space().walker().Translate(
            parent.address_space().pgd(), va + i * kPageSize, AccessType::kRead);
        counts.push_back(
            kernel.allocator().GetMeta(t.frame).refcount.load(std::memory_order_relaxed));
      }
      return counts;
    };
    std::vector<uint32_t> before = refcounts();
    uint64_t allocated = kernel.allocator().Stats().allocated_frames;
    for (ForkMode mode : {ForkMode::kClassic, ForkMode::kOnDemand, ForkMode::kOnDemandHuge}) {
      CounterDelta rollbacks(VmCounter::k_fork_rollback);
      {
        fi::ScopedInjection inject(FiSite::k_rmap_alloc,
                                   FiSiteConfig{.probability = 1.0, .times = 1});
        EXPECT_EQ(kernel.TryFork(parent, mode), nullptr) << ForkModeName(mode);
      }
      EXPECT_EQ(rollbacks.Get(), 1u);
      EXPECT_EQ(kernel.ProcessCount(), 1u);
      EXPECT_EQ(kernel.allocator().Stats().allocated_frames, allocated);
      EXPECT_EQ(refcounts(), before) << "the parent's refcounts must be untouched";
      EXPECT_EQ(kernel.rmap().FindFamily(parent.address_space().anon_family()->id())
                    ->members()
                    .size(),
                1u)
          << "a failed link leaves the family as it was";
      ExpectVerifies(kernel);
    }
    // Disarmed, the same fork succeeds and the child's pages are reachable through the
    // family walk: one eviction rewrites both processes' mappings.
    Process* child = kernel.TryFork(parent, ForkMode::kClassic);
    ASSERT_NE(child, nullptr);
    EXPECT_GT(kernel.ReclaimMemory(kPages), 0u);
    ExpectPattern(*child, va, kPages * kPageSize, 5);
    ExpectPattern(parent, va, kPages * kPageSize, 5);
    ExpectVerifies(kernel);
    kernel.Exit(*child, 0);
    kernel.Wait(parent);
    kernel.Exit(parent, 0);
  }
  EXPECT_TRUE(kernel.allocator().AllFree());
}

// --- Object-based reverse map: the family walk (docs/reclaim.md "Reverse mapping") ---

FrameId FrameAt(Process& p, Vaddr va) {
  AddressSpace& as = p.address_space();
  Translation t = as.walker().Translate(as.pgd(), va, AccessType::kRead);
  EXPECT_EQ(t.status, TranslateStatus::kOk) << "va " << va << " not present";
  return t.frame;
}

void ExpectAllSwapped(Process& p, Vaddr va, uint64_t length) {
  for (uint8_t state : p.Mincore(va, length)) {
    EXPECT_EQ(state, 2u) << "page still resident (or dropped) after eviction";
  }
}

// mremap moves entries, not frames: the VMA keeps its anon_pgoff, so frames stamped at the
// old address stay findable at the new one, are evicted there and swap back in intact.
TEST(RmapWalkTest, MremappedPageIsEvictedAndSwappedBackIn) {
  constexpr uint64_t kPages = 16;
  Kernel kernel;
  Process& p = kernel.CreateProcess();
  Vaddr va = p.Mmap(kPages * kPageSize, kProtRead | kProtWrite);
  p.Mmap(kPageSize, kProtRead);  // Blocks growth in place: the remap must move.
  FillPattern(p, va, kPages * kPageSize, 11);
  std::vector<std::byte> before(kPages * kPageSize);
  ASSERT_TRUE(p.ReadMemory(va, before));
  Vaddr moved = p.Mremap(va, kPages * kPageSize, 2 * kPages * kPageSize);
  ASSERT_NE(moved, va);
  EXPECT_EQ(kernel.rmap().LocationCount(FrameAt(p, moved)), 1u);

  EXPECT_EQ(kernel.ReclaimMemory(kPages), kPages);
  ExpectAllSwapped(p, moved, kPages * kPageSize);
  ExpectVerifies(kernel);
  std::vector<std::byte> after(kPages * kPageSize);
  ASSERT_TRUE(p.ReadMemory(moved, after));
  EXPECT_EQ(after, before);
  ExpectVerifies(kernel);
}

// A frame shared by parent, child and grandchild (classic forks copy entries, not pages)
// is one family, three slots: one eviction rewrites all three to the same swap entry.
TEST(RmapWalkTest, GrandchildForkHasAllThreeMappingsRewrittenByOneEviction) {
  Kernel kernel;
  Process& parent = kernel.CreateProcess();
  Vaddr va = parent.Mmap(kPageSize, kProtRead | kProtWrite);
  FillPattern(parent, va, kPageSize, 12);
  Process& child = kernel.Fork(parent, ForkMode::kClassic);
  Process& grandchild = kernel.Fork(child, ForkMode::kClassic);
  FrameId frame = FrameAt(parent, va);
  ASSERT_EQ(FrameAt(grandchild, va), frame);
  EXPECT_EQ(kernel.rmap().LocationCount(frame), 3u);

  CounterDelta stolen(VmCounter::k_pgsteal);
  uint64_t swap_writes = kernel.swap_space().Stats().writes;
  EXPECT_EQ(kernel.ReclaimMemory(1), 1u);
  EXPECT_EQ(stolen.Get(), 1u);
  EXPECT_EQ(kernel.swap_space().Stats().writes, swap_writes + 1) << "one write, three PTEs";
  for (Process* p : {&parent, &child, &grandchild}) {
    ExpectAllSwapped(*p, va, kPageSize);
  }
  ExpectVerifies(kernel);
  for (Process* p : {&grandchild, &child, &parent}) {
    ExpectPattern(*p, va, kPageSize, 12);
  }
  ExpectVerifies(kernel);
}

// Four sharers reach a shared on-demand-fork slot, and the walk reports it once (§3.6);
// a sharer that COW-breaks the table adds exactly its own private slot.
TEST(RmapWalkTest, SlotInSharedOdfTableIsFoundOnce) {
  Kernel kernel;
  Process& parent = kernel.CreateProcess();
  Vaddr va = parent.Mmap(8 * kPageSize, kProtRead | kProtWrite);
  FillPattern(parent, va, 8 * kPageSize, 13);
  std::vector<Process*> children;
  for (int i = 0; i < 3; ++i) {
    children.push_back(&kernel.Fork(parent, ForkMode::kOnDemand));
  }
  FrameId frame = FrameAt(parent, va);
  EXPECT_EQ(kernel.rmap().LocationCount(frame), 1u);
  EXPECT_EQ(kernel.rmap().TotalLocations(), 8u);

  WriteByte(*children[0], va + kPageSize, std::byte{0x42});  // Dedicates child 0's table.
  EXPECT_EQ(kernel.rmap().LocationCount(frame), 2u);
  ExpectVerifies(kernel);
}

// Exit unlinks the address space from its family: its slots stop counting, the frame
// becomes evictable by the survivors alone, and the family shrinks.
TEST(RmapWalkTest, ExitedFamilyMemberDropsOutOfTheWalk) {
  Kernel kernel;
  Process& parent = kernel.CreateProcess();
  Vaddr va = parent.Mmap(kPageSize, kProtRead | kProtWrite);
  FillPattern(parent, va, kPageSize, 14);
  Process& child = kernel.Fork(parent, ForkMode::kClassic);
  FrameId frame = FrameAt(parent, va);
  const reclaim::AnonFamily* family = parent.address_space().anon_family();
  ASSERT_EQ(child.address_space().anon_family(), family);
  EXPECT_EQ(family->members().size(), 2u);
  EXPECT_EQ(kernel.rmap().LocationCount(frame), 2u);

  kernel.Exit(child, 0);
  EXPECT_EQ(child.address_space().anon_family(), nullptr);
  EXPECT_EQ(family->members().size(), 1u);
  EXPECT_EQ(kernel.rmap().LocationCount(frame), 1u);
  EXPECT_EQ(kernel.ReclaimMemory(1), 1u);
  ExpectAllSwapped(parent, va, kPageSize);
  ExpectPattern(parent, va, kPageSize, 14);
  ExpectVerifies(kernel);
}

// A fresh fault admits its page through this thread's add batch, not the lists; reclaim
// must drain every batch before it scans, or the page would be invisible to it.
TEST(RmapWalkTest, PageFaultedJustBeforeReclaimIsEvictable) {
  Kernel kernel;
  Process& p = kernel.CreateProcess();
  Vaddr va = p.Mmap(kPageSize, kProtRead | kProtWrite);
  FillPattern(p, va, kPageSize, 15);
  EXPECT_EQ(kernel.lru().Size(), 1u) << "admitted (still batched)";

  EXPECT_EQ(kernel.ReclaimMemory(1), 1u);
  ExpectAllSwapped(p, va, kPageSize);
  EXPECT_EQ(kernel.lru().Size(), 0u) << "the evicted frame left the LRU when it was freed";
  ExpectPattern(p, va, kPageSize, 15);
  EXPECT_EQ(kernel.lru().Size(), 1u) << "the swapped-in copy is admitted again";
  ExpectVerifies(kernel);
}

// --- Watermarks and the background daemon ---

TEST(WatermarkTest, DerivedDefaultsScaleWithTheLimitAndExplicitValuesPin) {
  Kernel kernel;
  kernel.SetMemoryLimitFrames(640);
  FrameAllocator::Watermarks wm = kernel.allocator().watermarks();
  EXPECT_EQ(wm.min, 640 / 64 + 4);
  EXPECT_EQ(wm.low, 2 * wm.min);
  EXPECT_EQ(wm.high, 3 * wm.min);

  kernel.allocator().SetWatermarks({.min = 5, .low = 11, .high = 23});
  kernel.SetMemoryLimitFrames(1280);  // Explicit values survive a limit change.
  wm = kernel.allocator().watermarks();
  EXPECT_EQ(wm.min, 5u);
  EXPECT_EQ(wm.low, 11u);
  EXPECT_EQ(wm.high, 23u);
}

TEST(KswapdTest, PressureBelowLowWatermarkWakesDaemonWhichBalancesToHigh) {
  constexpr uint64_t kLimit = 512;
  Kernel kernel;
  kernel.SetMemoryLimitFrames(kLimit);
  kernel.StartKswapd();
  ASSERT_NE(kernel.kswapd(), nullptr);
  ASSERT_TRUE(kernel.kswapd()->Running());

  CounterDelta wakes(VmCounter::k_kswapd_wake);
  Process& p = kernel.CreateProcess();
  constexpr uint64_t kPages = 500;  // Deep past LOW (24 for this limit).
  Vaddr va = p.Mmap(kPages * kPageSize, kProtRead | kProtWrite);
  FillPattern(p, va, kPages * kPageSize, 5);

  // The allocations crossed the LOW watermark, so the pressure callback must have fired;
  // the daemon then reclaims in the background until free frames recover to HIGH.
  uint64_t high = kernel.allocator().watermarks().high;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((kernel.allocator().FreeFrames() < high ||
          kernel.kswapd()->stats().wakeups.load() == 0) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(kernel.kswapd()->stats().wakeups.load(), 0u);
  EXPECT_GT(wakes.Get(), 0u);
  EXPECT_GE(kernel.allocator().FreeFrames(), high)
      << "kswapd balances until the high watermark";
  EXPECT_GT(kernel.kswapd()->stats().pages_freed.load(), 0u);

  // The evicted pages come back byte-identical while the daemon keeps running.
  ExpectPattern(p, va, kPages * kPageSize, 5);
  kernel.StopKswapd();
  EXPECT_EQ(kernel.kswapd(), nullptr);
  ExpectVerifies(kernel);
}

// --- The docs/reclaim.md acceptance workload ---

// A frame pool HALF the size of the working set: before src/reclaim this configuration
// died in the OOM killer; now it must complete through reclaim with every byte intact.
TEST(ReclaimAcceptanceTest, PoolAtHalfTheWorkingSetCompletesWithZeroCorruption) {
  constexpr uint64_t kWorkingSetPages = 512;
  constexpr uint64_t kPoolFrames = 300;  // ~50% of pages + tables.
  Kernel kernel;
  kernel.SetMemoryLimitFrames(kPoolFrames);

  CounterDelta scanned(VmCounter::k_pgscan);
  CounterDelta stolen(VmCounter::k_pgsteal);
  CounterDelta refaults(VmCounter::k_pgrefault);
  CounterDelta direct(VmCounter::k_direct_reclaim);

  Process& p = kernel.CreateProcess();
  Vaddr va = p.Mmap(kWorkingSetPages * kPageSize, kProtRead | kProtWrite);
  // Two full passes: the fill forces eviction of its own tail, the verify refaults
  // everything back in (and evicts again to make room while doing so).
  FillPattern(p, va, kWorkingSetPages * kPageSize, 6);
  ExpectPattern(p, va, kWorkingSetPages * kPageSize, 6);

  EXPECT_EQ(kernel.oom_kills(), 0u) << "reclaim must carry this load without killing";
  EXPECT_GT(scanned.Get(), 0u);
  EXPECT_GT(stolen.Get(), 0u);
  EXPECT_GT(refaults.Get(), 0u);
  EXPECT_GT(direct.Get(), 0u);
  ExpectVerifies(kernel);

  std::string vmstat = FormatVmstat(kernel);
  EXPECT_GT(VmstatValue(vmstat, "pgscan"), 0u);
  EXPECT_GT(VmstatValue(vmstat, "pgsteal"), 0u);
  EXPECT_GT(VmstatValue(vmstat, "pgrefault"), 0u);
}

// The same over-committed workload with the daemon running: mutator faults race kswapd's
// balance rounds (this is the TSan-interesting configuration).
TEST(ReclaimAcceptanceTest, OverCommittedWorkloadCompletesWithKswapdRunning) {
  constexpr uint64_t kWorkingSetPages = 512;
  Kernel kernel;
  kernel.SetMemoryLimitFrames(300);
  kernel.StartKswapd();

  Process& p = kernel.CreateProcess();
  Vaddr va = p.Mmap(kWorkingSetPages * kPageSize, kProtRead | kProtWrite);
  FillPattern(p, va, kWorkingSetPages * kPageSize, 7);
  ExpectPattern(p, va, kWorkingSetPages * kPageSize, 7);

  EXPECT_EQ(kernel.oom_kills(), 0u);
  kernel.StopKswapd();
  ExpectVerifies(kernel);
}

// --- Observability surfaces (docs/observability.md, docs/reclaim.md) ---

TEST(ReclaimProcfsTest, MeminfoReportsPoolLruAndWatermarks) {
  Kernel kernel;
  kernel.SetMemoryLimitFrames(1024);
  Process& p = kernel.CreateProcess();
  Vaddr va = p.Mmap(16 * kPageSize, kProtRead | kProtWrite);
  FillPattern(p, va, 16 * kPageSize, 8);

  std::string meminfo = FormatMeminfo(kernel);
  EXPECT_NE(meminfo.find("MemTotal:"), std::string::npos) << meminfo;
  EXPECT_NE(meminfo.find("Inactive(anon):"), std::string::npos) << meminfo;
  EXPECT_NE(meminfo.find("WatermarkLow:"), std::string::npos) << meminfo;

  std::string vmstat = FormatVmstat(kernel);
  EXPECT_EQ(VmstatValue(vmstat, "nr_rmap_locations"), 16u);
  EXPECT_EQ(VmstatValue(vmstat, "nr_inactive_anon") + VmstatValue(vmstat, "nr_active_anon"),
            16u);
  EXPECT_EQ(VmstatValue(vmstat, "kswapd_running"), 0u);
}

// The evictor's gate hold is always on the record: every exclusive hold adds to vmstat
// mm_gate_hold_ns and the mm_gate_hold histogram, whatever the trace setting, and swap-ins
// served from a pending write-out have their own counter; all three show in vmstat.
TEST(ReclaimProcfsTest, VmstatReportsGateHoldsAndPendingSwapIns) {
  Kernel kernel;
  Process& p = kernel.CreateProcess();
  Vaddr va = p.Mmap(16 * kPageSize, kProtRead | kProtWrite);
  FillPattern(p, va, 16 * kPageSize, 13);
  std::string before = FormatVmstat(kernel);
  ASSERT_GT(kernel.ReclaimMemory(16), 0u);
  std::string after = FormatVmstat(kernel);
  EXPECT_GT(VmstatValue(after, "mm_gate_hold_ns"), VmstatValue(before, "mm_gate_hold_ns"));
  EXPECT_GT(VmstatValue(after, "mm_gate_hold_count"), VmstatValue(before, "mm_gate_hold_count"));
  EXPECT_EQ(VmstatValue(after, "pgswapin_pending"), VmstatValue(before, "pgswapin_pending"))
      << "direct reclaim finishes its pageout before it returns";
}

// Aging scans count pgrefill (Linux's name for active-list frames aged), whatever the trace
// setting, and show in vmstat: every frame aging demotes was scanned first.
TEST(ReclaimProcfsTest, VmstatCountsAgingScansAsPgrefill) {
  Kernel kernel;
  Process& p = kernel.CreateProcess();
  Vaddr va = p.Mmap(16 * kPageSize, kProtRead | kProtWrite);
  FillPattern(p, va, 16 * kPageSize, 14);
  std::string before = FormatVmstat(kernel);
  ASSERT_GT(kernel.ReclaimMemory(16), 0u);  // Second chance first, so the rounds age.
  std::string after = FormatVmstat(kernel);
  uint64_t refill = VmstatValue(after, "pgrefill") - VmstatValue(before, "pgrefill");
  uint64_t demoted =
      VmstatValue(after, "pgdeactivate") - VmstatValue(before, "pgdeactivate");
  EXPECT_GT(demoted, 0u);
  EXPECT_GE(refill, demoted);
}

}  // namespace
}  // namespace odf
