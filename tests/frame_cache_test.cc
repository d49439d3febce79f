// Per-thread frame caches (src/phys/per_cpu_cache.h, the pcplist analog) and the batched
// refcount/free paths: cache hit/miss/refill/drain behaviour, drain on thread exit, leak
// freedom under randomized multi-thread churn, scalar/batch API equivalence, the per-thread
// statistics deltas, and that a reused frame's stale bytes never leak to its next owner
// (frame data lives at fixed addresses, so a reused frame still holds them), and the
// zeroed-table lists that hand freed page tables back without a memset. Part of the
// `concurrency` ctest label and expected to run clean under -fsanitize=thread (the tsan
// preset, docs/testing.md).
#include "src/phys/frame_allocator.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include "src/debug/debug.h"
#include "src/debug/verify.h"
#include "src/mf/memory_failure.h"
#include "src/phys/per_cpu_cache.h"
#include "src/proc/kernel.h"
#include "src/trace/metrics.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace odf {
namespace {

TEST(FrameCacheTest, FreedFrameParksInCacheAndIsRecycledWithoutThePool) {
  FrameAllocator allocator;
  FrameId first = allocator.Allocate(kPageFlagAnon);
  uint64_t cached_before = allocator.CachedFrames();
  allocator.DecRef(first);
  EXPECT_EQ(allocator.CachedFrames(), cached_before + 1)
      << "order-0 free must park in the thread cache";
  EXPECT_TRUE(allocator.AllFree()) << "cached frames are free, not allocated";

  uint64_t hits_before = ReadVm(VmCounter::k_pcp_hit);
  FrameId second = allocator.Allocate(kPageFlagAnon);
  EXPECT_EQ(second, first) << "LIFO cache must recycle the hottest frame";
  EXPECT_EQ(ReadVm(VmCounter::k_pcp_hit), hits_before + 1);
  EXPECT_EQ(allocator.CachedFrames(), cached_before);
  allocator.DecRef(second);
}

TEST(FrameCacheTest, FirstAllocationRefillsOneBatch) {
  FrameAllocator allocator;
  uint64_t misses_before = ReadVm(VmCounter::k_pcp_miss);
  uint64_t refill_before = ReadVm(VmCounter::k_pcp_refill);
  FrameId frame = allocator.Allocate(kPageFlagAnon);
  EXPECT_EQ(ReadVm(VmCounter::k_pcp_miss), misses_before + 1);
  uint64_t batch = ReadVm(VmCounter::k_pcp_refill) - refill_before;
  EXPECT_GE(batch, 1u);
  // One frame was handed out; the rest of the refill batch is parked in the cache.
  EXPECT_EQ(allocator.CachedFrames(), batch - 1);
  allocator.DecRef(frame);
}

TEST(FrameCacheTest, OverfullCacheSpillsBatchToPool) {
  FrameAllocator allocator;
  // Allocate well past one refill batch, then free everything: the cache must spill in
  // batches rather than grow without bound.
  constexpr size_t kFrames = 512;
  std::vector<FrameId> frames;
  for (size_t i = 0; i < kFrames; ++i) {
    frames.push_back(allocator.Allocate(kPageFlagAnon));
  }
  uint64_t drains_before = ReadVm(VmCounter::k_pcp_drain);
  for (FrameId frame : frames) {
    allocator.DecRef(frame);
  }
  EXPECT_GT(ReadVm(VmCounter::k_pcp_drain), drains_before) << "spill must have happened";
  EXPECT_LE(allocator.CachedFrames(), 64u) << "cache capacity must stay bounded";
  EXPECT_TRUE(allocator.AllFree());
}

TEST(FrameCacheTest, SpillKeepsTheMostRecentlyFreedHalf) {
  constexpr size_t kBatch = phys_internal::PerCpuCache::kBatch;
  FrameAllocator allocator;
  std::vector<FrameId> frames;
  for (size_t i = 0; i < 4 * kBatch; ++i) {
    frames.push_back(allocator.Allocate(kPageFlagAnon));
  }
  // Free in order until the cache fills and spills; the frame whose free spilled is on top.
  size_t spilled_at = frames.size();
  for (size_t i = 0; i < frames.size() && spilled_at == frames.size(); ++i) {
    uint64_t drains_before = ReadVm(VmCounter::k_pcp_drain);
    allocator.DecRef(frames[i]);
    if (ReadVm(VmCounter::k_pcp_drain) != drains_before) {
      spilled_at = i;
    }
  }
  ASSERT_LT(spilled_at, frames.size()) << "the cache never spilled";
  ASSERT_GE(spilled_at, kBatch);
  // The coldest half went to the pool: the next allocations are the frames freed last, the
  // one that spilled first, then the batch freed just before it, newest first.
  std::vector<FrameId> reused;
  for (size_t k = 0; k <= kBatch; ++k) {
    reused.push_back(allocator.Allocate(kPageFlagAnon));
    EXPECT_EQ(reused.back(), frames[spilled_at - k]) << "allocation " << k << " after the spill";
  }
  EXPECT_EQ(allocator.CachedFrames(), 0u) << "the spill left exactly the hot half and one";
  for (FrameId frame : reused) {
    allocator.DecRef(frame);
  }
  for (size_t i = spilled_at + 1; i < frames.size(); ++i) {
    allocator.DecRef(frames[i]);
  }
  EXPECT_TRUE(allocator.AllFree());
}

TEST(FrameCacheTest, CacheDrainsBackToPoolOnThreadExit) {
  FrameAllocator allocator;
  uint64_t drains_before = 0;
  uint64_t parked = 0;
  std::thread worker([&allocator, &drains_before, &parked] {
    std::vector<FrameId> frames;
    for (int i = 0; i < 40; ++i) {
      frames.push_back(allocator.Allocate(kPageFlagAnon));
    }
    for (FrameId frame : frames) {
      allocator.DecRef(frame);
    }
    parked = allocator.CachedFrames();
    drains_before = ReadVm(VmCounter::k_pcp_drain);
    EXPECT_GT(parked, 0u) << "worker's cache should hold its frees";
  });
  worker.join();
  EXPECT_EQ(allocator.CachedFrames(), 0u)
      << "thread exit must drain its cache back to the shared pool";
  // The drain runs in a thread_local destructor, possibly after the thread's vmstat shard
  // was folded into the retired totals; its count must survive either order.
  EXPECT_EQ(ReadVm(VmCounter::k_pcp_drain) - drains_before, parked)
      << "pcp_drain must count every frame drained at thread exit";
  EXPECT_TRUE(allocator.AllFree());
}

TEST(FrameCacheTest, FrameLimitBypassesTheCache) {
  FrameAllocator allocator;
  allocator.SetFrameLimit(1u << 16);
  uint64_t hits_before = ReadVm(VmCounter::k_pcp_hit);
  uint64_t misses_before = ReadVm(VmCounter::k_pcp_miss);
  FrameId frame = allocator.Allocate(kPageFlagAnon);
  allocator.DecRef(frame);
  EXPECT_EQ(allocator.CachedFrames(), 0u) << "caches stand down while a limit is armed";
  EXPECT_EQ(ReadVm(VmCounter::k_pcp_hit), hits_before);
  EXPECT_EQ(ReadVm(VmCounter::k_pcp_miss), misses_before);
  EXPECT_TRUE(allocator.AllFree());
}

TEST(FrameCacheTest, ThreadedChurnKeepsFramesDistinctAndLeakFree) {
  FrameAllocator allocator;
  constexpr int kThreads = 4;
  constexpr int kRounds = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&allocator, t] {
      Rng rng(static_cast<uint64_t>(t) + 1);
      std::vector<FrameId> held;
      for (int round = 0; round < kRounds; ++round) {
        if (held.empty() || rng.Next() % 2 == 0) {
          FrameId frame = allocator.Allocate(kPageFlagAnon);
          // The frame is exclusively ours: its metadata must say so.
          EXPECT_EQ(allocator.GetMeta(frame).refcount.load(std::memory_order_relaxed), 1u);
          held.push_back(frame);
        } else {
          size_t victim = rng.Next() % held.size();
          allocator.DecRef(held[victim]);
          held[victim] = held.back();
          held.pop_back();
        }
      }
      for (FrameId frame : held) {
        allocator.DecRef(frame);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_TRUE(allocator.AllFree()) << "randomized multi-thread churn must not leak";
}

TEST(FrameCacheTest, CrossThreadFreeOfSharedFrames) {
  // COW shape: frames allocated on one thread, referenced by many, freed by whichever
  // thread drops the last reference (the acq_rel DecRef chain).
  FrameAllocator allocator;
  constexpr int kThreads = 4;
  constexpr size_t kFrames = 256;
  std::vector<FrameId> frames;
  for (size_t i = 0; i < kFrames; ++i) {
    FrameId frame = allocator.Allocate(kPageFlagAnon);
    for (int t = 1; t < kThreads; ++t) {
      allocator.IncRef(frame);
    }
    frames.push_back(frame);
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&allocator, &frames] {
      for (FrameId frame : frames) {
        allocator.DecRef(frame);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_TRUE(allocator.AllFree());
}

TEST(FrameCacheTest, ConcurrentMaterializeResolvesToOneBuffer) {
  FrameAllocator allocator;
  constexpr size_t kFrames = 64;
  std::vector<FrameId> frames;
  for (size_t i = 0; i < kFrames; ++i) {
    frames.push_back(allocator.Allocate(kPageFlagAnon));
  }
  constexpr int kThreads = 4;
  std::array<std::array<std::byte*, kFrames>, kThreads> observed{};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&allocator, &frames, &observed, t] {
      for (size_t i = 0; i < kFrames; ++i) {
        observed[static_cast<size_t>(t)][i] = allocator.MaterializeData(frames[i]);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (size_t i = 0; i < kFrames; ++i) {
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(observed[static_cast<size_t>(t)][i], observed[0][i])
          << "racing materialisations of frame " << frames[i] << " must agree";
    }
  }
  for (FrameId frame : frames) {
    allocator.DecRef(frame);
  }
  EXPECT_TRUE(allocator.AllFree());
}

TEST(FrameCacheTest, AllocateBatchMatchesScalarAllocate) {
  FrameAllocator allocator;
  std::array<FrameId, 300> batch;
  allocator.AllocateBatch(kPageFlagAnon | kPageFlagZeroFill, std::span<FrameId>(batch));
  std::set<FrameId> seen;
  for (FrameId frame : batch) {
    EXPECT_TRUE(seen.insert(frame).second) << "batch handed out frame " << frame << " twice";
    const PageMeta& meta = allocator.GetMeta(frame);
    EXPECT_EQ(meta.refcount.load(std::memory_order_relaxed), 1u);
    EXPECT_TRUE((meta.flags & kPageFlagAllocated) != 0);
    EXPECT_EQ(meta.compound_head, frame);
    EXPECT_EQ(allocator.PeekData(frame), nullptr);
  }
  EXPECT_EQ(allocator.Stats().allocated_frames, batch.size());
  allocator.DecRefBatch(std::span<const FrameId>(batch));
  EXPECT_TRUE(allocator.AllFree());
}

TEST(FrameCacheTest, IncAndDecRefBatchMatchScalarLoops) {
  FrameAllocator allocator;
  std::array<FrameId, 16> frames;
  allocator.AllocateBatch(kPageFlagAnon, std::span<FrameId>(frames));

  // Batch IncRef == 16 scalar IncRefs.
  allocator.IncRefBatch(std::span<const FrameId>(frames));
  for (FrameId frame : frames) {
    EXPECT_EQ(allocator.GetMeta(frame).refcount.load(std::memory_order_relaxed), 2u);
  }
  // One batch DecRef drops to 1 and frees nothing...
  allocator.DecRefBatch(std::span<const FrameId>(frames));
  EXPECT_EQ(allocator.Stats().allocated_frames, frames.size());
  for (FrameId frame : frames) {
    EXPECT_EQ(allocator.GetMeta(frame).refcount.load(std::memory_order_relaxed), 1u);
  }
  // ...the second frees everything, exactly like a scalar DecRef loop would.
  uint64_t batch_free_before = ReadVm(VmCounter::k_batch_free);
  allocator.DecRefBatch(std::span<const FrameId>(frames));
  EXPECT_TRUE(allocator.AllFree());
  EXPECT_EQ(ReadVm(VmCounter::k_batch_free), batch_free_before + frames.size())
      << "zero-hitting frames of one batch must be freed via the batch path";
}

// The split-huge case: 512 PTEs name the head and its 511 tails, and every one of them
// holds its reference on the head (SplitHugeMapping). DecRefBatch takes the frames as the
// entries name them and resolves each tail to the head itself.
TEST(FrameCacheTest, DecRefBatchResolvesCompoundTailsToTheirHead) {
  FrameAllocator allocator;
  constexpr FrameId kCompoundFrames = 1u << kHugePageOrder;
  FrameId head = allocator.AllocateCompound(kPageFlagAnon);
  allocator.AddRefs(head, kCompoundFrames - 1);  // One reference per subpage.
  std::array<FrameId, kCompoundFrames> subpages;
  for (FrameId i = 0; i < kCompoundFrames; ++i) {
    subpages[i] = head + i;
  }
  ASSERT_TRUE(allocator.GetMeta(subpages[1]).IsCompoundTail());

  // Every subpage but the last: the head keeps one reference and nothing is freed.
  allocator.DecRefBatch(std::span<const FrameId>(subpages.data(), kCompoundFrames - 1));
  EXPECT_EQ(allocator.GetMeta(head).refcount.load(std::memory_order_relaxed), 1u);
  EXPECT_EQ(allocator.GetMeta(subpages.back()).refcount.load(std::memory_order_relaxed), 0u)
      << "tails never carry references of their own";
  EXPECT_EQ(allocator.Stats().allocated_frames, kCompoundFrames);

  // The last tail drops the head's last reference: the compound is freed once, whole.
  uint64_t batch_free_before = ReadVm(VmCounter::k_batch_free);
  allocator.DecRefBatch(std::span<const FrameId>(&subpages.back(), 1));
  EXPECT_TRUE(allocator.AllFree());
  EXPECT_EQ(ReadVm(VmCounter::k_batch_free), batch_free_before + 1);
}

TEST(FrameCacheTest, FreeBatchReleasesSolelyOwnedFrames) {
  FrameAllocator allocator;
  std::array<FrameId, 64> frames;
  allocator.AllocateBatch(kPageFlagAnon, std::span<FrameId>(frames));
  EXPECT_EQ(allocator.Stats().allocated_frames, frames.size());
  allocator.FreeBatch(std::span<const FrameId>(frames));
  EXPECT_TRUE(allocator.AllFree());
}

TEST(FrameCacheTest, IncPtShareBatchMatchesScalar) {
  FrameAllocator allocator;
  std::array<FrameId, 8> tables;
  for (FrameId& table : tables) {
    table = allocator.Allocate(kPageFlagPageTable);  // Born with pt_share_count == 1.
  }
  allocator.IncPtShareBatch(std::span<const FrameId>(tables));
  for (FrameId table : tables) {
    EXPECT_EQ(allocator.GetMeta(table).pt_share_count.load(std::memory_order_relaxed), 2u);
  }
  for (FrameId table : tables) {
    EXPECT_EQ(allocator.DecPtShare(table), 2u);
    allocator.DecRef(table);
  }
  EXPECT_TRUE(allocator.AllFree());
}

TEST(FrameCacheTest, StatsSnapshotIsCoherentUnderConcurrency) {
  // Stats() must be data-race free while other threads churn (relaxed atomics; this test is
  // the TSan witness for the old plain-uint64 race).
  FrameAllocator allocator;
  std::atomic<bool> stop{false};
  std::thread churn([&allocator, &stop] {
    Rng rng(7);
    std::vector<FrameId> held;
    while (!stop.load(std::memory_order_relaxed)) {
      if (held.size() < 128 && rng.Next() % 2 == 0) {
        held.push_back(allocator.Allocate(kPageFlagAnon));
      } else if (!held.empty()) {
        allocator.DecRef(held.back());
        held.pop_back();
      }
    }
    for (FrameId frame : held) {
      allocator.DecRef(frame);
    }
  });
  for (int i = 0; i < 5000; ++i) {
    FrameAllocatorStats stats = allocator.Stats();
    EXPECT_LE(stats.allocated_frames, stats.total_frames);
  }
  stop.store(true, std::memory_order_relaxed);
  churn.join();
  EXPECT_TRUE(allocator.AllFree());
}

TEST(FrameCacheTest, RandomizedTortureAcrossThreadsEndsAllFree) {
  FrameAllocator allocator;
  constexpr int kThreads = 4;
  constexpr int kOps = 3000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&allocator, t] {
      Rng rng(0xabcdef12u + static_cast<uint64_t>(t));
      std::vector<FrameId> held;
      std::vector<FrameId> compounds;
      for (int op = 0; op < kOps; ++op) {
        switch (rng.Next() % 5) {
          case 0:
          case 1:
            held.push_back(allocator.Allocate(kPageFlagAnon));
            break;
          case 2: {
            std::array<FrameId, 32> batch;
            allocator.AllocateBatch(kPageFlagAnon, std::span<FrameId>(batch));
            held.insert(held.end(), batch.begin(), batch.end());
            break;
          }
          case 3:
            if (!held.empty()) {
              size_t victim = rng.Next() % held.size();
              allocator.DecRef(held[victim]);
              held[victim] = held.back();
              held.pop_back();
            } else if (compounds.size() < 4) {
              compounds.push_back(allocator.AllocateCompound(kPageFlagAnon));
            }
            break;
          case 4:
            if (!compounds.empty()) {
              allocator.DecRef(compounds.back());
              compounds.pop_back();
            } else if (held.size() >= 16) {
              std::span<const FrameId> tail(held.data() + held.size() - 16, 16);
              allocator.DecRefBatch(tail);
              held.resize(held.size() - 16);
            }
            break;
        }
      }
      allocator.DecRefBatch(std::span<const FrameId>(held));
      for (FrameId head : compounds) {
        allocator.DecRef(head);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_TRUE(allocator.AllFree())
      << "randomized alloc/free/batch/compound torture must end with every frame free";
}

// --- Stale bytes never leak: a freed frame keeps its bytes at its fixed address ---

constexpr std::byte kStale{0xee};

bool AllBytesAre(const std::byte* data, std::byte value) {
  for (uint64_t i = 0; i < kPageSize; ++i) {
    if (data[i] != value) {
      return false;
    }
  }
  return true;
}

// Resolves the frame backing `va` in `p`, or kInvalidFrame when it is not present.
FrameId PresentFrame(Process& p, Vaddr va) {
  AddressSpace& as = p.address_space();
  Translation t = as.walker().Translate(as.pgd(), va, AccessType::kRead);
  return t.status == TranslateStatus::kOk ? t.frame : kInvalidFrame;
}

// Allocates `count` frames, fills each with kStale and frees them one by one: they park,
// dirty, on top of this thread's cache, first in line for its next allocations.
std::set<FrameId> LeaveStaleFrames(FrameAllocator& allocator, size_t count) {
  std::vector<FrameId> frames;
  for (size_t i = 0; i < count; ++i) {
    frames.push_back(allocator.Allocate(kPageFlagAnon));
    std::memset(allocator.MaterializeData(frames.back()), static_cast<int>(kStale), kPageSize);
  }
  for (FrameId frame : frames) {
    allocator.DecRef(frame);
  }
  return {frames.begin(), frames.end()};
}

TEST(FrameCacheTest, ReusedFrameStartsLogicallyZero) {
  FrameAllocator allocator;
  FrameId frame = allocator.Allocate(kPageFlagAnon);
  std::memset(allocator.MaterializeData(frame), static_cast<int>(kStale), kPageSize);
  allocator.DecRef(frame);
  FrameId reused = allocator.Allocate(kPageFlagAnon | kPageFlagZeroFill);
  ASSERT_EQ(reused, frame) << "the LIFO cache must hand the dirty frame straight back";
  EXPECT_EQ(allocator.PeekData(reused), nullptr) << "a reused frame must start logical zero";
  EXPECT_TRUE(AllBytesAre(allocator.MaterializeData(reused), std::byte{0}))
      << "materialising a reused frame must clear its previous owner's bytes";
  allocator.DecRef(reused);
  EXPECT_EQ(allocator.Stats().materialized_bytes, 0u);
}

TEST(FrameCacheTest, ReusedFrameReadsZerosThroughReadMemory) {
  Kernel kernel;
  Process& p = kernel.CreateProcess();
  constexpr uint64_t kPages = 16;
  std::set<FrameId> stale = LeaveStaleFrames(kernel.allocator(), 8);
  Vaddr va = p.Mmap(kPages * kPageSize, kProtRead | kProtWrite);
  std::vector<std::byte> bytes(kPages * kPageSize, std::byte{0x11});
  ASSERT_TRUE(p.ReadMemory(va, bytes));
  for (std::byte b : bytes) {
    ASSERT_EQ(b, std::byte{0}) << "a fresh anonymous mapping must read zeros";
  }
  size_t reused = 0;
  for (uint64_t i = 0; i < kPages; ++i) {
    FrameId frame = PresentFrame(p, va + i * kPageSize);
    if (frame != kInvalidFrame && stale.count(frame) != 0) {
      ++reused;
      EXPECT_EQ(kernel.allocator().PeekData(frame), nullptr)
          << "reused frame " << frame << " must be logical zero until written";
    }
  }
  EXPECT_GT(reused, 0u) << "the read faults should have recycled the stale frames";
  kernel.Exit(p, 0);
}

TEST(FrameCacheTest, ReusedPageTableFrameStartsAllZero) {
  FrameAllocator allocator;
  FrameId data = allocator.Allocate(kPageFlagAnon);
  std::memset(allocator.MaterializeData(data), static_cast<int>(kStale), kPageSize);
  allocator.DecRef(data);
  FrameId table = allocator.Allocate(kPageFlagPageTable);
  ASSERT_EQ(table, data);
  EXPECT_TRUE(AllBytesAre(reinterpret_cast<std::byte*>(allocator.TableEntries(table)),
                          std::byte{0}))
      << "a data frame reused as a page table must start with empty entries";
  std::memset(allocator.TableEntries(table), 0xff, kPageSize);
  if (debug::Compiled()) {
    // debug-vm aborts on a table freed dirty (TableFreedWithANonZeroEntryAborts); release
    // builds keep it off the zeroed-table list and zero it at reuse, which is checked here.
    std::memset(allocator.TableEntries(table), 0, kPageSize);
  }
  allocator.DecRef(table);
  FrameId again = allocator.Allocate(kPageFlagPageTable);
  ASSERT_EQ(again, table);
  EXPECT_TRUE(AllBytesAre(reinterpret_cast<std::byte*>(allocator.TableEntries(again)),
                          std::byte{0}))
      << "a reused page-table frame must start with empty entries";
  allocator.DecRef(again);
  EXPECT_TRUE(allocator.AllFree());
}

TEST(FrameCacheTest, CowCopyOverwritesAReusedFrameInFull) {
  Kernel kernel;
  Process& parent = kernel.CreateProcess();
  Vaddr va = parent.Mmap(kPageSize, kProtRead | kProtWrite);
  FillPattern(parent, va, kPageSize, 5);
  Process& child = kernel.Fork(parent, ForkMode::kOnDemand);
  std::set<FrameId> stale = LeaveStaleFrames(kernel.allocator(), 8);
  WriteByte(child, va, std::byte{0x42});  // COW: the copy comes from the stale frames.
  FrameId copy = PresentFrame(child, va);
  EXPECT_NE(stale.count(copy), 0u) << "the COW copy should have recycled a stale frame";
  std::vector<std::byte> expected(kPageSize);
  ASSERT_TRUE(parent.ReadMemory(va, expected));
  expected[0] = std::byte{0x42};
  const std::byte* bytes = kernel.allocator().PeekData(copy);
  ASSERT_NE(bytes, nullptr);
  EXPECT_EQ(std::memcmp(bytes, expected.data(), kPageSize), 0)
      << "the COW copy must overwrite all 4 KiB of the reused frame";
  kernel.Exit(child, 0);
  kernel.Wait(parent);
  kernel.Exit(parent, 0);
}

TEST(FrameCacheTest, SwapInOverwritesAReusedFrameInFull) {
  Kernel kernel;
  Process& p = kernel.CreateProcess();
  constexpr uint64_t kPages = 8;
  Vaddr va = p.Mmap(kPages * kPageSize, kProtRead | kProtWrite);
  FillPattern(p, va, kPages * kPageSize, 9);
  kernel.ReclaimMemory(kPages);
  Vaddr swapped = 0;
  for (uint64_t i = 0; i < kPages && swapped == 0; ++i) {
    if (PresentFrame(p, va + i * kPageSize) == kInvalidFrame) {
      swapped = va + i * kPageSize;
    }
  }
  ASSERT_NE(swapped, 0u) << "reclaim swapped nothing out";
  std::set<FrameId> stale = LeaveStaleFrames(kernel.allocator(), 8);
  ExpectPattern(p, va, kPages * kPageSize, 9);  // Swap-in: the target is a stale frame.
  FrameId frame = PresentFrame(p, swapped);
  EXPECT_NE(stale.count(frame), 0u) << "the swap-in target should be a recycled stale frame";
  kernel.Exit(p, 0);
}

// --- Per-thread statistics deltas ---

TEST(FrameCacheTest, StatsAreExactAfterThreadsAllocateMaterialiseAndFree) {
  FrameAllocator allocator;
  constexpr int kThreads = 4;
  constexpr size_t kPerThread = 200;
  std::vector<std::vector<FrameId>> kept(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&allocator, &kept, t] {
      Rng rng(static_cast<uint64_t>(t) + 11);
      std::vector<FrameId>& mine = kept[static_cast<size_t>(t)];
      for (size_t i = 0; i < kPerThread; ++i) {
        bool table = i % 5 == 0;
        FrameId frame = allocator.Allocate(table ? kPageFlagPageTable : kPageFlagAnon);
        if (!table && i % 2 == 0) {
          allocator.MaterializeData(frame);
        }
        if (rng.Next() % 2 == 0) {
          allocator.DecRef(frame);
        } else {
          mine.push_back(frame);
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  // Every thread has exited: its deltas were folded into the totals at exit.
  uint64_t frames = 0;
  uint64_t materialized = 0;
  uint64_t tables = 0;
  for (const std::vector<FrameId>& mine : kept) {
    for (FrameId frame : mine) {
      ++frames;
      tables += allocator.GetMeta(frame).IsPageTable() ? 1u : 0u;
      materialized += allocator.PeekData(frame) != nullptr ? kPageSize : 0;
    }
  }
  FrameAllocatorStats stats = allocator.Stats();
  EXPECT_EQ(stats.allocated_frames, frames);
  EXPECT_EQ(stats.materialized_bytes, materialized);
  EXPECT_EQ(stats.page_table_frames, tables);
  // Freed on another thread than allocated: the deltas go negative here and still sum.
  for (const std::vector<FrameId>& mine : kept) {
    for (FrameId frame : mine) {
      allocator.DecRef(frame);
    }
  }
  stats = allocator.Stats();
  EXPECT_EQ(stats.allocated_frames, 0u);
  EXPECT_EQ(stats.materialized_bytes, 0u);
  EXPECT_EQ(stats.page_table_frames, 0u);
  EXPECT_TRUE(allocator.AllFree());
}

TEST(FrameCacheTest, ThreadDeltasSurviveThreadExit) {
  FrameAllocator allocator;
  FrameId anon = kInvalidFrame;
  FrameId table = kInvalidFrame;
  std::thread worker([&] {
    anon = allocator.Allocate(kPageFlagAnon);
    allocator.MaterializeData(anon);
    table = allocator.Allocate(kPageFlagPageTable);
  });
  worker.join();
  FrameAllocatorStats stats = allocator.Stats();
  EXPECT_EQ(stats.allocated_frames, 2u);
  EXPECT_EQ(stats.materialized_bytes, 2 * kPageSize);
  EXPECT_EQ(stats.page_table_frames, 1u);
  EXPECT_FALSE(allocator.AllFree());
  allocator.DecRef(anon);
  allocator.DecRef(table);
  EXPECT_TRUE(allocator.AllFree());
  EXPECT_EQ(allocator.Stats().materialized_bytes, 0u);
}

// A thread's first allocator call may take the cache registry lock (CacheForThread), so the
// locked free and allocation paths look the cache up before the pool lock. With debug-vm
// lockdep, one thread exiting with cached frames records registry -> pool, and a thread
// whose first call lands on a locked path would record the inversion and abort.
TEST(FrameCacheTest, FirstCallOnALockedPathTakesRegistryBeforePool) {
  FrameAllocator allocator;
  std::thread([&allocator] { allocator.DecRef(allocator.Allocate(kPageFlagAnon)); }).join();
  FrameId head = allocator.AllocateCompound(kPageFlagAnon);
  std::thread([&allocator, head] { allocator.DecRef(head); }).join();  // Locked compound free.
  allocator.SetFrameLimit(1024);
  std::thread([&allocator] { allocator.DecRef(allocator.Allocate(kPageFlagAnon)); }).join();
  EXPECT_TRUE(allocator.AllFree());
}

TEST(FrameCacheTest, SetFrameLimitFoldsDeltasForAnExactFreeCount) {
  FrameAllocator allocator;
  std::vector<FrameId> mine;
  for (int i = 0; i < 10; ++i) {
    mine.push_back(allocator.Allocate(kPageFlagAnon));
  }
  // A live worker parks its own delta, then waits (quiescent) while the limit is armed.
  std::atomic<int> step{0};
  std::vector<FrameId> theirs;
  std::thread worker([&] {
    for (int i = 0; i < 7; ++i) {
      theirs.push_back(allocator.Allocate(kPageFlagAnon));
    }
    step.store(1, std::memory_order_release);
    while (step.load(std::memory_order_acquire) != 2) {
      std::this_thread::yield();
    }
    for (FrameId frame : theirs) {
      allocator.DecRef(frame);
    }
  });
  while (step.load(std::memory_order_acquire) != 1) {
    std::this_thread::yield();
  }
  constexpr uint64_t kLimit = 1000;
  allocator.SetFrameLimit(kLimit);
  EXPECT_EQ(allocator.FreeFrames(), kLimit - 17);
  step.store(2, std::memory_order_release);
  worker.join();
  EXPECT_EQ(allocator.FreeFrames(), kLimit - 10);
  for (FrameId frame : mine) {
    allocator.DecRef(frame);
  }
  EXPECT_EQ(allocator.FreeFrames(), kLimit);
  EXPECT_TRUE(allocator.AllFree());
}

// --- Zeroed-table lists: freed page tables come back without a memset ---

bool TableIsAllZero(FrameAllocator& allocator, FrameId table) {
  return AllBytesAre(reinterpret_cast<const std::byte*>(allocator.TableEntries(table)),
                     std::byte{0});
}

TEST(FrameCacheTest, FreedTableIsReusedZeroedFromTheListWithAndWithoutALimit) {
  for (uint64_t limit : {uint64_t{0}, uint64_t{1024}}) {
    SCOPED_TRACE(limit == 0 ? "no frame limit" : "frame limit armed");
    FrameAllocator allocator;
    allocator.SetFrameLimit(limit);
    FrameId table = allocator.Allocate(kPageFlagPageTable);
    // A table in use, emptied the way teardown empties it.
    StoreEntry(&allocator.TableEntries(table)[7], Pte::Make(123, kPtePresent | kPteUser));
    StoreEntry(&allocator.TableEntries(table)[7], Pte());
    uint64_t cached_before = allocator.CachedFrames();
    allocator.DecRef(table);
    EXPECT_EQ(allocator.CachedFrames(), cached_before + 1)
        << "a freed table parks on the thread's zeroed-table list, limit or not";
    EXPECT_TRUE(allocator.AllFree()) << "a parked table is a free frame";

    uint64_t hits_before = ReadVm(VmCounter::k_pt_quicklist_hit);
    uint64_t misses_before = ReadVm(VmCounter::k_pt_quicklist_miss);
    FrameId again = allocator.Allocate(kPageFlagPageTable);
    EXPECT_EQ(again, table) << "the table allocation must take the parked table";
    EXPECT_EQ(ReadVm(VmCounter::k_pt_quicklist_hit), hits_before + 1);
    EXPECT_EQ(ReadVm(VmCounter::k_pt_quicklist_miss), misses_before)
        << "a list hit is not zero-filled";
    EXPECT_TRUE(TableIsAllZero(allocator, again));
    EXPECT_EQ(allocator.Stats().page_table_frames, 1u);
    EXPECT_EQ(allocator.Stats().materialized_bytes, kPageSize);

    // With the list empty, the next table is zero-filled from the pool.
    FrameId fresh = allocator.Allocate(kPageFlagPageTable);
    EXPECT_EQ(ReadVm(VmCounter::k_pt_quicklist_miss), misses_before + 1);
    EXPECT_TRUE(TableIsAllZero(allocator, fresh));
    allocator.DecRef(fresh);
    allocator.DecRef(again);
    EXPECT_TRUE(allocator.AllFree());
    EXPECT_EQ(allocator.Stats().materialized_bytes, 0u);
  }
}

TEST(FrameCacheDeathTest, TableFreedWithANonZeroEntryAborts) {
  if (!debug::Compiled()) {
    GTEST_SKIP() << "VM_BUG_ON compiles out with -DODF_DEBUG_VM=OFF";
  }
  FrameAllocator allocator;
  FrameId table = allocator.Allocate(kPageFlagPageTable);
  StoreEntry(&allocator.TableEntries(table)[511], Pte::Make(42, kPtePresent | kPteUser));
  EXPECT_DEATH(allocator.DecRef(table), "non-zero entry");
}

TEST(FrameCacheTest, ParkedTablesAreFreeAndDrainOnThreadExit) {
  FrameAllocator allocator;
  constexpr size_t kTables = 40;
  uint64_t parked = 0;
  bool all_free_while_parked = false;
  std::thread worker([&] {
    std::vector<FrameId> tables;
    for (size_t i = 0; i < kTables; ++i) {
      tables.push_back(allocator.Allocate(kPageFlagPageTable));
    }
    for (FrameId table : tables) {
      allocator.DecRef(table);
    }
    parked = allocator.CachedFrames();
    all_free_while_parked = allocator.AllFree();
  });
  worker.join();
  EXPECT_GE(parked, kTables) << "the worker's tables park on its zeroed-table list";
  EXPECT_TRUE(all_free_while_parked) << "parked tables count as free";
  EXPECT_EQ(allocator.CachedFrames(), 0u) << "thread exit drains the zeroed-table list";
  EXPECT_TRUE(allocator.AllFree());
  EXPECT_EQ(allocator.Stats().page_table_frames, 0u);

  // The drain returned the tables to the order-0 free list: here, on a thread whose list is
  // empty, a table allocation is a miss and zero-fills a pool frame.
  uint64_t misses_before = ReadVm(VmCounter::k_pt_quicklist_miss);
  FrameId table = allocator.Allocate(kPageFlagPageTable);
  EXPECT_EQ(ReadVm(VmCounter::k_pt_quicklist_miss), misses_before + 1);
  EXPECT_TRUE(TableIsAllZero(allocator, table));
  allocator.DecRef(table);
  EXPECT_TRUE(allocator.AllFree());
}

TEST(FrameCacheTest, QuotaIsExactWhileTablesAreParked) {
  FrameAllocator allocator;
  constexpr uint64_t kLimit = 16;
  allocator.SetFrameLimit(kLimit);
  allocator.SetWatermarks({.min = kLimit, .low = kLimit, .high = kLimit});
  std::atomic<int> wakes{0};
  allocator.SetPressureCallback([&wakes] { wakes.fetch_add(1, std::memory_order_relaxed); });
  std::vector<FrameId> tables;
  for (uint64_t i = 0; i < kLimit / 2; ++i) {
    tables.push_back(allocator.Allocate(kPageFlagPageTable));
  }
  for (FrameId table : tables) {
    allocator.DecRef(table);
  }
  tables.clear();
  EXPECT_EQ(allocator.FreeFrames(), kLimit) << "parked tables count as free under a limit";

  uint64_t hits_before = ReadVm(VmCounter::k_pt_quicklist_hit);
  int wakes_before = wakes.load(std::memory_order_relaxed);
  for (uint64_t i = 0; i < kLimit; ++i) {
    FrameId table = allocator.TryAllocate(kPageFlagPageTable);
    ASSERT_NE(table, kInvalidFrame) << "allocation " << i << " fits under the limit";
    tables.push_back(table);
    EXPECT_EQ(allocator.FreeFrames(), kLimit - i - 1) << "each take charges one frame";
  }
  EXPECT_EQ(ReadVm(VmCounter::k_pt_quicklist_hit), hits_before + kLimit / 2)
      << "the parked half is served from the list";
  EXPECT_EQ(wakes.load(std::memory_order_relaxed) - wakes_before, static_cast<int>(kLimit))
      << "every take, list hit or not, nudges kswapd below the low watermark";
  EXPECT_EQ(allocator.TryAllocate(kPageFlagPageTable), kInvalidFrame)
      << "allocation must fail at exactly the limit";

  // Park one: it is free again, and exactly one more allocation fits.
  allocator.DecRef(tables.back());
  tables.pop_back();
  EXPECT_EQ(allocator.FreeFrames(), 1u);
  tables.push_back(allocator.TryAllocate(kPageFlagPageTable));
  EXPECT_NE(tables.back(), kInvalidFrame);
  EXPECT_EQ(allocator.TryAllocate(kPageFlagPageTable), kInvalidFrame);
  for (FrameId table : tables) {
    allocator.DecRef(table);
  }
  EXPECT_TRUE(allocator.AllFree());
  allocator.SetPressureCallback(nullptr);
}

TEST(FrameCacheTest, ParkedTablePoisonedByMemoryFailureIsQuarantined) {
  Kernel kernel;
  FrameAllocator& allocator = kernel.allocator();
  FrameId table = allocator.Allocate(kPageFlagPageTable);
  allocator.DecRef(table);
  mf::MfResult result = kernel.MemoryFailure(table);
  if (result == mf::MfResult::kNotSupported) {
    GTEST_SKIP() << "memory-failure handling compiled out (ODF_MEMORY_FAILURE=OFF)";
  }
  EXPECT_EQ(result, mf::MfResult::kDelayed) << "the parked table is a free frame";
  uint64_t quarantined_before = allocator.Stats().quarantined_frames;
  FrameId next = allocator.Allocate(kPageFlagPageTable);
  EXPECT_NE(next, table) << "a poisoned parked table must not be handed out";
  EXPECT_EQ(allocator.Stats().quarantined_frames, quarantined_before + 1);
  EXPECT_TRUE(TableIsAllZero(allocator, next));
  allocator.DecRef(next);
  EXPECT_TRUE(debug::VerifyKernel(kernel).ok());
}

}  // namespace
}  // namespace odf
