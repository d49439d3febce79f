// Per-thread frame caches (src/phys/per_cpu_cache.h, the pcplist analog) and the batched
// refcount/free paths: cache hit/miss/refill/drain behaviour, drain on thread exit, leak
// freedom under randomized multi-thread churn, and scalar/batch API equivalence. Part of the
// `concurrency` ctest label and expected to run clean under -fsanitize=thread (the tsan
// preset, docs/testing.md).
#include "src/phys/frame_allocator.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include "src/trace/metrics.h"
#include "src/util/rng.h"

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

}  // namespace
}  // namespace odf
