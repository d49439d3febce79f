// Per-thread frame caches: the userspace analog of the kernel's per-CPU pagesets (pcplists).
//
// Every `Allocate`/`DecRef` in the fault path used to take the single FrameAllocator mutex —
// the equivalent of contending the zone lock from every CPU. Linux sidesteps that with
// per-CPU free-page caches refilled and drained in batches; we mirror the design per thread
// (the simulator's "CPU" is a thread): order-0 allocations and frees are served from a small
// thread-local stack of free FrameIds and only touch the shared pool once per kBatch frames.
//
// Lifetime protocol (the part pcplists get for free from fixed CPU topology):
//   - Each thread owns its caches outright; nothing else reads or writes `slots`/`count`
//     while the thread lives. A cache is found via a thread_local table keyed by the owning
//     allocator's never-reused id, so a lookup never dereferences a dead allocator.
//   - A global registry mutex serialises the two rare cross-thread events: a thread exiting
//     (drains each live cache back to its allocator's free list) and an allocator being
//     destroyed (marks its caches orphaned so exiting threads skip them). Lock order is
//     registry mutex -> allocator mutex, never the reverse. A thread's first CacheForThread
//     takes the registry mutex, so allocator paths look their cache up before taking the
//     allocator mutex, never under it.
//
// Each cache also carries its thread's share of the allocator statistics (the per-CPU
// vm_stat_diff analog): signed deltas the owner updates without a shared atomic, summed by
// FrameAllocator::Stats and folded into the allocator's totals at thread exit.
//
// Beside the order-0 stack, each cache keeps a second one of freed page-table frames whose
// bytes are known zero (the analog of Linux's pte quicklists). Table teardown clears every
// entry it drops, so a table allocation served from this list skips the 4 KiB memset and
// the pool lock. Unlike the order-0 stack it stays in service under a frame limit: a
// parked table frame is a free frame like any other, and every take still walks the quota
// path (FrameAllocator, docs/performance.md). A full list leaves further table frees to the
// order-0 path, and thread exit drains the list to the pool's free list: tables freed on one
// thread are not handed to another thread zeroed. The first fork of a fresh parent has no
// freed tables to reuse and still zero-fills cold frames.
#ifndef ODF_SRC_PHYS_PER_CPU_CACHE_H_
#define ODF_SRC_PHYS_PER_CPU_CACHE_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>

#include "src/phys/page_meta.h"

namespace odf {

class FrameAllocator;

namespace phys_internal {

struct PerCpuCache {
  // Frames moved per shared-pool lock acquisition (the pcplist `batch`). Capacity is twice
  // the batch so a thread alternating alloc/free around a refill boundary doesn't thrash.
  static constexpr size_t kBatch = 32;
  static constexpr size_t kCapacity = 2 * kBatch;

  std::array<FrameId, kCapacity> slots;
  size_t count = 0;

  // Free page-table frames whose bytes are all zero, bounded like `slots`.
  std::array<FrameId, kCapacity> zeroed_tables;
  size_t zeroed_count = 0;

  // This thread's signed deltas of FrameAllocatorStats fields. Only the owner writes them
  // (relaxed load + store, no locked instruction); readers load them under the registry
  // mutex. A frame allocated on one thread and freed on another leaves +1 and -1 behind.
  std::atomic<int64_t> allocated_frames{0};
  std::atomic<int64_t> materialized_bytes{0};
  std::atomic<int64_t> page_table_frames{0};

  // Identity of the owning allocator. `allocator_id` is globally unique and never reused;
  // `owner` is nulled (under the registry mutex) when the allocator dies before this thread.
  uint64_t allocator_id = 0;
  FrameAllocator* owner = nullptr;
};

// Returns the calling thread's cache for `allocator`, creating and registering it on first
// use. The returned cache is exclusively owned by this thread until thread exit.
PerCpuCache& CacheForThread(FrameAllocator* allocator, uint64_t allocator_id);

// Called by ~FrameAllocator: orphans every cache registered against `allocator` so exiting
// threads do not drain into freed memory. The frames inside die with the allocator.
void RetireAllocatorCaches(FrameAllocator* allocator);

// Owner-only update of one of a cache's statistic deltas.
inline void AddDelta(std::atomic<int64_t>& delta, int64_t amount) {
  delta.store(delta.load(std::memory_order_relaxed) + amount, std::memory_order_relaxed);
}

// Calls `visit` once, under the registry mutex, with every cache registered against
// `allocator` (possibly none). Exiting threads fold and unregister under the same mutex, so
// `visit` sees each thread's deltas exactly once. `count` and `slots` are only stable when
// the owners are quiescent; the deltas are atomic and may be loaded at any time.
void WithCaches(const FrameAllocator* allocator,
                const std::function<void(std::span<PerCpuCache* const>)>& visit);

}  // namespace phys_internal
}  // namespace odf

#endif  // ODF_SRC_PHYS_PER_CPU_CACHE_H_
