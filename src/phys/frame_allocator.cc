#include "src/phys/frame_allocator.h"

#include <sanitizer/asan_interface.h>
#include <sys/mman.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "src/debug/debug.h"
#include "src/debug/lockdep.h"
#include "src/fi/fault_inject.h"
#include "src/phys/per_cpu_cache.h"
#include "src/trace/metrics.h"
#include "src/trace/trace.h"
#include "src/util/log.h"

namespace odf {

namespace {

using phys_internal::AddDelta;
using phys_internal::CacheForThread;
using phys_internal::PerCpuCache;

// Never-reused allocator identities for the per-thread cache table (per_cpu_cache.h).
std::atomic<uint64_t> g_next_allocator_id{1};

// Striped materialisation locks (the PtSplitLock pattern): concurrent COW faults
// materialising different frames never serialise on one mutex, and the shared-pool lock is
// kept out of the data path entirely.
constexpr size_t kMaterializeStripes = 64;
util::Mutex g_materialize_stripes[kMaterializeStripes];

// A chunk's storage: its PageMeta array and its frame data mapping.
struct ChunkStorage {
  PageMeta* meta = nullptr;
  std::byte* data = nullptr;
};

// Chunk storage outlives the allocator that reserved it. Like a machine's memmap and RAM it
// belongs to the process: a destroyed allocator's chunks go back here and the next
// allocator's chunks come from here, so its metadata and frames start on pages the host
// already backs rather than taking a host page fault on first touch (a fresh Kernel per
// run in the paper's benches would otherwise pay one per frame it touches, some of them
// inside the very fault being timed). Leaked on purpose, like the cache registry:
// allocators may die during static destruction.
struct ChunkPool {
  util::Mutex mu;
  std::vector<ChunkStorage> free ODF_GUARDED_BY(mu);
};

ChunkPool& GlobalChunkPool() {
  static ChunkPool* pool = new ChunkPool;
  return *pool;
}

util::Mutex& MaterializeStripe(FrameId frame) {
  return g_materialize_stripes[frame % kMaterializeStripes];
}

// Reserves `bytes` of frame data: address space only until frames are materialised, so a
// chunk of never-written frames costs the host nothing but its metadata. The mapping starts
// on a 2 MiB boundary (over-map by 2 MiB, unmap the unaligned head and tail) and is advised
// MADV_HUGEPAGE, so the host backs it with transparent huge pages where its THP mode
// allows: the direct-map analog, since the paper's kernel reaches tables and data through
// huge-page mappings and a random access or table walk here would otherwise also miss the
// host TLB. A simulated 2 MiB compound is then exactly one host huge page. The advice is
// per-mapping and changes no host setting; where it fails (THP off or absent) the chunk
// keeps 4 KiB host pages.
std::byte* ReserveFrameData(size_t bytes) {
  void* mapped = mmap(nullptr, bytes + kHugePageSize, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  ODF_CHECK(mapped != MAP_FAILED) << "cannot reserve frame data: " << std::strerror(errno);
  auto* raw = static_cast<std::byte*>(mapped);
  const uintptr_t address = reinterpret_cast<uintptr_t>(raw);
  const size_t head = ((address + kHugePageSize - 1) & ~(kHugePageSize - 1)) - address;
  std::byte* data = raw + head;
  if (head > 0) {
    munmap(raw, head);
  }
  munmap(data + bytes, kHugePageSize - head);  // mmap is page-aligned: head < 2 MiB.
  (void)madvise(data, bytes, MADV_HUGEPAGE);
  return data;
}

bool PageIsZero(const std::byte* data) {
  const auto* words = reinterpret_cast<const uint64_t*>(data);
  uint64_t any = 0;
  for (size_t i = 0; i < kPageSize / sizeof(uint64_t); ++i) {
    any |= words[i];
  }
  return any == 0;
}

// Lockdep classes (debug-vm builds only; empty tags otherwise). All 64 materialize
// stripes share one class, exactly like lockdep keying lock instances by type.
debug::LockClass g_pool_lock_class("FrameAllocator::mutex_");
debug::LockClass g_materialize_lock_class("FrameAllocator::materialize_stripe");
debug::LockClass g_chunk_pool_lock_class("phys::ChunkPool::mu");

}  // namespace

FrameAllocator::FrameAllocator()
    : id_(g_next_allocator_id.fetch_add(1, std::memory_order_relaxed)) {}

FrameAllocator::~FrameAllocator() {
  // First orphan this allocator's per-thread caches so exiting threads do not drain into
  // freed memory; the frame ids parked in them die with the metadata below.
  phys_internal::RetireAllocatorCaches(this);
  ChunkPool& pool = GlobalChunkPool();
  debug::MutexGuard guard(pool.mu, g_chunk_pool_lock_class);
  // In reverse, so the next allocator's chunk i reuses this one's chunk i (the pool pops
  // from the back): a workload run again finds the same pages warm in the same roles.
  for (size_t slot = chunk_count_; slot-- > 0;) {
    pool.free.push_back({chunk_table_[slot].load(std::memory_order_relaxed),
                         chunk_data_[slot].load(std::memory_order_relaxed)});
  }
}

FrameId FrameAllocator::AddChunkLocked() {
  ODF_CHECK(chunk_count_ < kMaxChunks)
      << "simulated physical memory exhausted (" << kMaxChunks << " chunks)";
  ChunkStorage storage;
  {
    ChunkPool& pool = GlobalChunkPool();
    debug::MutexGuard guard(pool.mu, g_chunk_pool_lock_class);
    if (!pool.free.empty()) {
      storage = pool.free.back();
      pool.free.pop_back();
    }
  }
  if (storage.data == nullptr) {
    storage.data = ReserveFrameData(kChunkDataBytes);
    // The metadata stays on the heap: advising it gained nothing, and rounding each
    // chunk's 2.25 MiB of PageMeta up to huge pages would cost resident memory.
    storage.meta = static_cast<PageMeta*>(::operator new(kChunkSize * sizeof(PageMeta)));
  }
  // Fresh metadata either way. A reused chunk's stale frame bytes are harmless: no frame
  // is read before it is materialised.
  std::uninitialized_value_construct_n(storage.meta, kChunkSize);
  size_t slot = chunk_count_++;
  chunk_data_[slot].store(storage.data, std::memory_order_release);
  chunk_table_[slot].store(storage.meta, std::memory_order_release);
  stats_.total_frames.fetch_add(kChunkSize, std::memory_order_relaxed);
  return static_cast<FrameId>(slot << kChunkShift);
}

FrameId FrameAllocator::PopFreeLocked() {
  for (;;) {
    if (free_list_.empty()) {
      FrameId base = AddChunkLocked();
      // Push in reverse so low frame ids are handed out first (mildly better locality).
      for (size_t i = kChunkSize; i-- > 0;) {
        free_list_.push_back(base + static_cast<FrameId>(i));
      }
    }
    FrameId frame = free_list_.back();
    free_list_.pop_back();
    if (MetaRef(frame).IsHwPoisoned()) {
      // Lazy quarantine: a frame poisoned while it sat on the free list (or while parked
      // in a per-thread cache that later spilled here) is retired at its next pop instead
      // of being handed out. Poison-check-on-alloc, at the allocator's chokepoint.
      QuarantineLocked(frame);
      continue;
    }
    return frame;
  }
}

void FrameAllocator::QuarantineLocked(FrameId frame) {
  quarantine_.push_back(frame);
  stats_.quarantined_frames.fetch_add(1, std::memory_order_relaxed);
}

void FrameAllocator::SetFrameLimit(uint64_t frames) {
  {
    debug::MutexGuard guard(mutex_, g_pool_lock_class);
    frame_limit_.store(frames, std::memory_order_relaxed);
    if (!watermarks_explicit_) {
      // min_free_kbytes-style scaling; +4 keeps tiny test pools from a zero floor.
      uint64_t min = frames == 0 ? 0 : frames / 64 + 4;
      wm_min_.store(min, std::memory_order_relaxed);
      wm_low_.store(min * 2, std::memory_order_relaxed);
      wm_high_.store(min * 3, std::memory_order_relaxed);
    }
  }
  // With the caches standing down, the quota gate reads the shared allocated_frames alone:
  // fold every thread's deltas into it. Outside mutex_ (registry -> pool order).
  phys_internal::WithCaches(this, [this](std::span<PerCpuCache* const> caches) {
    for (PerCpuCache* cache : caches) {
      FoldCacheStats(*cache);
    }
  });
}

uint64_t FrameAllocator::frame_limit() const {
  return frame_limit_.load(std::memory_order_relaxed);
}

void FrameAllocator::SetReclaimCallback(ReclaimCallback callback) {
  debug::MutexGuard guard(mutex_, g_pool_lock_class);
  reclaim_callback_ = std::move(callback);
}

void FrameAllocator::SetWatermarks(Watermarks wm) {
  debug::MutexGuard guard(mutex_, g_pool_lock_class);
  wm_min_.store(wm.min, std::memory_order_relaxed);
  wm_low_.store(wm.low, std::memory_order_relaxed);
  wm_high_.store(wm.high, std::memory_order_relaxed);
  watermarks_explicit_ = true;
}

FrameAllocator::Watermarks FrameAllocator::watermarks() const {
  return Watermarks{wm_min_.load(std::memory_order_relaxed),
                    wm_low_.load(std::memory_order_relaxed),
                    wm_high_.load(std::memory_order_relaxed)};
}

uint64_t FrameAllocator::FreeFrames() const {
  uint64_t limit = frame_limit_.load(std::memory_order_relaxed);
  if (limit == 0) {
    return UINT64_MAX;
  }
  int64_t allocated = stats_.allocated_frames.load(std::memory_order_relaxed);
  return allocated >= static_cast<int64_t>(limit) ? 0 : limit - static_cast<uint64_t>(allocated);
}

void FrameAllocator::SetPressureCallback(PressureCallback callback) {
  bool armed = callback != nullptr;
  {
    debug::MutexGuard guard(mutex_, g_pool_lock_class);
    pressure_callback_ = std::move(callback);
  }
  pressure_armed_.store(armed, std::memory_order_release);
}

void FrameAllocator::MaybeWakeReclaim(uint64_t want) {
  // Fast path: one relaxed load when no daemon is listening (the common case in tests).
  if (!pressure_armed_.load(std::memory_order_acquire)) {
    return;
  }
  uint64_t free = FreeFrames();
  uint64_t low = wm_low_.load(std::memory_order_relaxed);
  if (free == UINT64_MAX || free >= low + want) {
    return;
  }
  PressureCallback callback;
  {
    debug::MutexGuard guard(mutex_, g_pool_lock_class);
    callback = pressure_callback_;
  }
  if (callback) {
    callback();
  }
}

bool FrameAllocator::TryWaitForQuota(uint64_t frames) {
  // Nudge kswapd first — even when this allocation fits, crossing LOW should start the
  // background daemon so later allocations find headroom (the wakeup_kswapd analog).
  MaybeWakeReclaim(frames);
  // Like the kernel putting the faulting process to sleep while it frees memory (§4): run
  // reclaim rounds until the allocation fits, or report OOM when no progress is possible.
  for (int attempt = 0; attempt < 16; ++attempt) {
    if (FreeFrames() >= frames) {
      return true;
    }
    ReclaimCallback callback;
    {
      debug::MutexGuard guard(mutex_, g_pool_lock_class);
      callback = reclaim_callback_;
    }
    if (!callback) {
      return false;
    }
    uint64_t freed = callback(frames + 64);  // Batch a little slack to avoid thrash.
    if (freed == 0) {
      break;
    }
  }
  return FreeFrames() >= frames;
}

void FrameAllocator::WaitForQuota(uint64_t frames) {
  ODF_CHECK(TryWaitForQuota(frames))
      << "out of simulated memory: limit " << frame_limit() << " frames, " << frames
      << " wanted, reclaim exhausted (NOFAIL allocation)";
}

void FrameAllocator::CountAllocated(PerCpuCache& cache, int64_t frames) {
  if (CacheEligible()) {
    AddDelta(cache.allocated_frames, frames);
  } else {
    stats_.allocated_frames.fetch_add(frames, std::memory_order_relaxed);
  }
}

void FrameAllocator::FoldCacheStats(PerCpuCache& cache) {
  stats_.allocated_frames.fetch_add(cache.allocated_frames.exchange(0, std::memory_order_relaxed),
                                    std::memory_order_relaxed);
  stats_.materialized_bytes.fetch_add(
      cache.materialized_bytes.exchange(0, std::memory_order_relaxed), std::memory_order_relaxed);
  stats_.page_table_frames.fetch_add(
      cache.page_table_frames.exchange(0, std::memory_order_relaxed), std::memory_order_relaxed);
}

std::byte* FrameAllocator::PublishMaterialized(PerCpuCache& cache, FrameId frame,
                                               PageMeta& meta, uint64_t bytes, bool zero) {
  std::byte* data = FrameBytes(frame);
  ASAN_UNPOISON_MEMORY_REGION(data, bytes);
  if (zero) {
    // Not optional: a reused frame's bytes still hold its previous owner's content.
    std::memset(data, 0, bytes);
  }
  AddDelta(cache.materialized_bytes, static_cast<int64_t>(bytes));
  // Release pairs with the acquire in PeekData/MaterializeData: whoever sees the frame
  // materialised also sees the bytes written above.
  meta.materialized.store(1, std::memory_order_release);
  return data;
}

void FrameAllocator::ScrubFreedBytes(FrameId frame, uint64_t bytes) {
  std::byte* data = FrameBytes(frame);
#if ODF_DEBUG_VM_COMPILED
  // Poison-on-free: a stale reader racing the free observes 0xaa..aa instead of plausible
  // page contents.
  std::memset(data, static_cast<int>(debug::kPoisonByte), bytes);
  debug::internal::g_poison_writes.fetch_add(1, std::memory_order_relaxed);
#endif
  // The bytes stay mapped, so under ASan a stale access through an old PeekData pointer is
  // reported only because of this poisoning, until the frame is materialised again.
  ASAN_POISON_MEMORY_REGION(data, bytes);
}

void FrameAllocator::InitAllocatedFrame(PerCpuCache& cache, FrameId frame, uint8_t flags,
                                        bool known_zero) {
  PageMeta& meta = MetaRef(frame);
  ODF_VM_BUG_ON_PAGE((meta.flags & kPageFlagAllocated) != 0, meta, frame)
      << "double allocation";
  // Poison-check-on-alloc: a free frame must still be inert. Any stale IncRef/DecRef,
  // pt_share write, or canary clobber against this frame since it was freed aborts here,
  // at the next allocation — the earliest point the corruption is observable.
  ODF_VM_BUG_ON_PAGE(meta.refcount.load(std::memory_order_relaxed) != 0, meta, frame)
      << "frame gained references while on the free list";
  ODF_VM_BUG_ON_PAGE(meta.pt_share_count.load(std::memory_order_relaxed) != 0, meta, frame)
      << "frame gained table sharers while on the free list";
  // Backstop behind the pop-path diverts: a poisoned frame must never be handed out again.
  ODF_VM_BUG_ON_PAGE(meta.IsHwPoisoned(), meta, frame) << "allocating a hwpoisoned frame";
  ODF_VM_BUG_ON_PAGE(meta.lru_state.load(std::memory_order_relaxed) != 0 ||
                         meta.anon_family != 0,
                     meta, frame)
      << "free frame kept its LRU state or reverse-map stamp";
#if ODF_DEBUG_VM_COMPILED
  debug::internal::g_poison_checks.fetch_add(1, std::memory_order_relaxed);
  ODF_VM_BUG_ON_PAGE(meta.reserved != 0 && meta.reserved != debug::kPoisonFreed, meta, frame)
      << "free-frame canary clobbered";
  meta.reserved = debug::kPoisonAllocated;
#endif
  ODF_DCHECK((meta.flags & kPageFlagAllocated) == 0) << "double allocation of frame " << frame;
  meta.flags = static_cast<uint8_t>(flags | kPageFlagAllocated);
  meta.order = 0;
  meta.compound_head = frame;
  // Release: a speculative TryGetRef that pins this frame id again synchronises with it,
  // which orders the previous owner's unmap (and its generation bump) before that pin.
  meta.refcount.store(1, std::memory_order_release);
  meta.pt_share_count.store((flags & kPageFlagPageTable) != 0 ? 1 : 0,
                            std::memory_order_relaxed);
  CountAllocated(cache, 1);
  if ((flags & kPageFlagPageTable) != 0) {
    AddDelta(cache.page_table_frames, 1);
    CountVm(known_zero ? VmCounter::k_pt_quicklist_hit : VmCounter::k_pt_quicklist_miss);
    // Tables are always real memory. The frame is still private to this thread; a walker
    // reaches the zeroed entries only through the (release-stored) entry that links it.
    // A zeroed-table frame skips the memset, except in debug-vm, which poisoned it at free.
    PublishMaterialized(cache, frame, meta, kPageSize,
                        /*zero=*/!known_zero || debug::Compiled());
  }
  CountVm(VmCounter::k_frames_allocated);
}

void FrameAllocator::ReleaseFrameState(PerCpuCache& cache, FrameId frame, PageMeta& meta) {
  ODF_VM_BUG_ON((meta.flags & kPageFlagAllocated) == 0) << "double free";
  // At free time the counters must be spent: refcount 0 (DecRef path) or exactly 1
  // (FreeBatch's sole-owner contract); table shares 0 (dropped) or 1 (the allocation
  // reference, for tables torn down recursively).
  ODF_VM_BUG_ON(meta.refcount.load(std::memory_order_relaxed) > 1)
      << "freeing a frame that still has owners";
  ODF_VM_BUG_ON(meta.pt_share_count.load(std::memory_order_relaxed) > 1)
      << "freeing a page table that still has sharers";
  ODF_DCHECK((meta.flags & kPageFlagAllocated) != 0) << "double free";
  ODF_DCHECK(!meta.IsCompound()) << "compound frame on the order-0 free path";
  ODF_VM_BUG_ON(meta.lru_state.load(std::memory_order_relaxed) != 0)
      << "freeing a frame that is still on the LRU";
  meta.ClearAnonStamp();
  if (meta.materialized.load(std::memory_order_relaxed) != 0) {
    ScrubFreedBytes(frame, kPageSize);
    meta.materialized.store(0, std::memory_order_relaxed);
    AddDelta(cache.materialized_bytes, -static_cast<int64_t>(kPageSize));
  }
  if ((meta.flags & kPageFlagPageTable) != 0) {
    AddDelta(cache.page_table_frames, -1);
  }
  meta.flags = 0;
  meta.compound_head = kInvalidFrame;
  // Free frames are inert: zero both counters so poison-check-on-alloc (and the debug-vm
  // full sweep) can detect any mutation of a freed frame's metadata.
  meta.refcount.store(0, std::memory_order_relaxed);
  meta.pt_share_count.store(0, std::memory_order_relaxed);
#if ODF_DEBUG_VM_COMPILED
  meta.reserved = debug::kPoisonFreed;
#endif
  CountAllocated(cache, -1);
  CountVm(VmCounter::k_frames_freed);
}

FrameId FrameAllocator::AllocateFromCache(uint8_t flags) {
  if (!CacheEligible()) {
    return kInvalidFrame;  // Frame limit armed: the exact, locked quota path takes over.
  }
  PerCpuCache& cache = CacheForThread(this, id_);
  if ((flags & kPageFlagPageTable) != 0) {
    FrameId table = AllocateZeroedTable(cache, flags);
    if (table != kInvalidFrame) {
      return table;
    }
  }
  for (;;) {
    if (cache.count == 0) {
      CountVm(VmCounter::k_pcp_miss);
      ODF_TRACE(pcp_miss, 0);
      {
        debug::MutexGuard guard(mutex_, g_pool_lock_class);
        for (size_t i = 0; i < PerCpuCache::kBatch; ++i) {
          cache.slots[cache.count++] = PopFreeLocked();
        }
      }
      CountVm(VmCounter::k_pcp_refill, PerCpuCache::kBatch);
      ODF_TRACE(pcp_refill, 0, static_cast<uint64_t>(PerCpuCache::kBatch));
    } else {
      CountVm(VmCounter::k_pcp_hit);
      ODF_TRACE(pcp_hit, 0);
    }
    FrameId frame = cache.slots[--cache.count];
    if (MetaRef(frame).IsHwPoisoned()) {
      // The frame was poisoned while parked in this thread's cache (the one place the
      // exclusive-MmGate offline cannot reach). Divert to quarantine and try the next.
      debug::MutexGuard guard(mutex_, g_pool_lock_class);
      QuarantineLocked(frame);
      continue;
    }
    InitAllocatedFrame(cache, frame, flags);
    return frame;
  }
}

void FrameAllocator::FreeToCache(PerCpuCache& cache, FrameId frame) {
  ReleaseFrameState(cache, frame, MetaRef(frame));
  if (cache.count == PerCpuCache::kCapacity) {
    // Spill the coldest half (the bottom of the stack, freed longest ago) back to the
    // shared pool in one lock hold, and move the hot half down: the next allocations still
    // land on the frames this thread freed last.
    CountVm(VmCounter::k_pcp_drain, PerCpuCache::kBatch);
    ODF_TRACE(pcp_drain, 0, static_cast<uint64_t>(PerCpuCache::kBatch));
    {
      debug::MutexGuard guard(mutex_, g_pool_lock_class);
      free_list_.insert(free_list_.end(), cache.slots.begin(),
                        cache.slots.begin() + PerCpuCache::kBatch);
    }
    std::copy(cache.slots.begin() + PerCpuCache::kBatch, cache.slots.end(), cache.slots.begin());
    cache.count = PerCpuCache::kBatch;
  }
  cache.slots[cache.count++] = frame;
}

FrameId FrameAllocator::AllocateZeroedTable(PerCpuCache& cache, uint8_t flags) {
  while (cache.zeroed_count > 0) {
    FrameId frame = cache.zeroed_tables[--cache.zeroed_count];
    if (MetaRef(frame).IsHwPoisoned()) {
      // Poisoned while parked, like a frame in the order-0 cache: quarantine, try the next.
      debug::MutexGuard guard(mutex_, g_pool_lock_class);
      QuarantineLocked(frame);
      continue;
    }
    InitAllocatedFrame(cache, frame, flags, /*known_zero=*/true);
    return frame;
  }
  return kInvalidFrame;
}

bool FrameAllocator::ParkZeroedTable(PerCpuCache& cache, FrameId frame, PageMeta& meta) {
  // Every table teardown clears the entries it drops (DropPteTableReference,
  // DropPmdTableReference, FreeTableRecursive), and spare or lost-race tables were never
  // filled, so a freed table is all zero. A full list leaves the frame to the order-0
  // path, where the thread's next data allocation (a COW copy) finds it warm; release
  // builds skip the scan then, debug-vm checks every table free.
  const bool full = cache.zeroed_count == PerCpuCache::kCapacity;
  if (full && !debug::Compiled()) {
    return false;
  }
  // The scan reads bytes the teardown just wrote.
  const bool zero = PageIsZero(FrameBytes(frame));
  ODF_VM_BUG_ON_PAGE(!zero, meta, frame) << "page table freed with a non-zero entry";
  if (full || !zero) {
    return false;
  }
  ReleaseFrameState(cache, frame, meta);
  cache.zeroed_tables[cache.zeroed_count++] = frame;
  return true;
}

void FrameAllocator::MarkHwPoison(FrameId frame) {
  debug::MutexGuard guard(mutex_, g_pool_lock_class);
  PageMeta& meta = MetaRef(frame);
  if (meta.IsHwPoisoned()) {
    return;  // Already retired or retiring; poison is idempotent.
  }
  meta.flags = static_cast<uint8_t>(meta.flags | kPageFlagHwPoison);
  stats_.hwpoisoned_frames.fetch_add(1, std::memory_order_relaxed);
  if ((meta.flags & kPageFlagAllocated) != 0) {
    // Allocated frame: quarantine happens when the last reference drops (FreeOneLocked).
    return;
  }
  // The frame is free. If it sits inside a 512-aligned run on the compound free list,
  // break the run now — AllocateCompoundGranted recycles runs whole and must never build
  // a huge page around a dead subframe. Frames on the order-0 free list (or parked in a
  // per-thread cache or zeroed-table list) are diverted lazily at their next pop instead;
  // both are cheap because poison events are rare.
  constexpr FrameId kCompoundFrames = 1u << kHugePageOrder;
  FrameId run = frame & ~static_cast<FrameId>(kCompoundFrames - 1);
  for (size_t i = 0; i < compound_free_list_.size(); ++i) {
    if (compound_free_list_[i] != run) {
      continue;
    }
    compound_free_list_[i] = compound_free_list_.back();
    compound_free_list_.pop_back();
    for (FrameId j = 0; j < kCompoundFrames; ++j) {
      if (run + j == frame) {
        QuarantineLocked(frame);
      } else {
        free_list_.push_back(run + j);
      }
    }
    return;
  }
}

bool FrameAllocator::IsHwPoisoned(FrameId frame) const {
  return MetaRef(frame).IsHwPoisoned();
}

void FrameAllocator::DrainCacheToPool(phys_internal::PerCpuCache& cache) {
  FoldCacheStats(cache);
  if (cache.count == 0 && cache.zeroed_count == 0) {
    return;
  }
  CountVm(VmCounter::k_pcp_drain, cache.count);
  debug::MutexGuard guard(mutex_, g_pool_lock_class);
  while (cache.count > 0) {
    free_list_.push_back(cache.slots[--cache.count]);
  }
  // Parked tables join the order-0 free list; their next table owner zero-fills them.
  while (cache.zeroed_count > 0) {
    free_list_.push_back(cache.zeroed_tables[--cache.zeroed_count]);
  }
}

FrameId FrameAllocator::Allocate(uint8_t flags) {
  FrameId frame = AllocateFromCache(flags);
  if (frame != kInvalidFrame) {
    return frame;
  }
  WaitForQuota(1);
  return AllocateGranted(flags);
}

FrameId FrameAllocator::TryAllocate(uint8_t flags) {
  FiSite site =
      (flags & kPageFlagPageTable) != 0 ? FiSite::k_page_table_alloc : FiSite::k_frame_alloc;
  // Injection is consulted before the cache: a scheduled failure fails the logical
  // allocation even when a cached frame could have served it (seed-replayable schedules).
  if (fi::ShouldInject(site)) {
    return kInvalidFrame;
  }
  FrameId frame = AllocateFromCache(flags);
  if (frame != kInvalidFrame) {
    return frame;
  }
  if (!TryWaitForQuota(1)) {
    return kInvalidFrame;
  }
  return AllocateGranted(flags);
}

FrameId FrameAllocator::AllocateGranted(uint8_t flags) {
  PerCpuCache& cache = CacheForThread(this, id_);
  if ((flags & kPageFlagPageTable) != 0) {
    // The quota is granted; InitAllocatedFrame charges it exactly as for a pool frame.
    FrameId table = AllocateZeroedTable(cache, flags);
    if (table != kInvalidFrame) {
      return table;
    }
  }
  FrameId frame;
  {
    debug::MutexGuard guard(mutex_, g_pool_lock_class);
    frame = PopFreeLocked();
  }
  InitAllocatedFrame(cache, frame, flags);
  return frame;
}

void FrameAllocator::AllocateBatch(uint8_t flags, std::span<FrameId> out) {
  if (out.empty()) {
    return;
  }
  if (frame_limit_.load(std::memory_order_relaxed) != 0) {
    // Under a frame limit, allocate one by one so reclaim can free earlier frames of this
    // very batch (an all-at-once quota demand could spuriously OOM).
    for (FrameId& slot : out) {
      slot = Allocate(flags);
    }
    return;
  }
  PerCpuCache& cache = CacheForThread(this, id_);
  {
    debug::MutexGuard guard(mutex_, g_pool_lock_class);
    for (FrameId& slot : out) {
      slot = PopFreeLocked();
    }
  }
  for (FrameId frame : out) {
    InitAllocatedFrame(cache, frame, flags);
  }
}

FrameId FrameAllocator::AllocateCompound(uint8_t flags) {
  WaitForQuota(1u << kHugePageOrder);
  return AllocateCompoundGranted(flags);
}

FrameId FrameAllocator::TryAllocateCompound(uint8_t flags) {
  if (fi::ShouldInject(FiSite::k_compound_alloc)) {
    return kInvalidFrame;
  }
  if (!TryWaitForQuota(1u << kHugePageOrder)) {
    return kInvalidFrame;
  }
  return AllocateCompoundGranted(flags);
}

FrameId FrameAllocator::AllocateCompoundGranted(uint8_t flags) {
  constexpr FrameId kCompoundFrames = 1u << kHugePageOrder;
  PerCpuCache& cache = CacheForThread(this, id_);
  debug::MutexGuard guard(mutex_, g_pool_lock_class);
  FrameId head;
  if (!compound_free_list_.empty()) {
    head = compound_free_list_.back();
    compound_free_list_.pop_back();
  } else {
    // Grow by one chunk dedicated to compounds (like a hugetlb pool): all of its 512-aligned
    // runs go onto the compound free list, amortising the chunk-add cost over 128 compound
    // allocations instead of paying it per fault.
    FrameId base = AddChunkLocked();
    for (FrameId run = static_cast<FrameId>(kChunkSize); run > kCompoundFrames;
         run -= kCompoundFrames) {
      compound_free_list_.push_back(base + run - kCompoundFrames);
    }
    head = base;
    ODF_CHECK((head & (kCompoundFrames - 1)) == 0) << "compound carve misaligned";
  }
  PageMeta& head_meta = MetaRef(head);
  ODF_VM_BUG_ON_PAGE((head_meta.flags & kPageFlagAllocated) != 0, head_meta, head)
      << "double allocation of compound head";
  ODF_VM_BUG_ON_PAGE(head_meta.refcount.load(std::memory_order_relaxed) != 0, head_meta, head)
      << "compound head gained references while on the free list";
#if ODF_DEBUG_VM_COMPILED
  debug::internal::g_poison_checks.fetch_add(1, std::memory_order_relaxed);
  ODF_VM_BUG_ON_PAGE(
      head_meta.reserved != 0 && head_meta.reserved != debug::kPoisonFreed, head_meta, head)
      << "free-frame canary clobbered";
  head_meta.reserved = debug::kPoisonAllocated;
#endif
  head_meta.flags = static_cast<uint8_t>(flags | kPageFlagAllocated | kPageFlagCompoundHead);
  head_meta.order = static_cast<uint8_t>(kHugePageOrder);
  head_meta.compound_head = head;
  head_meta.refcount.store(1, std::memory_order_release);  // As in InitAllocatedFrame.
  head_meta.pt_share_count.store(0, std::memory_order_relaxed);
  for (FrameId i = 1; i < kCompoundFrames; ++i) {
    PageMeta& tail = MetaRef(head + i);
    ODF_VM_BUG_ON_PAGE(tail.refcount.load(std::memory_order_relaxed) != 0, tail, head + i)
        << "compound tail gained references while on the free list";
    tail.flags = static_cast<uint8_t>(flags | kPageFlagAllocated | kPageFlagCompoundTail);
    tail.order = 0;
    tail.compound_head = head;
    tail.refcount.store(0, std::memory_order_relaxed);
#if ODF_DEBUG_VM_COMPILED
    tail.reserved = debug::kPoisonAllocated;
#endif
  }
  CountAllocated(cache, kCompoundFrames);
  CountVm(VmCounter::k_frames_allocated, kCompoundFrames);
  return head;
}

void FrameAllocator::IncRef(FrameId frame) {
  PageMeta& meta = GetMeta(frame);
  ODF_VM_BUG_ON_PAGE((meta.flags & kPageFlagAllocated) == 0, meta, frame)
      << "IncRef on freed frame";
  ODF_VM_BUG_ON_PAGE(meta.IsCompoundTail(), meta, frame) << "IncRef on compound tail";
  uint32_t previous = meta.refcount.fetch_add(1, std::memory_order_relaxed);
  ODF_VM_BUG_ON_PAGE(previous >= debug::kRefcountSaturated, meta, frame)
      << "refcount saturation";
  (void)previous;
}

void FrameAllocator::AddRefs(FrameId frame, uint32_t count) {
  PageMeta& meta = GetMeta(frame);
  ODF_VM_BUG_ON_PAGE((meta.flags & kPageFlagAllocated) == 0, meta, frame)
      << "AddRefs on freed frame";
  ODF_VM_BUG_ON_PAGE(meta.IsCompoundTail(), meta, frame) << "AddRefs on compound tail";
  uint32_t previous = meta.refcount.fetch_add(count, std::memory_order_relaxed);
  ODF_VM_BUG_ON_PAGE(previous + count >= debug::kRefcountSaturated, meta, frame)
      << "refcount saturation";
  (void)previous;
}

void FrameAllocator::IncPtShare(FrameId table) {
  PageMeta& meta = GetMeta(table);
  ODF_VM_BUG_ON_PAGE(!meta.IsPageTable(), meta, table)
      << "pt_share increment on non-table frame";
  ODF_VM_BUG_ON_PAGE((meta.flags & kPageFlagAllocated) == 0, meta, table)
      << "pt_share increment on freed table";
  meta.pt_share_count.fetch_add(1, std::memory_order_relaxed);
}

uint32_t FrameAllocator::DecPtShare(FrameId table) {
  PageMeta& meta = GetMeta(table);
  ODF_VM_BUG_ON_PAGE(!meta.IsPageTable(), meta, table)
      << "pt_share decrement on non-table frame";
  // acq_rel for the same reason as DecRef: the thread that drops the last share takes
  // exclusive ownership of the table and must observe every other sharer's writes.
  uint32_t previous = meta.pt_share_count.fetch_sub(1, std::memory_order_acq_rel);
  ODF_VM_BUG_ON_PAGE(previous == 0, meta, table) << "pt_share underflow";
  return previous;
}

void FrameAllocator::IncRefBatch(std::span<const FrameId> frames) {
  for (FrameId frame : frames) {
    PageMeta& meta = MetaRef(frame);
    ODF_VM_BUG_ON_PAGE((meta.flags & kPageFlagAllocated) == 0, meta, frame)
        << "IncRef on freed frame";
    ODF_DCHECK(!meta.IsCompoundTail()) << "IncRef on compound tail " << frame;
    uint32_t previous = meta.refcount.fetch_add(1, std::memory_order_relaxed);
    ODF_VM_BUG_ON_PAGE(previous >= debug::kRefcountSaturated, meta, frame)
        << "refcount saturation";
    (void)previous;
  }
}

void FrameAllocator::IncPtShareBatch(std::span<const FrameId> tables) {
  for (FrameId table : tables) {
    PageMeta& meta = MetaRef(table);
    ODF_VM_BUG_ON_PAGE((meta.flags & kPageFlagAllocated) == 0, meta, table)
        << "pt_share increment on freed table";
    ODF_DCHECK(meta.IsPageTable()) << "pt_share increment on non-table frame " << table;
    meta.pt_share_count.fetch_add(1, std::memory_order_relaxed);
  }
}

void FrameAllocator::FreeLastRef(FrameId frame, PageMeta& meta) {
  // Last reference: DecRef's acq_rel RMW ordered every other owner's accesses before this
  // point, so the frame is exclusively ours to tear down — lock-free when cacheable.
  if (meta.lru_state.load(std::memory_order_relaxed) != 0) {
    DetachFromLru(std::span<const FrameId>(&frame, 1));
  }
  // Poisoned frames always take the locked path: they retire to quarantine, never a cache.
  PerCpuCache& cache = CacheForThread(this, id_);
  if (meta.IsPageTable() && !meta.IsHwPoisoned() && ParkZeroedTable(cache, frame, meta)) {
    return;
  }
  if (!meta.IsCompoundHead() && !meta.IsHwPoisoned() && CacheEligible()) {
    FreeToCache(cache, frame);
    return;
  }
  debug::MutexGuard guard(mutex_, g_pool_lock_class);
  FreeOneLocked(cache, frame);
}

void FrameAllocator::DecRefBatch(std::span<const FrameId> frames) {
  // Drop every reference first, collecting the frames that hit zero, then free those under
  // a single shared-pool lock acquisition (one lock round-trip per 512-entry table instead
  // of one per entry). A compound tail is resolved to its head in the same metadata visit
  // as the drop, so callers pass the frames their entries name.
  std::array<FrameId, 512> dead;
  size_t dead_count = 0;
  for (FrameId frame : frames) {
    PageMeta* meta = &MetaRef(frame);
    if (meta->IsCompoundTail()) {  // A split huge mapping's subpage: the head holds the ref.
      frame = meta->compound_head;
      meta = &MetaRef(frame);
    }
    ODF_VM_BUG_ON_PAGE((meta->flags & kPageFlagAllocated) == 0, *meta, frame)
        << "DecRef on freed frame";
    uint32_t previous = meta->refcount.fetch_sub(1, std::memory_order_acq_rel);
    ODF_VM_BUG_ON_PAGE(previous == 0, *meta, frame) << "refcount underflow";
    ODF_DCHECK(previous != 0) << "refcount underflow on frame " << frame;
    if (previous == 1) {
      dead[dead_count++] = frame;
      if (dead_count == dead.size()) {
        FreeBatch(std::span<const FrameId>(dead.data(), dead_count));
        dead_count = 0;
      }
    }
  }
  if (dead_count > 0) {
    FreeBatch(std::span<const FrameId>(dead.data(), dead_count));
  }
}

void FrameAllocator::FreeBatch(std::span<const FrameId> frames) {
  if (frames.empty()) {
    return;
  }
  CountVm(VmCounter::k_batch_free, frames.size());
  ODF_TRACE(batch_free, 0, static_cast<uint64_t>(frames.size()));
  DetachFromLru(frames);
  PerCpuCache& cache = CacheForThread(this, id_);
  debug::MutexGuard guard(mutex_, g_pool_lock_class);
  for (FrameId frame : frames) {
    FreeOneLocked(cache, frame);
  }
}

void FrameAllocator::SetLruReleaseHook(LruReleaseHook hook) {
  lru_release_hook_ = std::move(hook);
}

void FrameAllocator::DetachFromLru(std::span<const FrameId> frames) {
  if (!lru_release_hook_) {
    return;
  }
  // The hook runs once per batch of LRU-resident frames: one LRU lock hold per freed
  // 512-entry table on the exit path, not one per page.
  std::array<FrameId, 512> listed;
  size_t count = 0;
  for (FrameId frame : frames) {
    if (MetaRef(frame).lru_state.load(std::memory_order_relaxed) == 0) {
      continue;
    }
    listed[count++] = frame;
    if (count == listed.size()) {
      lru_release_hook_(std::span<const FrameId>(listed.data(), count));
      count = 0;
    }
  }
  if (count > 0) {
    lru_release_hook_(std::span<const FrameId>(listed.data(), count));
  }
}

void FrameAllocator::FreeOneLocked(PerCpuCache& cache, FrameId frame) {
  PageMeta& meta = MetaRef(frame);
  ODF_VM_BUG_ON_PAGE((meta.flags & kPageFlagAllocated) == 0, meta, frame) << "double free";
  ODF_DCHECK((meta.flags & kPageFlagAllocated) != 0) << "double free of frame " << frame;
  if (meta.IsCompoundHead()) {
    constexpr FrameId kCompoundFrames = 1u << kHugePageOrder;
    ODF_VM_BUG_ON_PAGE(meta.refcount.load(std::memory_order_relaxed) > 1, meta, frame)
        << "freeing a compound that still has owners";
    bool any_poisoned = false;
    for (FrameId i = 0; i < kCompoundFrames; ++i) {
      if (MetaRef(frame + i).IsHwPoisoned()) {
        any_poisoned = true;
        break;
      }
    }
    if (any_poisoned) {
      // A subpage of this compound died to a memory error. The compound cannot be recycled
      // whole: quarantine the dead subframes (each keeps its corrupted 4 KiB in place, so
      // dumps stay inspectable) and salvage the clean ones onto the order-0 free list. The
      // 512-aligned run is forfeited — exactly like the kernel refusing to rebuild a huge
      // page around a PageHWPoison tail.
      const bool materialized = meta.materialized.load(std::memory_order_relaxed) != 0;
      int64_t kept_bytes = 0;
      for (FrameId i = 0; i < kCompoundFrames; ++i) {
        PageMeta& sub = MetaRef(frame + i);
        if (i != 0) {
          ODF_VM_BUG_ON_PAGE(sub.refcount.load(std::memory_order_relaxed) != 0, sub,
                             frame + i)
              << "compound tail gained its own references";
        }
        const bool quarantine = sub.IsHwPoisoned();
        const bool keep_bytes = quarantine && materialized;
        if (materialized && !quarantine) {
          ScrubFreedBytes(frame + i, kPageSize);
        }
        sub.flags = quarantine ? kPageFlagHwPoison : 0;
        sub.order = 0;
        sub.ClearAnonStamp();
        sub.compound_head = kInvalidFrame;
        sub.refcount.store(0, std::memory_order_relaxed);
        sub.pt_share_count.store(0, std::memory_order_relaxed);
        sub.materialized.store(keep_bytes ? 1 : 0, std::memory_order_relaxed);
#if ODF_DEBUG_VM_COMPILED
        sub.reserved = debug::kPoisonFreed;
#endif
        if (keep_bytes) {
          kept_bytes += static_cast<int64_t>(kPageSize);
        }
        if (quarantine) {
          QuarantineLocked(frame + i);
        } else {
          free_list_.push_back(frame + i);
        }
      }
      if (materialized) {
        AddDelta(cache.materialized_bytes, kept_bytes - static_cast<int64_t>(kHugePageSize));
      }
      CountAllocated(cache, -static_cast<int64_t>(kCompoundFrames));
      CountVm(VmCounter::k_frames_freed, kCompoundFrames);
      return;
    }
    if (meta.materialized.load(std::memory_order_relaxed) != 0) {
      ScrubFreedBytes(frame, kHugePageSize);
      meta.materialized.store(0, std::memory_order_relaxed);
      AddDelta(cache.materialized_bytes, -static_cast<int64_t>(kHugePageSize));
    }
    for (FrameId i = 1; i < kCompoundFrames; ++i) {
      PageMeta& tail = MetaRef(frame + i);
      ODF_VM_BUG_ON_PAGE(tail.refcount.load(std::memory_order_relaxed) != 0, tail, frame + i)
          << "compound tail gained its own references";
      tail.flags = 0;
      tail.compound_head = kInvalidFrame;
#if ODF_DEBUG_VM_COMPILED
      tail.reserved = debug::kPoisonFreed;
#endif
    }
    meta.flags = 0;
    meta.order = 0;
    meta.ClearAnonStamp();
    meta.refcount.store(0, std::memory_order_relaxed);
    meta.pt_share_count.store(0, std::memory_order_relaxed);
#if ODF_DEBUG_VM_COMPILED
    meta.reserved = debug::kPoisonFreed;
#endif
    CountAllocated(cache, -static_cast<int64_t>(kCompoundFrames));
    compound_free_list_.push_back(frame);
    CountVm(VmCounter::k_frames_freed, kCompoundFrames);
    return;
  }
  if (meta.IsHwPoisoned()) {
    // Final free of a poisoned order-0 frame: retire to quarantine. Unlike
    // ReleaseFrameState this keeps the bytes materialised exactly as the error left them — the
    // poison-on-free 0xaa memset would destroy the one artifact worth inspecting in an
    // ODF_VM_BUG_ON_PAGE dump or a black-box replay log (docs/memory-failure.md).
    ODF_VM_BUG_ON_PAGE(meta.refcount.load(std::memory_order_relaxed) > 1, meta, frame)
        << "quarantining a frame that still has owners";
    if ((meta.flags & kPageFlagPageTable) != 0) {
      AddDelta(cache.page_table_frames, -1);
    }
    ODF_VM_BUG_ON_PAGE(meta.lru_state.load(std::memory_order_relaxed) != 0, meta, frame)
        << "quarantining a frame that is still on the LRU";
    meta.flags = kPageFlagHwPoison;
    meta.compound_head = kInvalidFrame;
    meta.ClearAnonStamp();
    meta.refcount.store(0, std::memory_order_relaxed);
    meta.pt_share_count.store(0, std::memory_order_relaxed);
#if ODF_DEBUG_VM_COMPILED
    meta.reserved = debug::kPoisonFreed;
#endif
    CountAllocated(cache, -1);
    CountVm(VmCounter::k_frames_freed);
    QuarantineLocked(frame);
    return;
  }
  ReleaseFrameState(cache, frame, meta);
  free_list_.push_back(frame);
}

std::byte* FrameAllocator::MaterializeData(FrameId frame) {
  PageMeta& meta = GetMeta(frame);
  if (meta.IsCompoundTail()) {
    FrameId head = meta.compound_head;
    // A tail materialisation touches only part of the 2 MiB; the rest must be zero.
    return MaterializeData(head) + (static_cast<uint64_t>(frame - head) << kPageShift);
  }
  if (meta.materialized.load(std::memory_order_acquire) == 0) {
    PerCpuCache& cache = CacheForThread(this, id_);  // Before the stripe: it may lock.
    debug::MutexGuard guard(MaterializeStripe(frame), g_materialize_lock_class);
    if (meta.materialized.load(std::memory_order_acquire) == 0) {
      PublishMaterialized(cache, frame, meta, meta.IsCompoundHead() ? kHugePageSize : kPageSize,
                          /*zero=*/true);
    }
  }
  return FrameBytes(frame);
}

std::byte* FrameAllocator::MaterializeForOverwrite(FrameId frame) {
  PageMeta& meta = GetMeta(frame);
  ODF_VM_BUG_ON_PAGE(meta.IsCompoundTail() || meta.refcount.load(std::memory_order_relaxed) != 1 ||
                         meta.materialized.load(std::memory_order_relaxed) != 0,
                     meta, frame)
      << "materialising for overwrite a frame the caller does not own fresh";
  return PublishMaterialized(CacheForThread(this, id_), frame, meta,
                             meta.IsCompoundHead() ? kHugePageSize : kPageSize, /*zero=*/false);
}

uint64_t* FrameAllocator::TableEntries(FrameId frame) {
  ODF_DCHECK(MetaRef(frame).IsPageTable()) << "frame " << frame << " is not a page table";
  return reinterpret_cast<uint64_t*>(FrameBytes(frame));
}

FrameAllocatorStats FrameAllocator::Stats() const {
  FrameAllocatorStats snapshot;
  snapshot.total_frames = stats_.total_frames.load(std::memory_order_relaxed);
  snapshot.hwpoisoned_frames = stats_.hwpoisoned_frames.load(std::memory_order_relaxed);
  snapshot.quarantined_frames = stats_.quarantined_frames.load(std::memory_order_relaxed);
  // The shared totals are read under the registry lock too: an exiting thread folds its
  // deltas into them and unregisters under that lock, so no delta is missed or counted
  // twice.
  phys_internal::WithCaches(this, [&](std::span<PerCpuCache* const> caches) {
    int64_t allocated = stats_.allocated_frames.load(std::memory_order_relaxed);
    int64_t materialized = stats_.materialized_bytes.load(std::memory_order_relaxed);
    int64_t page_tables = stats_.page_table_frames.load(std::memory_order_relaxed);
    for (const PerCpuCache* cache : caches) {
      allocated += cache->allocated_frames.load(std::memory_order_relaxed);
      materialized += cache->materialized_bytes.load(std::memory_order_relaxed);
      page_tables += cache->page_table_frames.load(std::memory_order_relaxed);
    }
    // A snapshot taken while other threads run may catch a free before its allocation.
    snapshot.allocated_frames = static_cast<uint64_t>(std::max<int64_t>(allocated, 0));
    snapshot.materialized_bytes = static_cast<uint64_t>(std::max<int64_t>(materialized, 0));
    snapshot.page_table_frames = static_cast<uint64_t>(std::max<int64_t>(page_tables, 0));
  });
  return snapshot;
}

bool FrameAllocator::AllFree() const { return Stats().allocated_frames == 0; }

uint64_t FrameAllocator::CachedFrames() const {
  uint64_t total = 0;
  phys_internal::WithCaches(this, [&](std::span<PerCpuCache* const> caches) {
    for (const PerCpuCache* cache : caches) {
      total += cache->count + cache->zeroed_count;
    }
  });
  return total;
}

}  // namespace odf
