// Physical frame allocator for the simulated machine.
//
// Frames are identified by dense FrameId indices into a chunked metadata array (the analog of
// the kernel's memmap/`struct page` array). Frame *data* lives at a fixed address, like
// physical memory: each 64 Ki-frame chunk reserves its 256 MiB of bytes with one
// MAP_NORESERVE mmap, and frame f's 4 KiB sit at chunk_base[f >> 16] + (f & 0xffff) * 4 KiB
// (a compound's 2 MiB is contiguous by construction). No frame allocation, COW copy or free
// calls the heap. Chunk storage (metadata and data) belongs to the process, not the
// allocator: a destroyed allocator's chunks are reused by the next one. The host backs
// memory only once a frame in it is materialised (written or explicitly zeroed), so a 50 GB
// simulated mapping costs only metadata — the substitution that lets paper-scale sweeps run
// in a small container (see DESIGN.md). Chunk data is 2 MiB-aligned and advised
// MADV_HUGEPAGE, so where the host's THP mode allows, it backs a materialised frame's whole
// 2 MiB run with one huge page (the direct-map analog; a compound is exactly one). A freed
// frame keeps its host memory resident, exactly as memory does.
//
// Concurrency model (docs/performance.md): order-0 allocation and free are served from
// per-thread frame caches (src/phys/per_cpu_cache.h, the pcplist analog) and touch the
// shared-pool mutex only to refill or spill a batch of frames. Refcount/free traffic on the
// fork and teardown paths goes through the batch APIs below so a 512-entry table costs one
// lock round-trip instead of 512. The allocated, materialised and page-table counts are
// per-thread deltas on those caches (the vm_stat_diff analog), so no allocation, free or
// materialisation writes a line other threads share; `Stats()` sums them.
#ifndef ODF_SRC_PHYS_FRAME_ALLOCATOR_H_
#define ODF_SRC_PHYS_FRAME_ALLOCATOR_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "src/debug/debug.h"
#include "src/phys/page_meta.h"
#include "src/util/log.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace odf {

namespace phys_internal {
struct PerCpuCache;
}  // namespace phys_internal

// Aggregate allocator statistics: a coherent-enough snapshot assembled from the shared totals
// and every thread's deltas, readable at any time without taking the allocator lock. Exact
// whenever the allocating threads are quiescent.
struct FrameAllocatorStats {
  uint64_t total_frames = 0;      // Frames ever created (high-water mark).
  uint64_t allocated_frames = 0;  // Currently allocated (counting each tail of a compound).
  uint64_t materialized_bytes = 0;  // Bytes of frames whose content is materialised.
  uint64_t page_table_frames = 0;
  uint64_t hwpoisoned_frames = 0;   // Frames carrying kPageFlagHwPoison (mapped or retired).
  uint64_t quarantined_frames = 0;  // Poisoned frames parked on the quarantine list.
};

class FrameAllocator {
 public:
  FrameAllocator();
  ~FrameAllocator();

  FrameAllocator(const FrameAllocator&) = delete;
  FrameAllocator& operator=(const FrameAllocator&) = delete;

  // Allocates one 4 KiB frame. `flags` should include the owner kind (anon/file/page-table).
  // Page-table frames get their data materialised and zeroed immediately (tables are always
  // real memory; they are what this library is about): a freed table frame parked on the
  // calling thread's zeroed-table list is already zero and is taken without a memset,
  // any other frame is zero-filled. The frame starts with refcount 1.
  //
  // This is the GFP_NOFAIL analog: it never consults fault injection and aborts when the
  // frame limit cannot be satisfied after reclaim. Recoverable paths use TryAllocate.
  //
  // While no frame limit is armed, the fast path is a per-thread cache hit that never takes
  // the shared-pool lock.
  FrameId Allocate(uint8_t flags);

  // Allocates a 2 MiB compound page (512 contiguous frames, head + tails). Returns the head.
  // The head starts with refcount 1; tails are marked and redirect to the head. NOFAIL, like
  // Allocate. Compounds always go through the shared pool (they are 512-frame events; the
  // per-thread caches hold only order-0 frames, exactly like pcplists).
  FrameId AllocateCompound(uint8_t flags);

  // Fallible variants (paper §4 "Robustness"): return kInvalidFrame instead of aborting when
  // the frame limit cannot be satisfied after reclaim, or when fault injection (src/fi,
  // sites frame_alloc / page_table_alloc / compound_alloc) fails the call. Callers must
  // unwind cleanly on kInvalidFrame — see docs/robustness.md for the error contract.
  //
  // Fault injection is consulted before the per-thread cache, so an injected failure fails
  // the logical allocation even when a cached frame could have served it (schedules stay
  // seed-replayable regardless of cache state).
  [[nodiscard]] FrameId TryAllocate(uint8_t flags);
  [[nodiscard]] FrameId TryAllocateCompound(uint8_t flags);

  // Drops one reference; frees the frame when the count hits zero. For compound heads the
  // entire compound is freed. Must not be called on tails (callers resolve the head first).
  // Order-0 frames freed while no limit is armed go to the calling thread's cache. A page
  // table goes to the thread's zeroed-table list, limit or not; its bytes must be all zero
  // by then (every teardown clears the entries it drops; debug-vm checks it with a
  // VM_BUG_ON). The drop is inline (it is the unpin of every simulated access); the free
  // is not.
  void DecRef(FrameId frame);

  // Adds a reference. All refcount mutation goes through these entry points (enforced by
  // scripts/odf_lint.py rule raw-refcount) so the debug-vm underflow/saturation/freed-frame
  // checks see every transition.
  void IncRef(FrameId frame);

  // Speculative pin for the lock-free read path (the get_page_unless_zero analog): CASes
  // the refcount up only while it is observably nonzero, so a frame mid-free is never
  // resurrected. Returns false when the count was zero. Callers resolve compound heads
  // before pinning (tails keep refcount 0 and correctly fail) and MUST validate the pin
  // against the covering shard generation before trusting the frame: a pin can land on a
  // freed-and-reused frame id, which is harmless (the +1/-1 is net zero on whatever the
  // frame is now) exactly because the generation recheck rejects the stale translation.
  // Release via DecRef(frame) outside any PtEpoch read section.
  //
  // Ordering (no fence): the CAS is seq_cst, so it precedes the caller's seq_cst
  // MmLockTable::ShardGen recheck in the single total order. A pin on a reused frame reads
  // a count that descends from the new owner's release store in InitAllocatedFrame, which
  // happens after the old owner's unmap bumped the generation (gen before free), so that
  // recheck sees the bump and fails.
  [[nodiscard]] bool TryGetRef(FrameId frame);

  // Adds `count` references at once (huge-page split: the head absorbs one reference per
  // new PTE). Checked like IncRef.
  void AddRefs(FrameId frame, uint32_t count);

  // Adds/drops one sharer on a PTE/PMD-table frame's pt_share_count (on-demand-fork table
  // sharing, §3.6). DecPtShare returns the PREVIOUS value: 1 means the caller just dropped
  // the last sharer and owns the table exclusively (the dedicate/teardown paths branch on
  // this exactly like atomic_dec_and_test).
  void IncPtShare(FrameId table);
  uint32_t DecPtShare(FrameId table);

  // --- Batched operations: one shared-pool lock round-trip per batch, not per frame ---

  // Fills `out` with freshly allocated order-0 frames. NOFAIL, like Allocate; equivalent to
  // out.size() Allocate(flags) calls but the free list is popped under a single lock hold.
  void AllocateBatch(uint8_t flags, std::span<FrameId> out);

  // Frees frames owned solely by the caller (each must have refcount exactly 1) under a
  // single lock acquisition. The bulk-teardown analog of free_pages_bulk.
  void FreeBatch(std::span<const FrameId> frames);

  // Adds one reference to each frame (callers pass resolved compound heads). Classic fork
  // calls it once per copied PTE table so its refcount pass stays a separately timed Fig. 3
  // phase; the table-COW paths take references inline with IncRef, one metadata visit per
  // entry (docs/performance.md).
  void IncRefBatch(std::span<const FrameId> frames);

  // Drops one reference from each frame; all frames that hit zero are freed together under
  // a single lock acquisition (counted as batch_free in vmstat). Frames may be compound
  // tails (the subpages of a split huge mapping): each resolves to its head in the same
  // metadata visit as the drop, and a head or order-0 frame resolves to itself.
  void DecRefBatch(std::span<const FrameId> frames);

  // Adds one sharer to each PTE/PMD-table frame's pt_share_count (fork_odf table sharing).
  void IncPtShareBatch(std::span<const FrameId> tables);

  PageMeta& GetMeta(FrameId frame);
  const PageMeta& GetMeta(FrameId frame) const;

  // Returns the frame's bytes, materialising (zero-filling) them if the content is still
  // logical zero. For compound tails, returns the tail's 4 KiB inside the head's 2 MiB.
  //
  // The frame may be shared, so materialisation settles races on a striped lock keyed by
  // frame id — concurrent faults on different frames never serialise here, and the
  // shared-pool lock is not involved. The zeroing is real work: a reused frame's bytes
  // still hold its previous owner's content.
  std::byte* MaterializeData(FrameId frame);

  // Materialises a frame the caller owns exclusively and will overwrite in full before
  // publishing it (a COW copy, a swap-in target, a memory-failure replacement): no zeroing
  // and no stripe lock. `frame` is an order-0 frame or a compound head.
  std::byte* MaterializeForOverwrite(FrameId frame);

  // Returns the frame's bytes, or nullptr while its content is still logical zero.
  std::byte* PeekData(FrameId frame);
  const std::byte* PeekData(FrameId frame) const;

  // Entries view for page-table frames (asserts kPageFlagPageTable). Pure address
  // arithmetic: a table frame is materialised from allocation to free.
  uint64_t* TableEntries(FrameId frame);

  FrameAllocatorStats Stats() const;

  // True when every frame ever allocated has been freed — the leak check used by tests.
  // Frames parked in per-thread caches are free (they count toward nothing here).
  bool AllFree() const;

  // Frames currently parked in this allocator's per-thread caches, zeroed-table lists
  // included. Callers must be quiescent (no thread concurrently allocating/freeing);
  // intended for tests and procfs.
  uint64_t CachedFrames() const;

  // --- Simulated physical-memory pressure (paper §4 "Robustness") ---

  // Caps the number of simultaneously allocated frames (the machine's RAM size). 0 (the
  // default) means unlimited. When an allocation would exceed the limit, the reclaim
  // callback runs (outside the allocator lock) until enough frames are free; if it cannot
  // make progress the allocation is a fatal OOM.
  //
  // Arming a limit routes every allocation and free through the locked quota path (the
  // per-thread caches stand down and the allocated count becomes one shared counter again)
  // so the limit is enforced exactly, not approximately. The zeroed-table lists stay in
  // service: a parked table frame counts as free, and taking one still passes fault
  // injection, the quota check and the kswapd wake, and charges the shared count. Folds
  // every thread's statistics deltas into the shared totals; call it while no other thread
  // allocates or frees.
  void SetFrameLimit(uint64_t frames);
  uint64_t frame_limit() const;

  // Must free frames (swap out pages / kill a process) and return how many it freed.
  using ReclaimCallback = std::function<uint64_t(uint64_t want)>;
  void SetReclaimCallback(ReclaimCallback callback);

  // --- Watermarks and background reclaim (src/reclaim, docs/reclaim.md) ---
  //
  // The zone-watermark analog. While a frame limit is armed, allocations compare the free
  // count against LOW on their way through the quota gate: below LOW the pressure callback
  // (kswapd's Wake) fires, and the daemon reclaims until free frames recover to HIGH. MIN
  // is advisory — the depth at which direct reclaim is expected to be doing the work.
  struct Watermarks {
    uint64_t min = 0;
    uint64_t low = 0;
    uint64_t high = 0;
  };

  // Overrides the derived defaults (SetFrameLimit sets min = frames/64 + 4, low = 2*min,
  // high = 3*min, mirroring the kernel's min_free_kbytes scaling).
  void SetWatermarks(Watermarks wm);
  Watermarks watermarks() const;

  // Frames still allocatable under the current limit (limit - allocated, saturating at 0);
  // UINT64_MAX while unlimited.
  uint64_t FreeFrames() const;

  // Cheap, non-blocking notification hook invoked (outside the allocator lock) when an
  // allocation observes free < low. Distinct from the reclaim callback: this one only
  // nudges a daemon, it must not reclaim inline or take heavy locks.
  using PressureCallback = std::function<void()>;
  void SetPressureCallback(PressureCallback callback);

  // --- Memory failure (src/mf, docs/memory-failure.md) ---

  // Marks `frame` as having suffered an uncorrectable memory error (the PageHWPoison
  // analog). Permanent: the flag is never cleared. A poisoned frame that is currently free
  // is diverted to the quarantine list (eagerly when reachable, else at its next pop); an
  // allocated one is quarantined when its last reference drops instead of re-entering the
  // free list or a per-thread cache. The sole mutator of kPageFlagHwPoison (lint rule
  // hwpoison-flag); only src/mf calls this, under the exclusive MmGate.
  void MarkHwPoison(FrameId frame);

  // True when the frame carries kPageFlagHwPoison. Callers needing a stable answer must
  // hold the exclusive MmGate (the flag is only ever set under it).
  bool IsHwPoisoned(FrameId frame) const;

  // --- LRU release (src/reclaim/lru.h, docs/reclaim.md "LRU") ---

  // A frame leaves the LRU when it is freed. The hook receives, in batches, every frame
  // whose PageMeta::lru_state is set, after its last reference dropped and before the
  // frame returns to a free list — outside the pool lock, so the hook may take the LRU
  // lock. Install it before any frame is admitted to an LRU; replace it only while
  // quiescent (it is read without a lock on every free).
  using LruReleaseHook = std::function<void(std::span<const FrameId>)>;
  void SetLruReleaseHook(LruReleaseHook hook);

  // Internal: returns `cache`'s frames, parked tables included, to the shared free list and
  // folds its statistics deltas into the shared totals. Called (under the cache registry
  // lock) when a thread exits; see src/phys/per_cpu_cache.h.
  void DrainCacheToPool(phys_internal::PerCpuCache& cache);

 private:
  static constexpr size_t kChunkShift = 16;  // 65536 frames (256 MiB simulated) per chunk.
  static constexpr size_t kChunkSize = 1ULL << kChunkShift;
  // Fixed spine of chunk pointers so GetMeta never races chunk growth: slots are published
  // with a release store and read with an acquire load (the sparse-memmap-section analog).
  // 4096 chunks x 64 Ki frames x 4 KiB = 1 TiB of simulated memory, far above any sweep.
  static constexpr size_t kMaxChunks = 4096;
  static constexpr size_t kChunkDataBytes = kChunkSize << kPageShift;  // 256 MiB.

  struct AtomicStats {
    std::atomic<uint64_t> total_frames{0};
    // Shared totals of the three per-thread counters: deltas folded in at thread exit and
    // SetFrameLimit, plus allocated_frames updates made while a frame limit is armed.
    // Signed, because a thread that freed more frames than it allocated folds a negative
    // delta.
    std::atomic<int64_t> allocated_frames{0};
    std::atomic<int64_t> materialized_bytes{0};
    std::atomic<int64_t> page_table_frames{0};
    std::atomic<uint64_t> hwpoisoned_frames{0};
    std::atomic<uint64_t> quarantined_frames{0};
  };

  // Grows the allocator by one chunk (metadata array and frame data, reused from the
  // process-wide pool when it has any) and returns the chunk's first frame id. The caller
  // hands the new frames to a free list.
  FrameId AddChunkLocked() ODF_REQUIRES(mutex_);
  FrameId PopFreeLocked() ODF_REQUIRES(mutex_);
  // The locked free paths take the calling thread's cache as an argument: looking it up can
  // take the registry lock, which must never nest inside mutex_.
  void FreeOneLocked(phys_internal::PerCpuCache& cache, FrameId frame) ODF_REQUIRES(mutex_);
  // Parks a free poisoned frame on the quarantine list (terminal; never popped again).
  void QuarantineLocked(FrameId frame) ODF_REQUIRES(mutex_);

  // Cache fast paths. AllocateFromCache returns kInvalidFrame when the cache must stand
  // down (frame limit armed); FreeToCache requires an order-0 non-compound frame whose
  // refcount already reached zero.
  FrameId AllocateFromCache(uint8_t flags);
  void FreeToCache(phys_internal::PerCpuCache& cache, FrameId frame);

  // Zeroed-table list paths. AllocateZeroedTable takes a table frame parked on the calling
  // thread's list and initialises it without a memset; kInvalidFrame when the list is
  // empty. The caller has passed fault injection and, under a frame limit, the quota.
  // ParkZeroedTable frees a table frame whose last reference dropped onto the thread's
  // list; false when the list is full or (release builds only) the bytes are not all zero,
  // and the caller frees it the ordinary way.
  FrameId AllocateZeroedTable(phys_internal::PerCpuCache& cache, uint8_t flags);
  bool ParkZeroedTable(phys_internal::PerCpuCache& cache, FrameId frame, PageMeta& meta);
  bool CacheEligible() const {
    return frame_limit_.load(std::memory_order_relaxed) == 0;
  }

  // Marks `frame` allocated and initialises its metadata. Caller owns the frame exclusively
  // (just popped from the free list or a cache); no lock is required. `known_zero` says a
  // page-table frame's bytes are already zero (it came off a zeroed-table list).
  void InitAllocatedFrame(phys_internal::PerCpuCache& cache, FrameId frame, uint8_t flags,
                          bool known_zero = false);
  // Inverse: tears down an order-0 non-compound frame's state (drops its materialised
  // content, adjusts stats) before the id is parked in a cache or the free list.
  void ReleaseFrameState(phys_internal::PerCpuCache& cache, FrameId frame, PageMeta& meta);

  // Books `frames` allocated (positive) or freed (negative) frames: on the calling thread's
  // cache while caches serve allocations, on the shared total the quota gate reads while a
  // frame limit is armed.
  void CountAllocated(phys_internal::PerCpuCache& cache, int64_t frames);
  // Adds `cache`'s statistics deltas to the shared totals and zeroes them.
  void FoldCacheStats(phys_internal::PerCpuCache& cache);

  // Marks the `bytes` at `frame` materialised for a caller that owns the frame exclusively
  // or holds its materialise stripe, zero-filling them first when `zero`.
  std::byte* PublishMaterialized(phys_internal::PerCpuCache& cache, FrameId frame,
                                 PageMeta& meta, uint64_t bytes, bool zero);
  // Poisons the `bytes` at `frame` as they are freed (debug-vm poison fill, ASan
  // poisoning). The caller clears the materialised state.
  void ScrubFreedBytes(FrameId frame, uint64_t bytes);

  PageMeta& MetaRef(FrameId frame) const;
  // The fixed address of `frame`'s bytes.
  std::byte* FrameBytes(FrameId frame) const;
  // DecRef's slow half: `frame`'s last reference just dropped; free it.
  void FreeLastRef(FrameId frame, PageMeta& meta);

  // Blocks (outside the lock) until `frames` more can be allocated under the limit; aborts
  // when reclaim cannot make room (the NOFAIL contract).
  void WaitForQuota(uint64_t frames);

  // Like WaitForQuota but returns false instead of aborting when reclaim is exhausted (or no
  // reclaimer is installed while over the limit).
  [[nodiscard]] bool TryWaitForQuota(uint64_t frames);

  // Allocation bodies shared by the NOFAIL and Try entry points (quota already granted).
  FrameId AllocateGranted(uint8_t flags);
  FrameId AllocateCompoundGranted(uint8_t flags);

  // Never-reused identity for the per-thread cache table (see per_cpu_cache.h).
  const uint64_t id_;

  // Wakes the pressure callback when `want` more frames would leave free below LOW.
  void MaybeWakeReclaim(uint64_t want);

  // Passes the frames of `frames` that sit on an LRU to the release hook.
  void DetachFromLru(std::span<const FrameId> frames);

  mutable util::Mutex mutex_;
  std::atomic<uint64_t> frame_limit_{0};
  std::atomic<uint64_t> wm_min_{0};
  std::atomic<uint64_t> wm_low_{0};
  std::atomic<uint64_t> wm_high_{0};
  // Explicit SetWatermarks pins the values; otherwise SetFrameLimit re-derives them.
  bool watermarks_explicit_ ODF_GUARDED_BY(mutex_) = false;
  ReclaimCallback reclaim_callback_ ODF_GUARDED_BY(mutex_);
  PressureCallback pressure_callback_ ODF_GUARDED_BY(mutex_);
  std::atomic<bool> pressure_armed_{false};
  LruReleaseHook lru_release_hook_;
  // Chunks grown so far. Each chunk's metadata array and frame data mapping
  // (kChunkDataBytes) are published in the spines below; both come from and return to a
  // process-wide pool of chunk storage.
  size_t chunk_count_ ODF_GUARDED_BY(mutex_) = 0;
  std::array<std::atomic<PageMeta*>, kMaxChunks> chunk_table_{};
  std::array<std::atomic<std::byte*>, kMaxChunks> chunk_data_{};
  std::vector<FrameId> free_list_ ODF_GUARDED_BY(mutex_);
  // Free list of 512-aligned compound candidates (freed compounds are recycled whole).
  std::vector<FrameId> compound_free_list_ ODF_GUARDED_BY(mutex_);
  // Terminal parking lot for hwpoisoned frames: never popped, never re-entering any free
  // list. A quarantined frame keeps its bytes at its own address, materialised (corrupted
  // contents stay inspectable in crash dumps and replay logs — the poison-on-free memset
  // is skipped for them).
  std::vector<FrameId> quarantine_ ODF_GUARDED_BY(mutex_);
  AtomicStats stats_;
};

// --- Inline fast paths: the lookups, pin and unpin every simulated memory access makes ---

inline PageMeta& FrameAllocator::MetaRef(FrameId frame) const {
  size_t chunk = frame >> kChunkShift;
  size_t index = frame & (kChunkSize - 1);
  ODF_DCHECK(chunk < kMaxChunks) << "frame " << frame << " out of range";
  // Acquire pairs with the release store in AddChunkLocked: a thread handed a frame id by
  // another thread sees fully-constructed metadata even though chunk growth is concurrent.
  PageMeta* base = chunk_table_[chunk].load(std::memory_order_acquire);
  ODF_DCHECK(base != nullptr) << "frame " << frame << " in ungrown chunk";
  return base[index];
}

inline PageMeta& FrameAllocator::GetMeta(FrameId frame) { return MetaRef(frame); }
inline const PageMeta& FrameAllocator::GetMeta(FrameId frame) const { return MetaRef(frame); }

inline std::byte* FrameAllocator::FrameBytes(FrameId frame) const {
  // Acquire pairs with the release store in AddChunkLocked, as in MetaRef.
  std::byte* base = chunk_data_[frame >> kChunkShift].load(std::memory_order_acquire);
  return base + (static_cast<uint64_t>(frame & (kChunkSize - 1)) << kPageShift);
}

inline bool FrameAllocator::TryGetRef(FrameId frame) {
  PageMeta& meta = MetaRef(frame);
  // No freed-frame/tail BUG_ONs here: this is called speculatively from the lock-free read
  // path, where racing a free (and even pinning a reused frame id) is expected and handled
  // by the caller's shard-generation recheck. A zero count — frame free, mid-free, or a
  // compound tail — simply fails the pin.
  uint32_t count = meta.refcount.load(std::memory_order_relaxed);
  for (;;) {
    if (count == 0) {
      return false;
    }
    if (meta.refcount.compare_exchange_weak(count, count + 1, std::memory_order_seq_cst,
                                            std::memory_order_relaxed)) {
      return true;
    }
  }
}

inline void FrameAllocator::DecRef(FrameId frame) {
  PageMeta& meta = MetaRef(frame);
  ODF_VM_BUG_ON_PAGE((meta.flags & kPageFlagAllocated) == 0, meta, frame)
      << "DecRef on freed frame";
  ODF_VM_BUG_ON_PAGE(meta.IsCompoundTail(), meta, frame) << "DecRef on compound tail";
  ODF_DCHECK(!meta.IsCompoundTail()) << "DecRef on compound tail " << frame;
  uint32_t previous = meta.refcount.fetch_sub(1, std::memory_order_acq_rel);
  ODF_VM_BUG_ON_PAGE(previous == 0, meta, frame) << "refcount underflow";
  ODF_DCHECK(previous != 0) << "refcount underflow on frame " << frame;
  if (previous == 1) {
    FreeLastRef(frame, meta);
  }
}

inline std::byte* FrameAllocator::PeekData(FrameId frame) {
  const PageMeta& meta = MetaRef(frame);
  const PageMeta& owner = meta.IsCompoundTail() ? MetaRef(meta.compound_head) : meta;
  if (owner.materialized.load(std::memory_order_acquire) == 0) {
    return nullptr;
  }
  return FrameBytes(frame);
}

inline const std::byte* FrameAllocator::PeekData(FrameId frame) const {
  return const_cast<FrameAllocator*>(this)->PeekData(frame);
}

}  // namespace odf

#endif  // ODF_SRC_PHYS_FRAME_ALLOCATOR_H_
