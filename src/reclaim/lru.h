// PageLru — active/inactive page aging lists, per-thread add batches, and workingset
// (refault) shadows.
//
// The LRU tracks order-0 anonymous frames that are candidates for eviction. A frame is
// admitted when it is first installed (demand zero, populate, COW copy, swap-in, soft-offline
// migration) through the installing thread's ADD BATCH — the folio_batch / lru_add analog:
// the fault path touches only its own batch and takes the LRU lock once per batch, not once
// per page. Reclaim drains every batch before it shrinks (DrainAddBatches). A frame leaves the
// LRU when the allocator frees it (FrameAllocator::SetLruReleaseHook -> Release), so
// membership does not depend on mappings coming and going.
//
// The lists are intrusive — PageMeta::lru_prev / lru_next, the page->lru analog — and each
// frame's position is PageMeta::lru_state (LruState), so there is no per-frame index. The
// shrinker (shrink.h) pops candidates from the inactive tail, gives referenced pages a second
// chance by re-activating them, and ages the active tail back to inactive when the inactive
// list runs short — the kswapd active/inactive balancing loop in miniature.
//
// Workingset detection mirrors the kernel's shadow entries: every eviction stamps the swap
// slot with the current eviction epoch. When the slot refaults, the distance (evictions
// since) is compared to the LRU size; a "recent" refault means the page was evicted while
// still in its workingset, so it re-enters the ACTIVE list and pgrefault is counted.
//
// Thread-safety: the list mutex is a leaf lock (lock order: Rmap walk lock -> PageLru
// lock, docs/reclaim.md "Locking"); the shadows have a leaf lock of their own, so a
// swap-in never waits behind an aging batch's isolation. An add batch is appended to only
// by its owning thread, without the lock; everything else that touches a batch — its own
// drain when full, Release purging a freed frame, DrainAddBatches — holds the lock.
// DrainAddBatches empties OTHER threads' batches, which is sound only while they cannot be
// appending: its caller holds the MmGate exclusively, and Add runs inside memory
// operations (gate shared).
#ifndef ODF_SRC_RECLAIM_LRU_H_
#define ODF_SRC_RECLAIM_LRU_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/phys/frame_allocator.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace odf {
namespace reclaim {

// PageMeta::lru_state values.
enum class LruState : uint8_t {
  kNone = 0,       // Not tracked.
  kBatched,        // In an add batch, bound for the inactive list.
  kBatchedActive,  // In an add batch, bound for the active list (workingset refault).
  kInactive,
  kActive,
  kIsolated,       // Taken (and pinned) by the shrinker; PutBack or Release ends it.
};

namespace lru_internal {
struct AddBatch;
}  // namespace lru_internal

class PageLru {
 public:
  explicit PageLru(FrameAllocator* allocator);
  ~PageLru();

  PageLru(const PageLru&) = delete;
  PageLru& operator=(const PageLru&) = delete;

  // Admits a freshly installed anonymous order-0 frame through the calling thread's add
  // batch (inactive, or active for a workingset refault). The frame must still be private
  // to the caller and untracked; the caller runs inside a memory operation (MmGate held).
  void Add(FrameId frame, bool active = false);

  // Moves every thread's add batch onto the lists; returns the frames moved. Caller holds
  // the MmGate exclusively.
  size_t DrainAddBatches();

  // Detaches each frame from whichever list or add batch holds it (no-op when untracked).
  // The allocator's release hook: a freed frame leaves the LRU.
  void Release(std::span<const FrameId> frames);
  void Erase(FrameId frame) { Release(std::span<const FrameId>(&frame, 1)); }

  // Links an untracked frame at the head of the chosen list directly, bypassing the add
  // batches. No-op when already tracked.
  void Insert(FrameId frame, bool active);

  // Pops up to `max` frames off the inactive tail (coldest first) into `out`. Each frame
  // is isolated AND pinned with one reference (the isolate_lru_page analog): read hits
  // take no gate, and aging runs beside the mutators, so without the pin a last unpin
  // could free a frame the caller is examining. The pin is taken while the frame is still
  // listed, so a concurrent last DecRef either loses to it or finds the frame listed and
  // detaches it through the release hook (which waits for this lock). A frame whose count
  // already reached zero is mid-free; it leaves the list but is not returned. Callers
  // re-insert survivors with PutBack (or Erase them) and then drop the pin with DecRef.
  // The caller bounds `max` (the shrinker and aging take kScanBatch at a time): the lock
  // is held across the whole take.
  size_t TakeInactive(size_t max, std::vector<FrameId>* out);

  // Pops up to `max` frames off the active tail (aging scan), isolated and pinned likewise.
  size_t TakeActive(size_t max, std::vector<FrameId>* out);

  // Re-inserts isolated frames at the head of the chosen list, in order, under one lock
  // hold. The caller still holds their isolation pins, so none can have been freed meanwhile.
  void PutBack(std::span<const FrameId> frames, bool active);
  void PutBack(FrameId frame, bool active) {
    PutBack(std::span<const FrameId>(&frame, 1), active);
  }

  // List sizes; frames still waiting in add batches count toward the list they are bound
  // for, so the totals mean "frames admitted" at any moment.
  size_t ActiveSize() const;
  size_t InactiveSize() const;
  size_t Size() const;

  // True while the frame sits on either list or in an add batch. Used by the verifier's
  // quarantine bijection (a hwpoisoned frame must never be LRU-resident) and by tests.
  bool Contains(FrameId frame) const;

  // Verifier support: calls fn(frame, state) for every list entry (head to tail, active
  // list first) and every add-batch entry. Detects list corruption on the way: returns a
  // description of the first broken link or size mismatch, or "" when the lists are sound.
  std::string ForEachTracked(const std::function<void(FrameId, LruState)>& fn) const;

  // --- Workingset shadows ---

  // Stamps each slot with the next eviction epoch, in order, under one lock hold (called
  // once per evicted page, by the pageout).
  void RecordEvictions(std::span<const uint64_t> slots);
  void RecordEviction(uint64_t slot) { RecordEvictions(std::span<const uint64_t>(&slot, 1)); }

  // Consumes the shadow for `slot` on swap-in. Returns true when the refault distance is
  // within the current LRU size — the page was evicted out of its workingset and should
  // re-enter the active list. Counts pgrefault and emits workingset_refault itself.
  bool NoteRefault(uint64_t slot);

  uint64_t ShadowCount() const;

 private:
  struct List {
    FrameId head = kInvalidFrame;  // Most recently inserted.
    FrameId tail = kInvalidFrame;  // Coldest: eviction (or demotion) next.
    size_t size = 0;
  };

  PageMeta& Meta(FrameId frame) const { return allocator_->GetMeta(frame); }
  lru_internal::AddBatch& BatchForThread();
  // Returns the frames linked.
  size_t DrainLocked(lru_internal::AddBatch& batch) ODF_REQUIRES(mu_);
  void PurgeFromBatchesLocked(FrameId frame) ODF_REQUIRES(mu_);
  size_t BatchedLocked(LruState state) const ODF_REQUIRES(mu_);
  void LinkLocked(FrameId frame, bool active) ODF_REQUIRES(mu_);
  void UnlinkLocked(FrameId frame, List& list) ODF_REQUIRES(mu_);
  size_t TakeLocked(List& list, size_t max, std::vector<FrameId>* out) ODF_REQUIRES(mu_);

  FrameAllocator* allocator_;
  // Never-reused identity keying the per-thread batch lookup (a dead LRU's id never
  // matches, so a stale thread-local entry is never dereferenced).
  const uint64_t id_;
  mutable util::Mutex mu_;
  List active_ ODF_GUARDED_BY(mu_);
  List inactive_ ODF_GUARDED_BY(mu_);
  // Every add batch ever handed to a thread; owned here, reused by a later thread with the
  // same id once the first one exits.
  std::vector<std::unique_ptr<lru_internal::AddBatch>> batches_ ODF_GUARDED_BY(mu_);
  // Frames on either list: written under mu_ with the sizes, read by NoteRefault without
  // it (a size hint for the refault horizon).
  std::atomic<size_t> listed_{0};
  mutable util::Mutex shadow_mu_;
  // swap slot -> eviction epoch
  std::unordered_map<uint64_t, uint64_t> shadows_ ODF_GUARDED_BY(shadow_mu_);
  uint64_t eviction_epoch_ ODF_GUARDED_BY(shadow_mu_) = 0;
};

}  // namespace reclaim
}  // namespace odf

#endif  // ODF_SRC_RECLAIM_LRU_H_
