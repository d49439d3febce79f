// The shrinker: try_to_unmap-style eviction of inactive anonymous pages, plus the
// active-list aging scan that feeds it. This is the policy core shared by kswapd and
// direct reclaim (Kernel::ReclaimMemory).
//
// Eviction runs in two phases (docs/reclaim.md "Pageout"). UnmapPages and the scans under
// it need the MmGate EXCLUSIVELY (mm_gate.h): they rewrite leaf entries in tables shared
// across address spaces, and the gate guarantees no mutator is mid-operation and that
// TLBs are flushed before any mutator resumes. Read hits take no gate, so their unpins
// still run: every frame the shrinker examines is pinned by its isolation
// (PageLru::Take*). FinishPageout then runs without the gate: it copies the evicted frames
// into their reserved swap slots and only then drops their references (gen before free:
// the flush came first). ReclaimPages does both.
#ifndef ODF_SRC_RECLAIM_SHRINK_H_
#define ODF_SRC_RECLAIM_SHRINK_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/mm/swap.h"
#include "src/phys/frame_allocator.h"
#include "src/reclaim/lru.h"
#include "src/reclaim/mm_gate.h"
#include "src/reclaim/rmap.h"

namespace odf {
namespace reclaim {

// Everything a reclaim pass needs, bundled so shrink/kswapd stay below the process layer.
// flush_tlbs must invalidate every process's TLB (coarse, generation-bump flush); the
// kernel supplies it because only the process table knows who has a TLB.
struct ShrinkContext {
  FrameAllocator* allocator = nullptr;
  SwapSpace* swap = nullptr;
  Rmap* rmap = nullptr;
  PageLru* lru = nullptr;
  std::function<void()> flush_tlbs;
};

// Ages the active tail: frames referenced since their last scan rotate back to the active
// head (accessed bits harvested), cold frames demote to the inactive head (pgdeactivate).
// Returns the number demoted; sets *tlb_dirty when any accessed bit was cleared.
// *scanned_out (optional) reports how many frames were examined: a pass that rotates a
// fully-referenced list demotes nothing yet still makes progress (the cleared bits make
// the next pass demote), and ReclaimPages must not read that as a stall.
uint64_t AgeActiveList(ShrinkContext& ctx, uint64_t scan, bool* tlb_dirty,
                       uint64_t* scanned_out = nullptr);

// What the unmap phase leaves for the pageout: the write-outs to commit and the frame
// references to drop after them.
struct Pageout {
  // Swap slots reserved for evicted frames (SwapSpace::TryReserveWriteOut), one per
  // evicted materialised frame.
  std::vector<SwapSlot> slots;
  // One entry per reference an evicted frame still holds: each cleared mapping's, and the
  // isolation pin.
  std::vector<FrameId> drops;
};

// Scans up to `scan` frames off the inactive tail and evicts up to `want` of them:
// referenced frames get their second chance (re-activated, pgactivate), evictable frames
// have every location found by the family walk (Rmap::Walk) rewritten to a swap entry (or
// cleared, for never-materialised zero pages), with a swap slot reserved holding one
// reference per mapping (pgsteal). Neither the write-out nor the frame references those
// mappings held are finished here: the slot goes to pageout->slots, and the frame to
// pageout->drops once per cleared mapping and once for its isolation pin
// (PageLru::TakeInactive), for FinishPageout after the TLB flush (gen before free).
// Frames not evicted are put back and unpinned here. Returns frames evicted;
// *scanned_out (optional) reports how many frames were looked at, so callers can tell a
// stalled list from a referenced one.
uint64_t ShrinkInactiveList(ShrinkContext& ctx, uint64_t want, uint64_t scan,
                            bool* tlb_dirty, Pageout* pageout,
                            uint64_t* scanned_out = nullptr);

// The unmap phase of a reclaim round, under the exclusive gate: drains every thread's LRU
// add batch, alternates aging and shrinking until `want` frames are evicted or no progress
// is possible, and flushes TLBs once if anything changed. A round that evicted something
// opens a pageout (MmGate::BeginPageout) that FinishPageout ends; one that evicted nothing
// first waits for other evictors' pageouts, so that its caller sees the frames they are
// about to free before judging memory exhausted. Returns frames evicted.
uint64_t UnmapPages(ShrinkContext& ctx, uint64_t want, Pageout* pageout)
    ODF_REQUIRES(MmGate::Global());

// The pageout phase, with or without the gate: commits every reserved write-out, then
// drops the evicted frames' references (mappings and isolation pins), and ends the
// pageout. Each frame is free on return unless a concurrent read hit still pins it; that
// hit's unpin frees it.
void FinishPageout(ShrinkContext& ctx, Pageout* pageout);

// The full reclaim round used by kswapd and direct reclaim: takes the MmGate exclusively
// for UnmapPages only and runs FinishPageout after releasing it. A calling mutator's
// shared holds (the upgrade, mm_gate.h) come back after the pageout. Returns frames
// evicted.
uint64_t ReclaimPages(ShrinkContext& ctx, uint64_t want);

}  // namespace reclaim
}  // namespace odf

#endif  // ODF_SRC_RECLAIM_SHRINK_H_
