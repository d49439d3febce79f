// The shrinker: try_to_unmap-style eviction of inactive anonymous pages, plus the
// active-list aging scan that feeds it. This is the policy core shared by kswapd and
// direct reclaim (Kernel::ReclaimMemory).
//
// A reclaim round runs in three phases (docs/reclaim.md "Aging", "Pageout").
// AgeActiveList runs beside the mutators, under the MmGate held SHARED (mm_gate.h): it
// only harvests accessed bits, walking each frame's mappings under the rmap walk lock and
// an epoch guard and clearing each bit with a CAS that re-checks the entry. UnmapPages
// then needs the MmGate EXCLUSIVELY: it rewrites leaf entries in tables shared across
// address spaces, and the gate guarantees no mutator is mid-operation and that TLBs are
// flushed before any mutator resumes. Read hits take no gate, so their unpins still run:
// every frame either phase examines is pinned by its isolation (PageLru::Take*).
// FinishPageout then runs without the gate: it copies the evicted frames into their
// reserved swap slots and only then drops their references (gen before free: the flush
// came first). ReclaimPages runs the rounds.
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

// Frames isolated per LRU-lock hold, by aging and by the shrinker alike.
inline constexpr size_t kScanBatch = 64;

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

// Ages up to `scan` frames off the active tail, kScanBatch at a time (one LRU-lock hold
// per batch; the walk lock and an epoch guard per few walks): frames referenced since
// their last scan rotate back to the active head (accessed bits harvested), cold frames
// demote to the inactive head (pgdeactivate). Every frame isolated counts pgrefill. Runs
// with the MmGate held shared (beside the mutators; the calling thread must be able to
// take a PtEpoch::ReadGuard) or exclusively. Returns the number demoted; sets *tlb_dirty
// when any accessed bit was cleared, and the caller owes a TLB flush before its next
// eviction.
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
// add batch, shrinks the inactive list (ShrinkInactiveList, `scan` frames at most; 0 means
// the first round's max(2 * want, kScanBatch)), and flushes TLBs once if anything changed
// — including the accessed bits the round's aging cleared (`aging_dirty`). It does not
// age: the round ages before it, beside the mutators. A round that evicted something opens
// a pageout (MmGate::BeginPageout) that FinishPageout ends; one that evicted nothing first
// waits for other evictors' pageouts, so that its caller sees the frames they are about to
// free before judging memory exhausted. Returns frames evicted; *examined_out (optional)
// reports the frames drained onto the lists plus those scanned, so that zero means the
// phase found nothing at all to work on.
uint64_t UnmapPages(ShrinkContext& ctx, uint64_t want, Pageout* pageout, uint64_t scan = 0,
                    bool aging_dirty = false, uint64_t* examined_out = nullptr)
    ODF_REQUIRES(MmGate::Global());

// The pageout phase, with or without the gate: commits every reserved write-out, then
// drops the evicted frames' references (mappings and isolation pins), and ends the
// pageout. Each frame is free on return unless a concurrent read hit still pins it; that
// hit's unpin frees it.
void FinishPageout(ShrinkContext& ctx, Pageout* pageout);

// Reclaim as used by kswapd and direct reclaim: rounds of aging, unmap and pageout until
// `want` frames are evicted or no progress is possible. Each round ages the active list
// under the shared gate when the inactive list is short of the round's scan, takes the
// MmGate exclusively for UnmapPages only, and runs FinishPageout after releasing it. Scan
// pressure escalates each round (the priority analog of Linux's shrink loop). A calling
// mutator's shared holds (the upgrade, mm_gate.h) come back after each round's pageout. A
// round that finds nothing to age or shrink after another thread's pass took frames off
// the lists meanwhile waits for any aging pass in flight and retries
// (MmGate::WaitForReclaimPasses) instead of reporting a stall. Returns frames evicted.
uint64_t ReclaimPages(ShrinkContext& ctx, uint64_t want);

}  // namespace reclaim
}  // namespace odf

#endif  // ODF_SRC_RECLAIM_SHRINK_H_
