// The shrinker: try_to_unmap-style eviction of inactive anonymous pages, plus the
// active-list aging scan that feeds it. This is the policy core shared by kswapd and
// direct reclaim (Kernel::ReclaimMemory).
//
// CALLERS MUST HOLD THE MmGate EXCLUSIVELY (mm_gate.h): the shrinker rewrites leaf
// entries in tables shared across address spaces and frees the frames they referenced;
// the gate guarantees no mutator is mid-operation and that TLBs are flushed before any
// mutator resumes. Read hits take no gate, so their unpins still run: every frame the
// shrinker examines is pinned by its isolation (PageLru::Take*), and an evicted frame's
// references are dropped only after the flush (gen before free).
#ifndef ODF_SRC_RECLAIM_SHRINK_H_
#define ODF_SRC_RECLAIM_SHRINK_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/mm/swap.h"
#include "src/phys/frame_allocator.h"
#include "src/reclaim/lru.h"
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

// Scans up to `scan` frames off the inactive tail and evicts up to `want` of them:
// referenced frames get their second chance (re-activated, pgactivate), evictable frames
// have every location found by the family walk (Rmap::Walk) rewritten to a swap entry (or
// cleared, for never-materialised zero pages) and their swap slot referenced once per
// mapping (pgsteal). The frame references those mappings held are NOT dropped here: each
// evicted frame is appended to *drops once per cleared mapping and once for its isolation
// pin (PageLru::TakeInactive), for the caller to drop after its TLB flush (gen before
// free). Frames not evicted are put back and unpinned here. Returns frames evicted;
// *scanned_out (optional) reports how many frames were looked at, so callers can tell a
// stalled list from a referenced one.
uint64_t ShrinkInactiveList(ShrinkContext& ctx, uint64_t want, uint64_t scan,
                            bool* tlb_dirty, std::vector<FrameId>* drops,
                            uint64_t* scanned_out = nullptr);

// The full reclaim round used by kswapd and direct reclaim: drains every thread's LRU add
// batch, alternates aging and shrinking until `want` frames are evicted or no progress is
// possible, flushes TLBs once if anything changed, and only then drops the evicted frames'
// references (mappings and isolation pins). Returns frames evicted (each one is free on return unless a concurrent read
// hit still pins it; that hit's unpin frees it).
uint64_t ReclaimPages(ShrinkContext& ctx, uint64_t want);

}  // namespace reclaim
}  // namespace odf

#endif  // ODF_SRC_RECLAIM_SHRINK_H_
