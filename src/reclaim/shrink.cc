#include "src/reclaim/shrink.h"

#include <algorithm>
#include <span>
#include <vector>

#include "src/debug/debug.h"
#include "src/fi/fault_inject.h"
#include "src/pt/mm_locks.h"
#include "src/pt/pte.h"
#include "src/reclaim/mm_gate.h"
#include "src/trace/metrics.h"
#include "src/trace/trace.h"

namespace odf {
namespace reclaim {

namespace {

constexpr int kMaxRounds = 16;

// Reverse-map walks per walk-lock hold in aging. A mutator changing a VMA map or a family
// (mmap, fork's link, exit's unlink) waits for at most this many walks, about a
// microsecond.
constexpr size_t kWalksPerHold = 8;

// Ends a batch of isolations: back onto the chosen list, then the isolation pins
// (PageLru::Take*) drop. A drop frees a frame only when nothing maps it any more (a read
// hit's pin, released meanwhile, was its last other reference), so no flush is owed first.
void PutBack(ShrinkContext& ctx, std::span<const FrameId> frames, bool active) {
  ctx.lru->PutBack(frames, active);
  ctx.allocator->DecRefBatch(frames);
}

// Drops an isolated frame that is mapped nowhere from the LRU for good. Only pins keep it
// allocated, and nothing can map it again; whichever pin drops last frees it.
void Discard(ShrinkContext& ctx, FrameId frame) {
  ctx.lru->Erase(frame);
  ctx.allocator->DecRef(frame);
}

// The scan budget of a round: twice what is still wanted, escalating (the priority analog
// of Linux's shrink loop) so that a working set that is entirely referenced still
// converges — once a round covers the whole inactive list, every accessed bit is clear
// and the next aging pass demotes the cold tail.
uint64_t RoundScan(uint64_t need, int round) {
  return std::max<uint64_t>(need * 2, kScanBatch) << std::min(round, 10);
}

}  // namespace

uint64_t AgeActiveList(ShrinkContext& ctx, uint64_t scan, bool* tlb_dirty,
                       uint64_t* scanned_out) {
  std::vector<FrameId> batch;
  std::vector<FrameId> rotated;
  std::vector<FrameId> demoted;
  std::vector<RmapLocation> locations;
  uint64_t scanned = 0;
  uint64_t demoted_total = 0;
  MmGate::BeginAging();
  while (scanned < scan) {
    batch.clear();
    rotated.clear();
    demoted.clear();
    size_t take = static_cast<size_t>(std::min<uint64_t>(scan - scanned, kScanBatch));
    if (ctx.lru->TakeActive(take, &batch) == 0) {
      break;
    }
    scanned += batch.size();
    for (size_t first = 0; first < batch.size(); first += kWalksPerHold) {
      // Mutators run meanwhile: the walk lock holds the families and VMA maps still, the
      // epoch keeps every table on a walked path backed, and the CAS in
      // TestAndClearAccessed re-checks each slot the walk found.
      Rmap::WalkScope walk(*ctx.rmap);
      PtEpoch::ReadGuard epoch;
      ODF_CHECK(epoch.ok() || MmGate::ThreadHoldsExclusive())
          << "aging beside the mutators without an epoch reader slot";
      for (FrameId frame : std::span<const FrameId>(batch).subspan(
               first, std::min(kWalksPerHold, batch.size() - first))) {
        locations.clear();
        ctx.rmap->Walk(frame, &locations);
        bool referenced = false;
        for (const RmapLocation& location : locations) {
          referenced |= TestAndClearAccessed(location.slot, frame);
        }
        (referenced ? rotated : demoted).push_back(frame);
      }
    }
    *tlb_dirty |= !rotated.empty();
    PutBack(ctx, rotated, /*active=*/true);
    PutBack(ctx, demoted, /*active=*/false);
    demoted_total += demoted.size();
  }
  MmGate::EndAging(/*isolated=*/scanned > 0);
  CountVm(VmCounter::k_pgrefill, scanned);
  CountVm(VmCounter::k_pgdeactivate, demoted_total);
  if (scanned_out != nullptr) {
    *scanned_out = scanned;
  }
  return demoted_total;
}

uint64_t ShrinkInactiveList(ShrinkContext& ctx, uint64_t want, uint64_t scan,
                            bool* tlb_dirty, Pageout* pageout, uint64_t* scanned_out) {
  ODF_DCHECK(MmGate::ThreadHoldsExclusive()) << "shrink without the MmGate held exclusive";
  FrameAllocator& allocator = *ctx.allocator;
  std::vector<FrameId> batch;
  // Candidates the shrinker cannot or should not evict right now go back to the ACTIVE
  // head: putting them back inactive would make the very next TakeInactive spin on them,
  // and a frame that dodged eviction has earned another aging round anyway.
  std::vector<FrameId> rotated;
  std::vector<RmapLocation> locations;
  uint64_t freed = 0;
  uint64_t scanned = 0;
  while (freed < want && scanned < scan) {
    batch.clear();
    rotated.clear();
    size_t take = static_cast<size_t>(std::min<uint64_t>(scan - scanned, kScanBatch));
    if (ctx.lru->TakeInactive(take, &batch) == 0) {
      break;
    }
    size_t processed = 0;
    for (FrameId frame : batch) {
      if (freed >= want) {
        break;  // Unprocessed frames are reattached below; Take detached them.
      }
      ++processed;
      ++scanned;
      CountVm(VmCounter::k_pgscan);
      // The isolation pin holds the frame allocated: its flags, stamp and mappings hold
      // still while we look (read hits, whose unpin may drop a last reference, take no gate).
      PageMeta& meta = allocator.GetMeta(frame);
      // LRU admission (AddNewAnonRmap) only lets order-0 anon frames in; re-check
      // defensively, since eviction of anything else would corrupt accounting.
      if (meta.IsCompound() || meta.IsPageTable() || (meta.flags & kPageFlagAnon) == 0) {
        ODF_DCHECK(false) << "non-anon frame " << frame << " on the LRU";
        rotated.push_back(frame);
        continue;
      }
      locations.clear();
      {
        // No mutator runs (the exclusive gate), so the slots stay valid after the guard.
        PtEpoch::ReadGuard epoch;
        ctx.rmap->Walk(frame, &locations);
      }
      if (locations.empty()) {
        // Mapped nowhere, yet not freed: a pin (a read hit, a test, a mid-operation caller)
        // holds it besides ours. Nothing to unmap.
        Discard(ctx, frame);
        continue;
      }
      if (meta.IsHwPoisoned()) {
        // Defensive: memory failure erases its frame from the LRU under the exclusive
        // gate, so a poisoned frame here means a racing offline detached it between our
        // Take and this check. Never swap out dead bytes; drop it from the scan (the
        // offline path owns its lifecycle now).
        Discard(ctx, frame);
        continue;
      }
      // Evictable only when every reference but our isolation pin is a mapping we are
      // about to clear. A shared PTE table holds ONE reference on behalf of all sharers
      // (§3.6) and the walk reports its slot once, so this holds for frames reached through
      // shared tables too. Extra references mean someone else (a read hit in flight, a
      // mid-rollback fork, a test) pins the frame — not ours to take.
      if (meta.refcount.load(std::memory_order_relaxed) != locations.size() + 1) {
        rotated.push_back(frame);
        continue;
      }
      // Second chance: referenced since it was deactivated.
      bool referenced = false;
      for (const RmapLocation& location : locations) {
        referenced |= TestAndClearAccessed(location.slot, frame);
      }
      if (referenced) {
        *tlb_dirty = true;
        rotated.push_back(frame);
        CountVm(VmCounter::k_pgactivate);
        continue;
      }
      // Writeback failure injection (reclaim_writeback): the page stays resident.
      if (fi::ShouldInject(FiSite::k_reclaim_writeback)) {
        rotated.push_back(frame);
        continue;
      }
      const std::byte* data = allocator.PeekData(frame);
      if (data != nullptr) {
        // The slot carries one reference per mapping, exactly mirroring the frame
        // references handed to the pageout below — sharers that later diverge
        // (DedicatePteTable) IncRef the slot per copied swap PTE, and each swap-in fault
        // DecRefs it. Until FinishPageout commits it, the slot serves this frame's bytes.
        SwapSlot slot = ctx.swap->TryReserveWriteOut(
            frame, data, static_cast<uint32_t>(locations.size()));
        if (slot == kInvalidSwapSlot) {
          rotated.push_back(frame);  // Swap full or IO error: keep the page resident.
          continue;
        }
        // Broadcast the swap entry into every mapping.
        for (const RmapLocation& location : locations) {
          StoreEntry(location.slot, Pte::MakeSwap(slot));
        }
        pageout->slots.push_back(slot);
        CountVm(VmCounter::k_pgswapout);
        ODF_TRACE(page_swap_out, 0, frame);
      } else {
        // Never materialised: the content is logical zero, so dropping the mappings
        // loses nothing — the next fault demand-zeroes the page again. No swap slot.
        for (const RmapLocation& location : locations) {
          StoreEntry(location.slot, Pte());
        }
      }
      ODF_TRACE(rmap_unmap, 0, frame, locations.size());
      // One reference per cleared mapping plus the isolation pin, dropped by FinishPageout
      // after the flush (gen before free) and the write-out: read hits pin frames without
      // the gate, so a frame freed here could be reused before the flush and read through
      // a stale translation. The frame stays isolated until its last reference drops.
      pageout->drops.insert(pageout->drops.end(), locations.size() + 1, frame);
      ++freed;
      *tlb_dirty = true;
      CountVm(VmCounter::k_pgsteal);
    }
    PutBack(ctx, rotated, /*active=*/true);
    // An early stop (want satisfied) leaves the batch tail detached from the LRU; those
    // frames were never looked at, so they go back where they came from.
    PutBack(ctx, std::span<const FrameId>(batch).subspan(processed), /*active=*/false);
  }
  if (scanned_out != nullptr) {
    *scanned_out = scanned;
  }
  return freed;
}

uint64_t UnmapPages(ShrinkContext& ctx, uint64_t want, Pageout* pageout, uint64_t scan,
                    bool aging_dirty, uint64_t* examined_out) {
  ODF_DCHECK(MmGate::ThreadHoldsExclusive()) << "reclaim without the MmGate held exclusive";
  ODF_DCHECK(pageout->slots.empty() && pageout->drops.empty()) << "pageout not finished";
  // Pages faulted since the last round still sit in per-thread add batches; the exclusive
  // gate guarantees no thread is appending, so every batch can be emptied onto the lists.
  // The round's aging, which ran before, could not see them.
  const uint64_t drained = ctx.lru->DrainAddBatches();
  bool tlb_dirty = aging_dirty;
  uint64_t scanned = 0;
  uint64_t freed = ShrinkInactiveList(ctx, want, scan != 0 ? scan : RoundScan(want, 0),
                                      &tlb_dirty, pageout, &scanned);
  if (drained + scanned > 0) {
    MmGate::NoteUnmap();
  }
  if (examined_out != nullptr) {
    *examined_out = drained + scanned;
  }
  if (tlb_dirty && ctx.flush_tlbs) {
    // One coarse flush per round, BEFORE any mutator can run again (the caller still holds
    // the gate): stale translations to evicted frames or cleared accessed bits must not
    // survive into the next memory operation.
    ctx.flush_tlbs();
  }
  if (freed == 0) {
    // Another evictor's frames may be on their way out (isolated, so this round could not
    // take them): wait for them rather than let the caller see them as lost memory.
    MmGate::WaitForPageouts();
  } else {
    MmGate::BeginPageout();
  }
  return freed;
}

void FinishPageout(ShrinkContext& ctx, Pageout* pageout) {
  if (pageout->drops.empty()) {
    return;
  }
  // The workingset shadows, like Linux's, are left when the page leaves the swap cache: a
  // swap-in that finds its write-out still pending is not a refault.
  ctx.lru->RecordEvictions(pageout->slots);
  // Commit before any drop: until its commit a slot serves its frame's bytes, so the frame
  // must stay allocated. The last drop frees the frame (the shrinker's refcount ==
  // mappings + 1 test guarantees it unless a read hit pinned the frame since, in which
  // case its unpin frees it), which also ends its isolation on the LRU.
  ctx.swap->CommitWriteOuts(pageout->slots);
  ctx.allocator->DecRefBatch(pageout->drops);
  pageout->slots.clear();
  pageout->drops.clear();
  MmGate::EndPageout();
}

uint64_t ReclaimPages(ShrinkContext& ctx, uint64_t want) {
  // A thread with no epoch reader slot (every slot claimed) cannot walk beside the
  // mutators; it ages inside its exclusive hold instead.
  const bool age_beside = PtEpoch::Global().ThreadCanRead();
  uint64_t freed = 0;
  // Alternate aging and shrinking. The first passes over freshly-faulted pages mostly
  // harvest accessed bits (everything looks referenced and gets its second chance); the
  // demotions those passes produce are what the later rounds evict.
  for (int round = 0; round < kMaxRounds && freed < want;) {
    const MmGate::ReclaimMark mark = MmGate::MarkReclaim();
    const uint64_t need = want - freed;
    const uint64_t scan = RoundScan(need, round);
    bool tlb_dirty = false;
    uint64_t demoted = 0;
    uint64_t aged = 0;
    auto age = [&] {
      if (ctx.lru->InactiveSize() < scan) {
        demoted = AgeActiveList(ctx, scan, &tlb_dirty, &aged);
      }
    };
    if (age_beside) {
      MmGate::SharedScope gate;
      age();
    }
    Pageout pageout;
    uint64_t examined = 0;
    uint64_t got;
    {
      MmGate::ExclusiveScope gate;
      if (!age_beside) {
        age();
      }
      got = UnmapPages(ctx, need, &pageout, scan, tlb_dirty, &examined);
      gate.Unlock();
      FinishPageout(ctx, &pageout);
    }
    freed += got;
    if (got == 0 && demoted == 0 && examined == 0 && aged == 0) {
      // Both lists and the add batches looked empty. If another reclaimer's pass held the
      // frames isolated, or moved them between this round's aging and its unmap phase,
      // that is not a stall: wait for a pass in flight and try again.
      if (MmGate::WaitForReclaimPasses(mark)) {
        continue;
      }
      break;  // Total stall: both lists are empty or drained. Caller falls back (OOM).
    }
    ++round;
  }
  return freed;
}

}  // namespace reclaim
}  // namespace odf
