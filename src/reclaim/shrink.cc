#include "src/reclaim/shrink.h"

#include <algorithm>
#include <span>
#include <vector>

#include "src/debug/debug.h"
#include "src/fi/fault_inject.h"
#include "src/pt/pte.h"
#include "src/reclaim/mm_gate.h"
#include "src/trace/metrics.h"
#include "src/trace/trace.h"

namespace odf {
namespace reclaim {

namespace {

constexpr size_t kScanBatch = 64;

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

}  // namespace

uint64_t AgeActiveList(ShrinkContext& ctx, uint64_t scan, bool* tlb_dirty,
                       uint64_t* scanned_out) {
  std::vector<FrameId> batch;
  std::vector<RmapLocation> locations;
  ctx.lru->TakeActive(scan, &batch);
  if (scanned_out != nullptr) {
    *scanned_out = batch.size();
  }
  std::vector<FrameId> rotated;
  std::vector<FrameId> demoted;
  for (FrameId frame : batch) {
    locations.clear();
    ctx.rmap->Walk(frame, &locations);
    bool referenced = false;
    for (const RmapLocation& location : locations) {
      if (TestAndClearAccessed(location.slot)) {
        referenced = true;
        *tlb_dirty = true;
      }
    }
    (referenced ? rotated : demoted).push_back(frame);
  }
  PutBack(ctx, rotated, /*active=*/true);
  PutBack(ctx, demoted, /*active=*/false);
  CountVm(VmCounter::k_pgdeactivate, demoted.size());
  return demoted.size();
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
      ctx.rmap->Walk(frame, &locations);
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
        if (TestAndClearAccessed(location.slot)) {
          referenced = true;
          *tlb_dirty = true;
        }
      }
      if (referenced) {
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

uint64_t UnmapPages(ShrinkContext& ctx, uint64_t want, Pageout* pageout) {
  ODF_DCHECK(MmGate::ThreadHoldsExclusive()) << "reclaim without the MmGate held exclusive";
  ODF_DCHECK(pageout->slots.empty() && pageout->drops.empty()) << "pageout not finished";
  // Pages faulted since the last round still sit in per-thread add batches; the exclusive
  // gate guarantees no thread is appending, so every batch can be emptied onto the lists.
  ctx.lru->DrainAddBatches();
  bool tlb_dirty = false;
  uint64_t freed = 0;
  // Alternate aging and shrinking. The first passes over freshly-faulted pages mostly
  // harvest accessed bits (everything looks referenced and gets its second chance); the
  // demotions those passes produce are what the later passes evict. Scan pressure
  // escalates each round (the priority analog of Linux's shrink loop) so a working set
  // that is entirely referenced still converges: once a round covers the whole inactive
  // list, every accessed bit is clear and the next aging pass demotes the cold tail.
  for (int round = 0; round < 16 && freed < want; ++round) {
    uint64_t need = want - freed;
    uint64_t scan = std::max<uint64_t>(need * 2, kScanBatch) << std::min(round, 10);
    uint64_t demoted = 0;
    uint64_t aged = 0;
    if (ctx.lru->InactiveSize() < scan) {
      demoted = AgeActiveList(ctx, scan, &tlb_dirty, &aged);
    }
    uint64_t scanned = 0;
    uint64_t got = ShrinkInactiveList(ctx, need, scan, &tlb_dirty, pageout, &scanned);
    freed += got;
    if (got == 0 && demoted == 0 && scanned == 0 && aged == 0) {
      break;  // Total stall: both lists are empty or drained. Caller falls back (OOM).
    }
  }
  if (tlb_dirty && ctx.flush_tlbs) {
    // One coarse flush per reclaim round, BEFORE any mutator can run again (the caller
    // still holds the gate): stale translations to evicted frames or cleared accessed bits
    // must not survive into the next memory operation.
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
  Pageout pageout;
  MmGate::ExclusiveScope gate;
  uint64_t freed = UnmapPages(ctx, want, &pageout);
  gate.Unlock();
  FinishPageout(ctx, &pageout);
  return freed;
}

}  // namespace reclaim
}  // namespace odf
