#include "src/mf/memory_failure.h"

#include <cstring>

#include "src/debug/debug.h"
#include "src/mm/fault.h"
#include "src/mm/range_ops.h"
#include "src/pt/mm_locks.h"
#include "src/reclaim/mm_gate.h"
#include "src/trace/metrics.h"
#include "src/trace/trace.h"
#include "src/util/log.h"

namespace odf {
namespace mf {

const char* MfResultName(MfResult result) {
  switch (result) {
    case MfResult::kRecovered:
      return "recovered";
    case MfResult::kDelayed:
      return "delayed";
    case MfResult::kAlreadyPoisoned:
      return "already-poisoned";
    case MfResult::kMigrated:
      return "migrated";
    case MfResult::kFailedBusy:
      return "failed-busy";
    case MfResult::kFailedKernelPage:
      return "failed-kernel-page";
    case MfResult::kNotSupported:
      return "not-supported";
  }
  return "?";
}

#if ODF_MEMORY_FAILURE_COMPILED

namespace {

// Splits every huge (PMD-leaf) mapping of compound `head`, in every address space, so the
// dead 4 KiB subpage can be offlined alone — the rest of the 2 MiB page survives. The split
// needs the owning space's walker and TLB, hence the full-space PMD scan; offline events
// are rare enough that the walk cost is irrelevant.
// Returns false when a split's table allocation fails; splits already performed are
// benign (a split mapping is valid state, faulting continues page by page).
bool SplitAllHugeMappings(MfContext& ctx, FrameId head) {
  if (!ctx.spaces) {
    return true;  // Standalone use without a process layer: nothing maps huge.
  }
  for (AddressSpace* as : ctx.spaces()) {
    for (const auto& [start, vma] : as->vmas()) {
      for (Vaddr chunk = EntryBase(vma.start, PtLevel::kPmd); chunk < vma.end;
           chunk += kPteTableSpan) {
        uint64_t* pmd_slot = as->walker().FindEntry(as->pgd(), chunk, PtLevel::kPmd);
        if (pmd_slot == nullptr) {
          continue;
        }
        Pte entry = LoadEntry(pmd_slot);
        if (!entry.IsPresent() || !entry.IsHuge() || entry.frame() != head) {
          continue;
        }
        // The PMD table holding this entry may be shared (kOnDemandHuge, §4): dedicate it
        // first so the split mutates only this space's view.
        if (!EnsureExclusivePmdPath(*as, chunk, AllocPolicy::kTry)) {
          return false;
        }
        pmd_slot = as->walker().FindEntry(as->pgd(), chunk, PtLevel::kPmd);
        if (pmd_slot == nullptr) {
          continue;
        }
        entry = LoadEntry(pmd_slot);
        if (!entry.IsPresent() || !entry.IsHuge() || entry.frame() != head) {
          continue;  // Dedication already rewrote it (cannot happen today; defensive).
        }
        if (!SplitHugeMapping(*as, chunk, pmd_slot)) {
          return false;
        }
        CountVm(VmCounter::k_mf_huge_splits);
      }
    }
  }
  return true;
}

// Moves the page-cache reference(s) for `frame` over to `replacement` across every file.
// Returns the number of cache slots repointed; reference ownership per ReplaceFrame's
// contract (the caller ends up owning old's cache refs, the cache owns new's).
size_t RelocateFileCache(MfContext& ctx, FrameId frame, FrameId replacement) {
  size_t relocated = 0;
  if (ctx.fs != nullptr) {
    ctx.fs->ForEachFile([&](const std::shared_ptr<MemFile>& file) {
      relocated += file->ReplaceFrame(frame, replacement);
    });
  }
  return relocated;
}

// The i_mmap analog for page-cache frames, which carry no anon stamp: every VMA that maps
// the owning file at the frame's page index holds the candidate slot. A frame its file no
// longer caches (truncated while mapped) has no index to go by, so those VMAs are scanned
// whole. Shared tables are reported once per slot, as Rmap::Walk does.
void WalkFileMappings(MfContext& ctx, FrameId frame,
                      std::vector<reclaim::RmapLocation>* out) {
  if (!ctx.spaces) {
    return;
  }
  auto add = [&](AddressSpace& as, Vaddr va) {
    uint64_t* slot = as.walker().FindEntry(as.pgd(), va, PtLevel::kPte);
    if (slot == nullptr) {
      return;
    }
    Pte entry = LoadEntry(slot);
    if (!entry.IsPresent() || entry.frame() != frame) {
      return;
    }
    for (const reclaim::RmapLocation& seen : *out) {
      if (seen.slot == slot) {
        return;
      }
    }
    out->push_back(reclaim::RmapLocation{slot, /*huge=*/false});
  };
  for (AddressSpace* as : ctx.spaces()) {
    for (const auto& [start, vma] : as->vmas()) {
      if (!vma.IsFileBacked() || vma.huge) {
        continue;
      }
      uint64_t cached_index = UINT64_MAX;
      vma.file->ForEachCachedPage([&](uint64_t index, FrameId cached) {
        if (cached == frame) {
          cached_index = index;
        }
      });
      if (cached_index != UINT64_MAX) {
        uint64_t first = vma.FilePageIndex(vma.start);
        if (cached_index >= first && cached_index - first < vma.length() / kPageSize) {
          add(*as, vma.start + (cached_index - first) * kPageSize);
        }
        continue;
      }
      for (Vaddr va = vma.start; va < vma.end; va += kPageSize) {
        add(*as, va);
      }
    }
  }
}

// Every distinct slot mapping `frame`: the anon family walk, or the file's mappers.
void FindMappings(MfContext& ctx, FrameId frame, std::vector<reclaim::RmapLocation>* out) {
  if ((ctx.allocator->GetMeta(frame).flags & kPageFlagFile) != 0) {
    WalkFileMappings(ctx, frame, out);
  } else if (ctx.rmap != nullptr) {
    PtEpoch::ReadGuard epoch;
    ctx.rmap->Walk(frame, out);
  }
}

size_t CountFileCacheRefs(MfContext& ctx, FrameId frame) {
  size_t refs = 0;
  if (ctx.fs != nullptr) {
    ctx.fs->ForEachFile([&](const std::shared_ptr<MemFile>& file) {
      file->ForEachCachedPage([&](uint64_t, FrameId cached) {
        if (cached == frame) {
          ++refs;
        }
      });
    });
  }
  return refs;
}

// Pins the frame that holds `frame`'s references (its compound head, or the frame itself)
// with TryGetRef, the way the LRU isolates a frame. Read hits take no gate, so a read
// hit's unpin can drop a frame's last reference while we hold the exclusive gate; only a
// pinned frame's flags, stamp and mappings hold still, and TryGetRef never revives a count
// that already reached zero. Returns kInvalidFrame when the count is zero.
FrameId PinHolder(FrameAllocator& allocator, FrameId frame) {
  const PageMeta& meta = allocator.GetMeta(frame);
  FrameId holder = meta.IsCompoundTail() ? meta.compound_head : frame;
  return allocator.TryGetRef(holder) ? holder : kInvalidFrame;
}

// A frame whose evictor unmapped it but has not yet committed its write-out: the swap slot
// still serves the frame's bytes and the commit copies them after the evictor released the
// gate. Retiring the frame now could put dead bytes into the slot with no one told, so the
// offline reports busy (nothing mutated) and the caller retries once the pageout is done —
// by then the frame is an unmapped one on its way to the free list.
bool WriteOutPending(const MfContext& ctx, FrameId frame) {
  return ctx.swap != nullptr && ctx.swap->WriteOutPending(frame);
}

// The verdict on a frame PinHolder could not pin. A free frame is retired before anyone
// can allocate it (the take_page_off_buddy path). One still flagged allocated is being
// freed right now by its last unpin: busy, like a page in transit between owners.
MfResult OfflineUnpinned(FrameAllocator& allocator, FrameId frame, bool soft) {
  const PageMeta& meta = allocator.GetMeta(frame);
  if (meta.IsHwPoisoned()) {
    return MfResult::kAlreadyPoisoned;
  }
  if ((meta.flags & kPageFlagAllocated) != 0) {
    CountVm(VmCounter::k_mf_offline_failed);
    return MfResult::kFailedBusy;
  }
  allocator.MarkHwPoison(frame);
  if (soft) {
    CountVm(VmCounter::k_mf_soft_offline);
    ODF_TRACE(mf_soft_offline, 0, frame, 0);
  } else {
    CountVm(VmCounter::k_mf_hard_offline);
    ODF_TRACE(mf_hard_offline, 0, frame, 0);
  }
  return MfResult::kDelayed;
}

}  // namespace

MfResult HardOffline(MfContext& ctx, FrameId frame) {
  ODF_DCHECK(reclaim::MmGate::ThreadHoldsExclusive())
      << "memory failure without the MmGate held exclusive";
  FrameAllocator& allocator = *ctx.allocator;
  if (frame >= allocator.Stats().total_frames) {
    CountVm(VmCounter::k_mf_offline_failed);
    return MfResult::kFailedBusy;  // No such frame (the -ENXIO analog).
  }
  // Pin first: the pin keeps the per-location DecRefs below from freeing the frame
  // mid-operation, and keeps a read hit's unpin from freeing it under us. Refs on a
  // compound subpage live on the head; the marker and quarantine target the subpage.
  FrameId holder = PinHolder(allocator, frame);
  if (holder == kInvalidFrame) {
    return OfflineUnpinned(allocator, frame, /*soft=*/false);
  }
  PageMeta& meta = allocator.GetMeta(frame);
  if (meta.IsHwPoisoned()) {
    allocator.DecRef(holder);
    return MfResult::kAlreadyPoisoned;
  }
  if (WriteOutPending(ctx, frame)) {
    allocator.DecRef(holder);
    CountVm(VmCounter::k_mf_offline_failed);
    return MfResult::kFailedBusy;
  }
  if (meta.IsPageTable()) {
    // A dead page-table frame takes all translations below it with it; page-granularity
    // offline cannot contain that (the kernel panics on Reserved/slab pages for the same
    // reason). Refuse and leave containment to the operator.
    allocator.DecRef(holder);
    CountVm(VmCounter::k_mf_offline_failed);
    return MfResult::kFailedKernelPage;
  }
  if (meta.IsCompound() && !SplitAllHugeMappings(ctx, holder)) {
    allocator.DecRef(holder);
    CountVm(VmCounter::k_mf_offline_failed);
    return MfResult::kFailedBusy;
  }
  std::vector<reclaim::RmapLocation> locations;
  FindMappings(ctx, frame, &locations);
  bool is_file = (meta.flags & kPageFlagFile) != 0;
  // For a page-cache frame the contents are clean (the cache IS the backing store here, so
  // the relocation below plays the part of re-reading from disk): allocate the target
  // BEFORE mutating anything, so an allocation failure aborts with no trace.
  FrameId replacement = kInvalidFrame;
  if (is_file) {
    replacement = allocator.TryAllocate(kPageFlagFile | kPageFlagZeroFill);
    if (replacement == kInvalidFrame) {
      allocator.DecRef(holder);
      CountVm(VmCounter::k_mf_offline_failed);
      return MfResult::kFailedBusy;
    }
  }
  // The sticky poison flag: from here on the allocator will quarantine, not recycle.
  allocator.MarkHwPoison(frame);
  size_t relocated = 0;
  if (is_file) {
    const std::byte* src = allocator.PeekData(frame);
    if (src != nullptr) {
      std::memcpy(allocator.MaterializeForOverwrite(replacement), src, kPageSize);
    }
    relocated = RelocateFileCache(ctx, frame, replacement);
    if (relocated == 0) {
      // File-flagged but not cached anywhere (e.g. truncated while still mapped): there is
      // no backing copy to refault from, so the mappings get poison markers like anon.
      allocator.DecRef(replacement);
    } else {
      // The cache's reference moved: replacement's allocation ref became the cache's;
      // the old frame's cache ref is now ours to drop (the pin keeps it alive).
      for (size_t i = 0; i < relocated; ++i) {
        allocator.DecRef(frame);
      }
    }
  }
  // Broadcast the verdict into every mapping — ONE store per slot, which for a slot inside
  // a shared on-demand-fork PTE table retires the mapping for every sharer at once (§3.6).
  // Anon (and uncached-file) mappings get the sticky poison marker: the data is gone, and
  // only a process that touches the VA sees kHwPoison. Relocated file mappings are simply
  // cleared: the next touch refaults from the moved page cache, losing nothing.
  bool anon_style = !is_file || relocated == 0;
  for (const reclaim::RmapLocation& location : locations) {
    ODF_DCHECK(!location.huge) << "huge mapping survived the split pass";
    StoreEntry(location.slot, anon_style ? Pte::MakeHwPoison(frame) : Pte());
  }
  // Dead bytes never age on the LRU, even while a pin keeps the frame allocated.
  if (ctx.lru != nullptr) {
    ctx.lru->Erase(frame);
  }
  for (size_t i = 0; i < locations.size(); ++i) {
    allocator.DecRef(holder);  // One reference per cleared mapping.
  }
  if (ctx.flush_tlbs) {
    ctx.flush_tlbs();  // One coarse shootdown, while we still hold the gate.
  }
  allocator.DecRef(holder);  // Drop the pin; the last owner's free quarantines the frame.
  CountVm(VmCounter::k_mf_hard_offline);
  ODF_TRACE(mf_hard_offline, 0, frame, locations.size());
  return (locations.empty() && relocated == 0) ? MfResult::kDelayed : MfResult::kRecovered;
}

MfResult SoftOffline(MfContext& ctx, FrameId frame) {
  ODF_DCHECK(reclaim::MmGate::ThreadHoldsExclusive())
      << "soft offline without the MmGate held exclusive";
  FrameAllocator& allocator = *ctx.allocator;
  if (frame >= allocator.Stats().total_frames) {
    CountVm(VmCounter::k_mf_offline_failed);
    return MfResult::kFailedBusy;
  }
  // Pinned across the per-location DecRefs, and against a read hit's unpin (HardOffline).
  FrameId holder = PinHolder(allocator, frame);
  if (holder == kInvalidFrame) {
    return OfflineUnpinned(allocator, frame, /*soft=*/true);
  }
  PageMeta& meta = allocator.GetMeta(frame);
  if (meta.IsHwPoisoned()) {
    allocator.DecRef(holder);
    return MfResult::kAlreadyPoisoned;
  }
  if (WriteOutPending(ctx, frame)) {
    allocator.DecRef(holder);
    CountVm(VmCounter::k_mf_offline_failed);
    return MfResult::kFailedBusy;
  }
  if (meta.IsPageTable()) {
    allocator.DecRef(holder);
    CountVm(VmCounter::k_mf_offline_failed);
    return MfResult::kFailedKernelPage;
  }
  if (meta.IsCompound() && !SplitAllHugeMappings(ctx, holder)) {
    allocator.DecRef(holder);
    CountVm(VmCounter::k_mf_offline_failed);
    return MfResult::kFailedBusy;
  }
  std::vector<reclaim::RmapLocation> locations;
  FindMappings(ctx, frame, &locations);
  size_t cache_refs = CountFileCacheRefs(ctx, frame);
  if (locations.empty() && cache_refs == 0) {
    // Nothing maps or caches it; whoever holds it frees it into quarantine eventually.
    allocator.MarkHwPoison(frame);
    allocator.DecRef(holder);
    CountVm(VmCounter::k_mf_soft_offline);
    ODF_TRACE(mf_soft_offline, 0, frame, 0);
    return MfResult::kDelayed;
  }
  // Migration eligibility: every reference but our pin must be a mapping or cache slot we
  // are about to repoint — extra references mean someone (a read hit in flight, a
  // mid-rollback fork, a pinning test) holds the frame and migration would yank it out
  // from under them; the caller may retry. A split-huge tail's references aggregate on the
  // compound head where per-subpage attribution is impossible; the head pin keeps those
  // safe instead.
  if (holder == frame &&
      meta.refcount.load(std::memory_order_relaxed) != locations.size() + cache_refs + 1) {
    allocator.DecRef(holder);
    CountVm(VmCounter::k_mf_offline_failed);
    return MfResult::kFailedBusy;
  }
  // The ONLY allocation of the migration, taken before any mutation: a failure — genuine
  // ENOMEM or an injected frame_alloc verdict (src/fi) — aborts the whole operation with
  // nothing to roll back, the same all-or-nothing discipline as TryFork.
  uint8_t kind = static_cast<uint8_t>(meta.flags &
                                      (kPageFlagAnon | kPageFlagFile | kPageFlagZeroFill));
  FrameId replacement = allocator.TryAllocate(kind);
  if (replacement == kInvalidFrame) {
    allocator.DecRef(holder);
    CountVm(VmCounter::k_mf_offline_failed);
    return MfResult::kFailedBusy;
  }
  const std::byte* src = allocator.PeekData(frame);
  if (src != nullptr) {
    std::memcpy(allocator.MaterializeForOverwrite(replacement), src, kPageSize);
  }
  // The replacement inherits the source's place in the reverse map (same family, same
  // anon index — every repointed slot sits where the old stamp leads) and its LRU slot.
  // A split-huge tail carries no stamp of its own; its head's, offset, is the one to copy.
  if ((meta.flags & kPageFlagAnon) != 0) {
    const PageMeta& head_meta = allocator.GetMeta(holder);
    PageMeta& new_meta = allocator.GetMeta(replacement);
    new_meta.SetAnonStamp(head_meta.anon_family, head_meta.AnonIndex() + (frame - holder));
    if (ctx.lru != nullptr && new_meta.anon_family != 0) {
      ctx.lru->Insert(replacement, /*active=*/false);
    }
  }
  // Atomically repoint every mapping: ONE update per slot, so a slot inside a shared
  // on-demand-fork PTE table migrates the page for every sharer at once (§3.6). Flags
  // (writable / accessed / dirty) ride along unchanged.
  for (const reclaim::RmapLocation& location : locations) {
    ODF_DCHECK(!location.huge) << "huge mapping survived the split pass";
    Pte entry = LoadEntry(location.slot);
    ODF_DCHECK(entry.IsPresent() && entry.frame() == frame);
    allocator.IncRef(replacement);
    StoreEntry(location.slot, entry.WithFrame(replacement));
    allocator.DecRef(holder);
  }
  if (cache_refs > 0) {
    size_t relocated = RelocateFileCache(ctx, frame, replacement);
    ODF_DCHECK(relocated == cache_refs);
    // ReplaceFrame swapped reference ownership: give the cache refs on the replacement
    // (beyond the allocation ref it already absorbed conceptually) and drop the old ones.
    for (size_t i = 0; i < relocated; ++i) {
      allocator.IncRef(replacement);
      allocator.DecRef(frame);
    }
  }
  if (ctx.flush_tlbs) {
    ctx.flush_tlbs();
  }
  if (ctx.lru != nullptr) {
    ctx.lru->Erase(frame);         // Retiring: off the LRU even if a pin outlives us.
  }
  allocator.MarkHwPoison(frame);   // Sticky; the frees below divert to quarantine.
  allocator.DecRef(replacement);   // Drop the allocation ref; mappings + cache own it now.
  allocator.DecRef(holder);        // Drop the pin; the source retires.
  CountVm(VmCounter::k_mf_soft_offline);
  CountVm(VmCounter::k_mf_migrated_pages);
  ODF_TRACE(mf_soft_offline, 0, frame, locations.size());
  return MfResult::kMigrated;
}

#else  // !ODF_MEMORY_FAILURE_COMPILED

MfResult HardOffline(MfContext&, FrameId) { return MfResult::kNotSupported; }
MfResult SoftOffline(MfContext&, FrameId) { return MfResult::kNotSupported; }

#endif  // ODF_MEMORY_FAILURE_COMPILED

}  // namespace mf
}  // namespace odf
