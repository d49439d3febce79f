#include "src/mm/fault.h"

#include <cstring>

#include "src/mm/range_ops.h"
#include "src/reclaim/lru.h"
#include "src/reclaim/rmap.h"
#include "src/trace/metrics.h"
#include "src/trace/trace.h"
#include "src/util/log.h"

namespace odf {

namespace {

// Records the kOom verdict: the address space is consistent, the access simply could not be
// served. Callers (Process::AccessMemory, the torture harness) may retry after freeing
// memory or disarming injection.
FaultResult FaultOom([[maybe_unused]] AddressSpace& as, [[maybe_unused]] Vaddr va) {
  CountVm(VmCounter::k_pgfault_oom);
  ODF_TRACE(fault_oom, as.owner_pid(), va);
  return FaultResult::kOom;
}

// Installs the demand-paged mapping for a not-present PTE (anonymous zero page or page-cache
// page). The caller guarantees `slot` lives in a table exclusive to this address space
// (shared tables are dedicated before any install — see HandleFault). Returns false when
// the anonymous frame cannot be allocated (nothing installed). The page-cache path performs
// no frame allocation of its own and cannot fail.
bool DemandInstall(AddressSpace& as, VmArea& vma, Vaddr va, uint64_t* slot) {
  FrameAllocator& allocator = as.allocator();
  // Poison markers are filtered by every caller (HandleFault, PopulateRange): installing
  // over one would resurrect a VA whose data died in a memory error.
  ODF_DCHECK(!LoadEntry(slot).IsHwPoison());
  static LatencyHistogram& histogram =
      MetricsRegistry::Global().RegisterHistogram("fault_demand_zero_ns");
  trace::LatencySample latency(histogram);
  uint64_t flags = kPtePresent | kPteUser | kPteAccessed;
  FrameId frame;
  if (vma.kind == VmaKind::kAnonPrivate) {
    frame = allocator.TryAllocate(kPageFlagAnon | kPageFlagZeroFill);
    if (frame == kInvalidFrame) {
      return false;
    }
    if (vma.IsWritable()) {
      flags |= kPteWritable;
    }
    as.AddNewAnonRmap(frame, vma, va);
    CountVm(VmCounter::k_pgfault_demand_zero);
    [[maybe_unused]] const uint64_t ns = latency.Stop();
    ODF_TRACE(fault_demand_zero, as.owner_pid(), va, ns);
  } else {
    FrameId cache_frame = vma.file->GetPage(vma.FilePageIndex(va));
    allocator.IncRef(cache_frame);
    frame = cache_frame;
    if (vma.kind == VmaKind::kFileShared && vma.IsWritable()) {
      flags |= kPteWritable;
    }
    // Private file pages stay read-only: the first write COWs them off the page cache.
    CountVm(VmCounter::k_pgfault_file);
    ODF_TRACE(fault_file, as.owner_pid(), va);
  }
  StoreEntry(slot, Pte::Make(frame, flags));
  return true;
}

// Write to a present but non-writable 4 KiB PTE: either re-enable the write bit (sole owner
// or shared file mapping) or copy the page (COW). Returns false when the copy frame cannot
// be allocated (the entry is left write-protected and intact).
bool DataCowFault(AddressSpace& as, VmArea& vma, Vaddr va, uint64_t* slot) {
  FrameAllocator& allocator = as.allocator();
  static LatencyHistogram& histogram =
      MetricsRegistry::Global().RegisterHistogram("fault_cow_page_ns");
  trace::LatencySample latency(histogram);
  Pte entry = LoadEntry(slot);
  ODF_DCHECK(entry.IsPresent() && !entry.IsWritable());
  FrameId frame = entry.frame();
  PageMeta& meta = allocator.GetMeta(frame);

  if (vma.kind == VmaKind::kFileShared) {
    // Shared mappings never COW; the write permission was only missing transiently (e.g.
    // after a PTE-table dedication write-protected every entry).
    StoreEntry(slot, entry.WithFlag(kPteWritable | kPteDirty));
    as.locks().InvalidatePage(va);
    CountVm(VmCounter::k_pgfault_cow_reuse);
    ODF_TRACE(fault_cow_reuse, as.owner_pid(), va);
    return true;
  }

  uint32_t refs = meta.refcount.load(std::memory_order_acquire);
  if (refs == 1) {
    // Sole owner — reuse the page in place. (A frame still owned by the page cache always
    // has the cache's reference, so refs == 1 implies it is exclusively ours.)
    StoreEntry(slot, entry.WithFlag(kPteWritable | kPteDirty));
    as.locks().InvalidatePage(va);
    CountVm(VmCounter::k_pgfault_cow_reuse);
    ODF_TRACE(fault_cow_reuse, as.owner_pid(), va);
    return true;
  }

  FrameId copy = allocator.TryAllocate(kPageFlagAnon);
  if (copy == kInvalidFrame) {
    return false;
  }
  if (LoadEntry(slot).raw() != entry.raw()) {
    // TryAllocate under a frame limit runs direct reclaim inline, and reclaim may have
    // evicted this very page through the rmap while we held the pre-allocation snapshot
    // (frame id, refcount — both stale now). Real kernels hold the page
    // locked across the copy; we drop the unused frame and re-translate instead: a
    // swapped-out page takes the swap-in path on the next round of the fault loop.
    allocator.DecRef(copy);
    return true;
  }
  const std::byte* src = allocator.PeekData(frame);
  if (src != nullptr) {
    std::byte* dst = allocator.MaterializeForOverwrite(copy);
    std::memcpy(dst, src, kPageSize);
  }
  // else: the source was never materialised (logical zero) — the copy stays lazy-zero.
  as.AddNewAnonRmap(copy, vma, va);
  StoreEntry(slot, Pte::Make(copy, kPtePresent | kPteWritable | kPteUser | kPteAccessed |
                                       kPteDirty));
  as.locks().InvalidatePage(va);  // Gen-before-free: bump the shard before the old frame drops.
  PutMappedPage(allocator, entry, /*huge=*/false);
  CountVm(VmCounter::k_pgfault_cow_page);
  [[maybe_unused]] const uint64_t ns = latency.Stop();
  ODF_TRACE(fault_cow_page, as.owner_pid(), va, ns);
  return true;
}

// Demand-populate a huge (2 MiB) mapping at the PMD level. Returns false when the compound
// cannot be allocated; the caller degrades to 4 KiB demand paging for this chunk.
bool HugeDemandInstall(AddressSpace& as, VmArea& vma, Vaddr chunk_base, uint64_t* pmd_slot) {
  FrameAllocator& allocator = as.allocator();
  ODF_DCHECK(vma.kind == VmaKind::kAnonPrivate) << "huge mappings are anonymous-only";
  FrameId head = allocator.TryAllocateCompound(kPageFlagAnon | kPageFlagZeroFill);
  if (head == kInvalidFrame) {
    return false;
  }
  uint64_t flags = kPtePresent | kPteUser | kPteAccessed | kPteHuge;
  if (vma.IsWritable()) {
    flags |= kPteWritable;
  }
  as.AddNewAnonRmap(head, vma, chunk_base);
  StoreEntry(pmd_slot, Pte::Make(head, flags));
  CountVm(VmCounter::k_pgfault_demand_zero);
  ODF_TRACE(fault_demand_zero, as.owner_pid(), chunk_base, /*ns=*/0, /*huge=*/1);
  return true;
}

}  // namespace

// Fallback when a huge COW cannot allocate a 2 MiB compound: split the mapping into a PTE
// table whose 512 entries point at the shared compound's tail frames, write-protected, so
// each 4 KiB page COWs individually (one frame at a time instead of 512 at once). This is
// the memory-pressure half of the paper's robustness story (§4): a fork-then-write workload
// keeps making progress page by page even when no contiguous 2 MiB run can be carved.
// Exported (fault.h) because memory-failure handling reuses it: offlining one 4 KiB subpage
// of a huge mapping splits the mapping first, then poisons only the dead tail.
bool SplitHugeMapping(AddressSpace& as, Vaddr chunk_base, uint64_t* pmd_slot) {
  FrameAllocator& allocator = as.allocator();
  Pte entry = LoadEntry(pmd_slot);
  ODF_DCHECK(entry.IsPresent() && entry.IsHuge());
  FrameId head = entry.frame();

  FrameId table = TryAllocPageTable(allocator);
  if (table == kInvalidFrame) {
    return false;
  }
  if (LoadEntry(pmd_slot).raw() != entry.raw()) {
    // Direct reclaim inside the table allocation changed the mapping under us (see
    // DataCowFault); drop the spare table and let the fault loop re-translate.
    allocator.DecRef(table);
    return true;
  }
  constexpr FrameId kCompoundFrames = 1u << kHugePageOrder;
  // Each 4 KiB entry takes its own reference on the compound (tails resolve to the head):
  // +512 for the new entries, -1 below for the huge PMD entry being replaced.
  allocator.AddRefs(head, kCompoundFrames);
  uint64_t* entries = allocator.TableEntries(table);
  // The tails need no reverse-map stamp of their own: each resolves through the head's
  // (family, index + tail offset), which is exactly where its new PTE sits.
  uint64_t flags = kPtePresent | kPteUser | (entry.flags() & kPteAccessed);
  for (FrameId i = 0; i < kCompoundFrames; ++i) {
    StoreEntry(&entries[i], Pte::Make(head + i, flags));
  }
  StoreEntry(pmd_slot, Pte::Make(table, kPtePresent | kPteWritable | kPteUser |
                                            (entry.flags() & kPteAccessed)));
  as.locks().InvalidateRange(chunk_base, chunk_base + kHugePageSize);  // Gen-before-free.
  PutMappedPage(allocator, entry, /*huge=*/true);
  CountVm(VmCounter::k_fork_degrade_classic);
  ODF_TRACE(fork_degrade_classic, as.owner_pid(), chunk_base,
            static_cast<uint64_t>(DegradeFlavor::kHugeCowSplit));
  return true;
}

namespace {

// Write to a present but non-writable huge PMD entry: COW the whole 2 MiB page. This is the
// 512x fault-amplification cost the paper attributes to huge pages (§2.3, Table 1).
// When the compound copy cannot be allocated, degrades by splitting the mapping into 4 KiB
// COW entries (SplitHugeMapping); returns false only when even the split's one-table
// allocation fails.
bool HugeCowFault(AddressSpace& as, const VmArea& vma, Vaddr chunk_base, uint64_t* pmd_slot) {
  FrameAllocator& allocator = as.allocator();
  static LatencyHistogram& histogram =
      MetricsRegistry::Global().RegisterHistogram("fault_cow_huge_ns");
  trace::LatencySample latency(histogram);
  Pte entry = LoadEntry(pmd_slot);
  FrameId head = entry.frame();
  PageMeta& meta = allocator.GetMeta(head);

  if (meta.refcount.load(std::memory_order_acquire) == 1) {
    StoreEntry(pmd_slot, entry.WithFlag(kPteWritable | kPteDirty));
    as.locks().InvalidateRange(chunk_base, chunk_base + kHugePageSize);
    CountVm(VmCounter::k_pgfault_cow_reuse);
    ODF_TRACE(fault_cow_reuse, as.owner_pid(), chunk_base, /*ns=*/0, /*huge=*/1);
    return true;
  }

  FrameId copy = allocator.TryAllocateCompound(kPageFlagAnon);
  if (copy == kInvalidFrame) {
    return SplitHugeMapping(as, chunk_base, pmd_slot);
  }
  if (LoadEntry(pmd_slot).raw() != entry.raw()) {
    // Direct reclaim inside the compound allocation changed the mapping under us (see
    // DataCowFault); drop the unused compound and let the fault loop re-translate.
    allocator.DecRef(copy);
    return true;
  }
  const std::byte* src = allocator.PeekData(head);
  if (src != nullptr) {
    std::byte* dst = allocator.MaterializeForOverwrite(copy);
    std::memcpy(dst, src, kHugePageSize);
  }
  as.AddNewAnonRmap(copy, vma, chunk_base);
  StoreEntry(pmd_slot, Pte::Make(copy, kPtePresent | kPteWritable | kPteUser | kPteAccessed |
                                           kPteDirty | kPteHuge));
  as.locks().InvalidateRange(chunk_base, chunk_base + kHugePageSize);  // Gen-before-free.
  PutMappedPage(allocator, entry, /*huge=*/true);
  CountVm(VmCounter::k_pgfault_cow_huge);
  [[maybe_unused]] const uint64_t ns = latency.Stop();
  ODF_TRACE(fault_cow_huge, as.owner_pid(), chunk_base, ns);
  return true;
}

}  // namespace

FaultResult HandleFault(AddressSpace& as, Vaddr va, AccessType access, FrameId* frame_out) {
  Walker& walker = as.walker();
  // Each iteration removes one fault cause; the chain is bounded (table creation -> shared
  // table COW -> demand install -> data COW -> success), with slack for the degrade paths
  // (a huge split adds one round). A chain that fails to converge is reported as
  // kRetryExhausted rather than aborting the machine.
  constexpr int kFaultRetryBudget = 16;
  for (int attempt = 0; attempt < kFaultRetryBudget; ++attempt) {
    Translation t = walker.Translate(as.pgd(), va, access);
    if (t.status == TranslateStatus::kOk) {
      if (frame_out != nullptr) {
        *frame_out = t.frame;
      }
      return FaultResult::kHandled;
    }

    VmArea* vma = as.FindVma(va);
    if (vma == nullptr) {
      CountVm(VmCounter::k_pgfault_segv);
      ODF_TRACE(fault_segv, as.owner_pid(), va, /*prot=*/0);
      return FaultResult::kSegvUnmapped;
    }
    uint32_t needed = access == AccessType::kWrite ? kProtWrite : kProtRead;
    if ((vma->prot & needed) == 0) {
      CountVm(VmCounter::k_pgfault_segv);
      ODF_TRACE(fault_segv, as.owner_pid(), va, /*prot=*/1);
      return FaultResult::kSegvProt;
    }

    if (t.status == TranslateStatus::kNotWritable) {
      if (t.fault_level == PtLevel::kPud) {
        // §4 extension: the PUD write-protection marks a shared PMD table (kOnDemandHuge).
        uint64_t* pud_slot = walker.FindEntry(as.pgd(), va, PtLevel::kPud);
        ODF_CHECK(pud_slot != nullptr);
        if (DedicatePmdTable(as, EntryBase(va, PtLevel::kPud), pud_slot,
                             AllocPolicy::kTry) == kInvalidFrame) {
          return FaultOom(as, va);
        }
        continue;
      }
      if (t.fault_level == PtLevel::kPmd) {
        uint64_t* pmd_slot = walker.FindEntry(as.pgd(), va, PtLevel::kPmd);
        ODF_CHECK(pmd_slot != nullptr);
        Pte pmd = LoadEntry(pmd_slot);
        Vaddr chunk_base = EntryBase(va, PtLevel::kPmd);
        if (pmd.IsHuge()) {
          if (!HugeCowFault(as, *vma, chunk_base, pmd_slot)) {
            return FaultOom(as, va);
          }
        } else {
          // The on-demand-fork path: the PMD write-protection marks a shared PTE table.
          if (DedicatePteTable(as, chunk_base, pmd_slot, AllocPolicy::kTry) ==
              kInvalidFrame) {
            return FaultOom(as, va);
          }
        }
        continue;
      }
      ODF_CHECK(t.fault_level == PtLevel::kPte)
          << "write-protection fault at unexpected level "
          << static_cast<int>(t.fault_level);
      uint64_t* slot = walker.FindEntry(as.pgd(), va, PtLevel::kPte);
      ODF_CHECK(slot != nullptr);
      if (!DataCowFault(as, *vma, va, slot)) {
        return FaultOom(as, va);
      }
      continue;
    }

    // Not present somewhere along the walk. Installing an entry MUTATES the table it lands
    // in, so any shared table on the path must be dedicated first: sharers' VMA layouts can
    // diverge after fork, and an entry installed into a shared table would silently appear
    // in every sharer's address space. (ODF's "fast read" applies to PRESENT pages only.)
    if (!EnsureExclusivePmdPath(as, va, AllocPolicy::kTry)) {
      return FaultOom(as, va);
    }
    if (vma->huge) {
      uint64_t* pmd_slot = walker.TryEnsureEntry(as.pgd(), va, PtLevel::kPmd);
      if (pmd_slot == nullptr) {
        return FaultOom(as, va);
      }
      Pte pmd = LoadEntry(pmd_slot);
      if (pmd.IsPresent() && pmd.IsHuge()) {
        // Present huge entry but the walk still faulted: the write-protection branch above
        // resolves it next round.
        continue;
      }
      if (!pmd.IsPresent()) {
        if (HugeDemandInstall(as, *vma, EntryBase(va, PtLevel::kPmd), pmd_slot)) {
          continue;
        }
        // No 2 MiB compound available: degrade this chunk to 4 KiB demand paging (the
        // split-mapping analog of the kernel falling back from THP to base pages).
        CountVm(VmCounter::k_fork_degrade_classic);
        ODF_TRACE(fork_degrade_classic, as.owner_pid(), va,
                  static_cast<uint64_t>(DegradeFlavor::kHugeDemand4k));
      }
      // A present non-huge PMD under a huge VMA is a previously split/degraded chunk:
      // fall through to the 4 KiB path.
    }
    uint64_t* pmd_probe = walker.FindEntry(as.pgd(), va, PtLevel::kPmd);
    if (pmd_probe != nullptr) {
      Pte pmd_entry = LoadEntry(pmd_probe);
      if (pmd_entry.IsPresent() && !pmd_entry.IsHuge() &&
          as.allocator().GetMeta(pmd_entry.frame())
                  .pt_share_count.load(std::memory_order_acquire) > 1) {
        if (DedicatePteTable(as, EntryBase(va, PtLevel::kPmd), pmd_probe,
                             AllocPolicy::kTry) == kInvalidFrame) {
          return FaultOom(as, va);
        }
      }
    }
    uint64_t* slot = walker.TryEnsureEntry(as.pgd(), va, PtLevel::kPte);
    if (slot == nullptr) {
      return FaultOom(as, va);
    }
    Pte entry = LoadEntry(slot);
    if (entry.IsHwPoison()) {
      // The page at this VA was lost to a memory error: the marker is sticky (no retry can
      // bring the bytes back) and the verdict is delivered only to processes that actually
      // touch the dead VA — everyone else keeps running (docs/memory-failure.md).
      CountVm(VmCounter::k_mf_sigbus);
      ODF_TRACE(mf_sigbus, as.owner_pid(), va, entry.frame());
      return FaultResult::kHwPoison;
    }
    if (entry.IsSwap()) {
      // Swap-in: bring the page back from the swap device into a fresh private frame. A
      // slot whose write-out the evictor has not committed yet serves the evicted frame's
      // bytes instead (SwapSpace::ReadIn); the slot reference dropped below may be its
      // last, and the commit then recycles the slot.
      SwapSpace* swap = as.swap_space();
      ODF_CHECK(swap != nullptr);
      FrameId frame = as.allocator().TryAllocate(kPageFlagAnon);
      if (frame == kInvalidFrame) {
        return FaultOom(as, va);
      }
      std::byte* dst = as.allocator().MaterializeForOverwrite(frame);
      if (!swap->TryReadIn(entry.swap_slot(), dst)) {
        // Device read failed: drop only the fresh frame. The swap entry and the slot's
        // reference survive untouched, so a retry after the transient error succeeds.
        as.allocator().DecRef(frame);
        return FaultResult::kSwapIoError;
      }
      swap->DecRef(entry.swap_slot());
      uint64_t flags = kPtePresent | kPteUser | kPteAccessed;
      if (vma->IsWritable()) {
        flags |= kPteWritable;
      }
      // Workingset refault: a page evicted too recently starts on the active list instead
      // of walking up from inactive again.
      bool refault = as.anon_family() != nullptr &&
                     as.rmap()->lru()->NoteRefault(entry.swap_slot());
      as.AddNewAnonRmap(frame, *vma, va, /*lru_active=*/refault);
      StoreEntry(slot, Pte::Make(frame, flags));
      CountVm(VmCounter::k_pgfault_swap_in);
      ODF_TRACE(fault_swap_in, as.owner_pid(), va, entry.swap_slot());
      continue;
    }
    if (!entry.IsPresent()) {
      if (!DemandInstall(as, *vma, va, slot)) {
        return FaultOom(as, va);
      }
    }
    // Present but blocked: loop back; the NotWritable branch will resolve it.
  }
  // The chain did not converge within the budget. This is a bug indicator, but aborting
  // would take the whole simulated machine down; report it as a typed, recoverable error.
  CountVm(VmCounter::k_pgfault_retry_exhausted);
  ODF_TRACE(fault_oom, as.owner_pid(), va, /*retry_exhausted=*/1);
  return FaultResult::kRetryExhausted;
}

}  // namespace odf
