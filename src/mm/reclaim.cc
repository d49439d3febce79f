#include "src/mm/reclaim.h"

#include <algorithm>

#include "src/mm/range_ops.h"
#include "src/trace/metrics.h"
#include "src/trace/trace.h"
#include "src/util/log.h"

namespace odf {

uint64_t ClockReclaimAddressSpace(AddressSpace& as, SwapSpace& swap, uint64_t want) {
  FrameAllocator& allocator = as.allocator();
  Walker& walker = as.walker();
  uint64_t freed = 0;

  for (const auto& [start, vma] : as.vmas()) {
    if (vma.kind != VmaKind::kAnonPrivate || vma.huge || freed >= want) {
      continue;
    }
    for (Vaddr chunk = EntryBase(vma.start, PtLevel::kPmd); chunk < vma.end && freed < want;
         chunk += kPteTableSpan) {
      // Skip spans reachable through shared tables (no rmap to fix other sharers' views).
      uint64_t* pud_slot = walker.FindEntry(as.pgd(), chunk, PtLevel::kPud);
      if (pud_slot == nullptr) {
        continue;
      }
      Pte pud = LoadEntry(pud_slot);
      if (!pud.IsPresent() ||
          allocator.GetMeta(pud.frame()).pt_share_count.load(std::memory_order_acquire) > 1) {
        continue;
      }
      uint64_t* pmd_slot = walker.FindEntry(as.pgd(), chunk, PtLevel::kPmd);
      if (pmd_slot == nullptr) {
        continue;
      }
      Pte pmd = LoadEntry(pmd_slot);
      if (!pmd.IsPresent() || pmd.IsHuge() ||
          allocator.GetMeta(pmd.frame()).pt_share_count.load(std::memory_order_acquire) > 1) {
        continue;
      }

      uint64_t* entries = allocator.TableEntries(pmd.frame());
      Vaddr lo = std::max(chunk, vma.start);
      Vaddr hi = std::min(chunk + kPteTableSpan, vma.end);
      for (Vaddr va = lo; va < hi && freed < want; va += kPageSize) {
        uint64_t* slot = &entries[TableIndex(va, PtLevel::kPte)];
        Pte entry = LoadEntry(slot);
        if (!entry.IsPresent()) {
          continue;
        }
        FrameId frame = entry.frame();
        PageMeta& meta = allocator.GetMeta(frame);
        if (meta.IsCompound() || (meta.flags & kPageFlagAnon) == 0 ||
            meta.refcount.load(std::memory_order_acquire) != 1) {
          continue;
        }
        if (entry.IsAccessed()) {
          // Second chance: clear the bit; the page is a victim on the next pass unless the
          // process touches it again (the walker will re-set the bit).
          StoreEntry(slot, entry.WithoutFlag(kPteAccessed));
          as.tlb().InvalidatePage(va);
          continue;
        }
        const std::byte* data = allocator.PeekData(frame);
        if (data == nullptr) {
          // Never materialised: logically zero. Drop it; a refault demand-zeroes.
          StoreEntry(slot, Pte());
        } else {
          // odf-lint: allow(direct-writeback) — legacy clock reclaimer, kept for unit tests.
          SwapSlot swap_slot = swap.TryWriteOut(data);
          if (swap_slot == kInvalidSwapSlot) {
            // Device write failed (injected I/O error): keep the page resident and move on,
            // like the kernel re-activating a page whose writeback failed.
            continue;
          }
          StoreEntry(slot, Pte::MakeSwap(swap_slot));
        }
        // Gen-before-free (mm_locks.h): bump the shard generation while the entry's
        // frame reference is still held, so a lock-free reader that pinned the frame
        // before the rewrite fails its generation recheck instead of keeping a frame
        // that the DecRef below may free and recycle.
        as.tlb().InvalidatePage(va);
        allocator.DecRef(frame);
        ++as.stats().pages_swapped_out;
        CountVm(VmCounter::k_pgswapout);
        ODF_TRACE(page_swap_out, as.owner_pid(), va);
        ++freed;
      }
    }
  }
  return freed;
}

}  // namespace odf
