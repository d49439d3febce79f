// Classic fork: the Linux copy_page_range analog. For every present last-level entry the
// kernel resolves the page's metadata (the compound_head() hotspot of Fig. 3), atomically
// increments the page reference count (the page_ref_inc() hotspot), write-protects private
// mappings in both parent and child, and writes the child entry.
#include <array>
#include <set>

#include "src/core/fork_internal.h"
#include "src/mm/fault.h"
#include "src/mm/range_ops.h"
#include "src/trace/metrics.h"
#include "src/trace/trace.h"
#include "src/util/log.h"

namespace odf {

namespace {

// Copies the present entries of one parent PTE table slice [lo, hi) into the child's table
// in three batched passes, charged to `profile` (when non-null) as the Fig. 3 breakdown:
// resolve metadata and collect compound heads (the compound_head() hotspot), batch-increment
// every refcount in one IncRefBatch call (page_ref_inc), then write the entries. References
// are taken before any child entry becomes visible, so the table never points at an
// under-referenced frame. There is no per-entry reverse-map work: the child joined the
// parent's anon family before the copy, and each copied entry sits at the VA its frame's
// anon index already names.
void CopyPteSlice(FrameAllocator& allocator, SwapSpace* swap, uint64_t* src, uint64_t* dst,
                  Vaddr lo, Vaddr hi, bool wrprotect, ForkProfile* profile) {
  // An unprofiled fork never reads the clock.
  uint64_t phase_start = profile != nullptr ? trace::NowNanos() : 0;
  auto charge = [&](uint64_t ForkProfile::*phase) {
    if (profile != nullptr) {
      const uint64_t now = trace::NowNanos();
      profile->*phase += now - phase_start;
      phase_start = now;
    }
  };
  std::array<uint64_t, kEntriesPerTable> indices;
  std::array<FrameId, kEntriesPerTable> heads;
  size_t present = 0;
  uint64_t swapped = 0;
  for (Vaddr va = lo; va < hi; va += kPageSize) {
    uint64_t index = TableIndex(va, PtLevel::kPte);
    Pte entry = LoadEntry(&src[index]);
    if (entry.IsSwap()) {
      // Swapped page: both processes reference the immutable slot (swap_map semantics).
      ODF_CHECK(swap != nullptr);
      swap->IncRef(entry.swap_slot());
      StoreEntry(&dst[index], entry);
      ++swapped;
      continue;
    }
    if (entry.IsHwPoison()) {
      // Fork propagates the poison marker, not the (dead) page: the child's VA is as lost
      // as the parent's, and markers are refcount-free so there is nothing to IncRef.
      StoreEntry(&dst[index], entry);
      continue;
    }
    if (!entry.IsPresent()) {
      continue;
    }
    FrameId frame = entry.frame();
    PageMeta& meta = allocator.GetMeta(frame);        // struct page lookup.
    heads[present] = ResolveCompoundHead(meta, frame);  // compound_head().
    indices[present] = index;
    ++present;
  }
  charge(&ForkProfile::meta_resolve_ns);

  // page_ref_inc for the whole table at one call site (docs/performance.md).
  allocator.IncRefBatch(std::span<const FrameId>(heads.data(), present));
  charge(&ForkProfile::refcount_ns);

  for (size_t i = 0; i < present; ++i) {
    uint64_t index = indices[i];
    Pte entry = LoadEntry(&src[index]);
    if (wrprotect && entry.IsWritable()) {
      Pte protected_entry = entry.WithoutFlag(kPteWritable);
      StoreEntry(&src[index], protected_entry);
      entry = protected_entry;
    }
    StoreEntry(&dst[index], entry);
  }
  charge(&ForkProfile::entry_copy_ns);

  // Batched: one add per table.
  CountVm(VmCounter::k_fork_pte_entries_copied, present + swapped);
}

}  // namespace

void CopyHugeEntry(FrameAllocator& allocator, uint64_t* parent_slot, uint64_t* child_slot) {
  Pte entry = LoadEntry(parent_slot);
  ODF_DCHECK(entry.IsPresent() && entry.IsHuge());
  FrameId head = entry.frame();
  allocator.IncRef(head);
  if (entry.IsWritable()) {
    Pte protected_entry = entry.WithoutFlag(kPteWritable);
    StoreEntry(parent_slot, protected_entry);
    entry = protected_entry;
  }
  StoreEntry(child_slot, entry);
  CountVm(VmCounter::k_fork_huge_entries_copied);
}

namespace {

// Fallback when the child's PTE table for `chunk` cannot be allocated: share the parent's
// table on-demand-fork style (zero allocation below the PMD) instead of failing the fork.
// The chunk then COWs lazily exactly like an ODF chunk would. Returns false when even the
// child's upper-level path to the PMD entry cannot be built.
bool ShareChunkFallback(AddressSpace& parent, AddressSpace& child, Vaddr chunk,
                        uint64_t* parent_pmd) {
  FrameAllocator& allocator = parent.allocator();
  uint64_t* child_pmd = child.walker().TryEnsureEntry(child.pgd(), chunk, PtLevel::kPmd);
  if (child_pmd == nullptr) {
    return false;
  }
  ODF_DCHECK(!LoadEntry(child_pmd).IsPresent());
  Pte pmd = LoadEntry(parent_pmd);
  FrameId table = pmd.frame();
  allocator.IncPtShare(table);
  Pte shared_entry = pmd.WithoutFlag(kPteWritable);
  StoreEntry(parent_pmd, shared_entry);
  StoreEntry(child_pmd, shared_entry);
  CountVm(VmCounter::k_pte_tables_shared);
  CountVm(VmCounter::k_fork_degrade_classic);
  ODF_TRACE(pte_table_shared, parent.owner_pid(), table);
  ODF_TRACE(fork_degrade_classic, parent.owner_pid(), chunk,
            static_cast<uint64_t>(DegradeFlavor::kClassicShareTable));
  return true;
}

}  // namespace

bool ClassicCopyPageTables(AddressSpace& parent, AddressSpace& child, ForkProfile* profile) {
  FrameAllocator& allocator = parent.allocator();
  Walker& parent_walker = parent.walker();
  Walker& child_walker = child.walker();
  // Chunks that degraded to table sharing: later VMAs overlapping the same 2 MiB chunk are
  // already fully covered by the shared table and must not copy into it.
  std::set<Vaddr> shared_chunks;

  for (const auto& [start, vma] : parent.vmas()) {
    bool wrprotect = vma.kind != VmaKind::kFileShared;
    for (Vaddr chunk = EntryBase(vma.start, PtLevel::kPmd); chunk < vma.end;
         chunk += kPteTableSpan) {
      if (shared_chunks.count(chunk) != 0) {
        continue;
      }
      // If an earlier kOnDemandHuge fork left this PUD span's PMD table shared, classic
      // fork must not mutate the shared copy: dedicate it for the parent first.
      if (!EnsureExclusivePmdPath(parent, chunk, AllocPolicy::kTry)) {
        return false;
      }
      uint64_t* parent_pmd = parent_walker.FindEntry(parent.pgd(), chunk, PtLevel::kPmd);
      if (parent_pmd == nullptr) {
        continue;
      }
      Pte pmd = LoadEntry(parent_pmd);
      if (!pmd.IsPresent()) {
        continue;
      }

      if (pmd.IsHuge()) {
        uint64_t* child_pmd =
            child_walker.TryEnsureEntry(child.pgd(), chunk, PtLevel::kPmd);
        if (child_pmd == nullptr) {
          return false;
        }
        if (!LoadEntry(child_pmd).IsPresent()) {
          CopyHugeEntry(allocator, parent_pmd, child_pmd);
        }
        continue;
      }

      // If the parent is itself sharing this table from an earlier on-demand-fork, classic
      // fork must not mutate the shared copy on other processes' behalf: dedicate first.
      if (allocator.GetMeta(pmd.frame()).pt_share_count.load(std::memory_order_acquire) > 1) {
        if (DedicatePteTable(parent, chunk, parent_pmd, AllocPolicy::kTry) ==
            kInvalidFrame) {
          return false;
        }
        pmd = LoadEntry(parent_pmd);
      }
      uint64_t* src = allocator.TableEntries(pmd.frame());

      Vaddr lo = std::max(chunk, vma.start);
      Vaddr hi = std::min(chunk + kPteTableSpan, vma.end);

      const uint64_t alloc_start = profile != nullptr ? trace::NowNanos() : 0;
      uint64_t* first_child_slot =
          child_walker.TryEnsureEntry(child.pgd(), lo, PtLevel::kPte);
      if (first_child_slot == nullptr) {
        // Could not build the child's copy of this chunk — degrade to sharing the parent's
        // table (the on-demand-fork mechanism as a zero-allocation fallback).
        if (!ShareChunkFallback(parent, child, chunk, parent_pmd)) {
          return false;
        }
        shared_chunks.insert(chunk);
        continue;
      }
      uint64_t* dst = first_child_slot - TableIndex(lo, PtLevel::kPte);
      if (profile != nullptr) {
        profile->table_alloc_ns += trace::NowNanos() - alloc_start;
      }
      CopyPteSlice(allocator, parent.swap_space(), src, dst, lo, hi, wrprotect, profile);
    }
  }
  return true;
}

}  // namespace odf
