#include "src/mm/range_ops.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <span>

#include "src/debug/lockdep.h"
#include "src/pt/mm_locks.h"
#include "src/trace/metrics.h"
#include "src/trace/trace.h"
#include "src/util/log.h"

namespace odf {

namespace {

// Number of split locks; hashing table frames across a small array mirrors the kernel's
// per-table page locks without per-frame storage.
constexpr size_t kSplitLockCount = 64;

// All 64 split locks are one lockdep class; no code path nests two of them (dedicate
// releases the lock before any further acquisition), which the validator enforces.
debug::LockClass g_pt_split_lock_class("mm::PtSplitLock");

bool TableIsEmpty(FrameAllocator& allocator, FrameId table) {
  const uint64_t* entries = allocator.TableEntries(table);
  for (uint64_t i = 0; i < kEntriesPerTable; ++i) {
    if (!LoadEntry(&entries[i]).IsNone()) {
      return false;
    }
  }
  return true;
}

// Allocates the private copy a table dedicate may need into `*spare`, before the split
// lock. None is needed when `shared` already has a single sharer: that count cannot rise
// while the caller holds its address space's gate and shard lock, since only this address
// space's own fork could share the table again, so the recheck under the split lock is
// then certain to take the fixup path. Returns false when a kTry allocation failed.
bool SpareForDedicate(FrameAllocator& allocator, FrameId shared, AllocPolicy policy,
                      FrameId* spare) {
  if (allocator.GetMeta(shared).pt_share_count.load(std::memory_order_acquire) == 1) {
    *spare = kInvalidFrame;
    return true;
  }
  *spare = policy == AllocPolicy::kTry ? TryAllocPageTable(allocator)
                                       : AllocPageTable(allocator);
  return *spare != kInvalidFrame;
}

void FreeSpare(FrameAllocator& allocator, FrameId spare) {
  if (spare != kInvalidFrame) {
    allocator.DecRef(spare);
  }
}

}  // namespace

util::Mutex& PtSplitLock(FrameId table) {
  static std::array<util::Mutex, kSplitLockCount> locks;
  return locks[table % kSplitLockCount];
}

void PutMappedPage(FrameAllocator& allocator, Pte entry, bool huge) {
  FrameId frame = entry.frame();
  if (huge) {
    ODF_DCHECK(allocator.GetMeta(frame).IsCompoundHead());
    allocator.DecRef(frame);
    return;
  }
  PageMeta& meta = allocator.GetMeta(frame);
  allocator.DecRef(ResolveCompoundHead(meta, frame));
}

bool DropPteTableReference(FrameAllocator& allocator, SwapSpace* swap, FrameId table) {
  if (allocator.DecPtShare(table) != 1) {
    return false;
  }
  // Last reference: release the per-page references this table holds on behalf of all its
  // (former) sharers, then free the table frame itself. Swap entries release their slot.
  // The per-page drops go through DecRefBatch so the whole table costs one shared-pool lock
  // round-trip, not one per entry that hits refcount zero (docs/performance.md). This loop
  // touches only the entries: DecRefBatch resolves compound tails in the same metadata
  // visit as the refcount drop.
  uint64_t* entries = allocator.TableEntries(table);
  std::array<FrameId, kEntriesPerTable> frames;
  size_t mapped = 0;
  for (uint64_t i = 0; i < kEntriesPerTable; ++i) {
    Pte entry = LoadEntry(&entries[i]);
    if (entry.IsPresent()) {
      frames[mapped++] = entry.frame();
      StoreEntry(&entries[i], Pte());
    } else if (entry.IsSwap()) {
      ODF_CHECK(swap != nullptr) << "swap entry without a swap device";
      swap->DecRef(entry.swap_slot());
      StoreEntry(&entries[i], Pte());
    } else if (entry.IsHwPoison()) {
      // Poison markers carry no references (the quarantine pin is the allocator's); the
      // tombstone simply dies with the table.
      StoreEntry(&entries[i], Pte());
    }
  }
  // The caller bumped every covered shard generation before dropping its last table
  // share (ZapRange's "unlink, bump, THEN drop" ordering); by the time this runs no
  // lock-free reader can pass its generation recheck.
  // odf-lint: allow(gen-before-free)
  allocator.DecRefBatch(std::span<const FrameId>(frames.data(), mapped));
  // The table was published (linked into at least one live tree), so a lock-free walker
  // may still be reading its (now empty) entries: defer the frame free past the grace
  // period. The caller drains the epoch before its leak checks can observe the deferral.
  PtEpoch::Global().Retire(&allocator, table);
  return true;
}

bool DropPmdTableReference(FrameAllocator& allocator, SwapSpace* swap, FrameId table) {
  if (allocator.DecPtShare(table) != 1) {
    return false;
  }
  // Last reference: release whatever the PMD table maps — huge pages directly (batched),
  // PTE tables transitively (each of which batch-puts its own pages at zero).
  uint64_t* entries = allocator.TableEntries(table);
  std::array<FrameId, kEntriesPerTable> huge_heads;
  size_t huge_count = 0;
  for (uint64_t i = 0; i < kEntriesPerTable; ++i) {
    Pte entry = LoadEntry(&entries[i]);
    if (!entry.IsPresent()) {
      continue;
    }
    if (entry.IsHuge()) {
      ODF_DCHECK(allocator.GetMeta(entry.frame()).IsCompoundHead());
      huge_heads[huge_count++] = entry.frame();
    } else {
      DropPteTableReference(allocator, swap, entry.frame());
    }
    StoreEntry(&entries[i], Pte());
  }
  // Same contract as DropPteTableReference: the caller's range invalidation already
  // bumped the covered generations.
  // odf-lint: allow(gen-before-free)
  allocator.DecRefBatch(std::span<const FrameId>(huge_heads.data(), huge_count));
  PtEpoch::Global().Retire(&allocator, table);  // Published table: epoch-deferred free.
  return true;
}

FrameId DedicatePmdTable(AddressSpace& as, Vaddr pud_span_base, uint64_t* pud_slot,
                         AllocPolicy policy) {
  FrameAllocator& allocator = as.allocator();
  // The deferred cost of the on-demand table COW path (paper Table 1).
  static LatencyHistogram& histogram =
      MetricsRegistry::Global().RegisterHistogram("fault_cow_pmd_table_ns");
  trace::LatencySample latency(histogram);
  Pte pud = LoadEntry(pud_slot);
  ODF_DCHECK(pud.IsPresent() && !pud.IsHuge());
  FrameId shared = pud.frame();

  // Allocate the private table BEFORE taking the split lock: a NOFAIL allocation may block
  // in direct reclaim (which takes the MmGate exclusively), and no lock may be held at a
  // quota-wait point (src/reclaim/mm_gate.h). A table whose other sharers are already gone
  // needs none (see SpareForDedicate).
  FrameId dedicated = kInvalidFrame;
  if (!SpareForDedicate(allocator, shared, policy, &dedicated)) {
    // kTry only: nothing has been mutated; the caller unwinds or degrades.
    return kInvalidFrame;
  }

  debug::MutexGuard guard(PtSplitLock(shared), g_pt_split_lock_class);
  // Concurrent-faulter recheck: another thread may have dedicated this slot between our
  // pre-lock snapshot and the split-lock acquisition. Publishing the stale snapshot's
  // spare would clobber its repoint, so bail out and use what is there now. Identity is
  // the referenced frame — flag-only changes (a walker's accessed-bit fetch_or, a racing
  // fixup's writable re-enable) keep the same table and fall through to the share count.
  {
    Pte current = LoadEntry(pud_slot);
    if (!current.IsPresent() || current.IsHuge() || current.frame() != shared) {
      FreeSpare(allocator, dedicated);
      return current.IsPresent() && !current.IsHuge() ? current.frame() : kInvalidFrame;
    }
  }
  PageMeta& shared_meta = allocator.GetMeta(shared);
  uint32_t share = shared_meta.pt_share_count.load(std::memory_order_acquire);
  ODF_DCHECK(share >= 1);
  ODF_CHECK(share == 1 || dedicated != kInvalidFrame)
      << "PMD table " << shared << " gained a sharer under the split lock";
  Vaddr span_end = pud_span_base + EntrySpan(PtLevel::kPud);
  if (share == 1) {
    FreeSpare(allocator, dedicated);  // The other sharers went away: the spare is unused.
    StoreEntry(pud_slot, pud.WithFlag(kPteWritable));
    as.locks().InvalidateRange(pud_span_base, span_end);
    CountVm(VmCounter::k_pmd_table_fixup);
    ODF_TRACE(fault_pmd_table_fixup, as.owner_pid(), pud_span_base, shared);
    return shared;
  }

  uint64_t* src = allocator.TableEntries(shared);
  uint64_t* dst = allocator.TableEntries(dedicated);
  // One pass, one metadata touch per entry: take the entry's reference (a huge page's
  // refcount, or one more sharer of a PTE table), write-protect the source, copy it. The
  // private table stays unpublished until the PUD store below, so every reference exists
  // before any entry of it is visible.
  for (uint64_t i = 0; i < kEntriesPerTable; ++i) {
    Pte entry = LoadEntry(&src[i]);
    if (!entry.IsPresent()) {
      continue;
    }
    if (entry.IsHuge()) {
      // A reference on the 2 MiB compound page; both entries stay COW-protected.
      allocator.IncRef(entry.frame());
    } else {
      // The copy becomes one more sharer of the PTE table.
      allocator.IncPtShare(entry.frame());
    }
    if (entry.IsWritable()) {
      entry = entry.WithoutFlag(kPteWritable);
      StoreEntry(&src[i], entry);
    }
    StoreEntry(&dst[i], entry);
  }
  StoreEntry(pud_slot, Pte::Make(dedicated, kPtePresent | kPteWritable | kPteUser |
                                                (pud.flags() & kPteAccessed)));
  as.locks().InvalidateRange(pud_span_base, span_end);
  // Drop our share of the old table. The other sharers drop theirs without the split lock
  // (an exiting child's teardown), so they may all have gone since `share` was read; this
  // reference is then the last one and releases the table like any other last sharer,
  // settling the deferred free before the fault returns.
  if (DropPmdTableReference(allocator, as.swap_space(), shared)) {
    PtEpoch::Global().Drain();
  }
  CountVm(VmCounter::k_pmd_table_cow);
  [[maybe_unused]] const uint64_t ns = latency.Stop();
  ODF_TRACE(fault_cow_pmd_table, as.owner_pid(), pud_span_base, ns);
  return dedicated;
}

bool EnsureExclusivePmdPath(AddressSpace& as, Vaddr va, AllocPolicy policy) {
  uint64_t* pud_slot = as.walker().FindEntry(as.pgd(), va, PtLevel::kPud);
  if (pud_slot == nullptr) {
    return true;
  }
  Pte pud = LoadEntry(pud_slot);
  if (!pud.IsPresent() || pud.IsHuge()) {
    return true;
  }
  if (as.allocator().GetMeta(pud.frame()).pt_share_count.load(std::memory_order_acquire) >
      1) {
    return DedicatePmdTable(as, EntryBase(va, PtLevel::kPud), pud_slot, policy) !=
           kInvalidFrame;
  }
  return true;
}

FrameId DedicatePteTable(AddressSpace& as, Vaddr chunk_base, uint64_t* pmd_slot,
                         AllocPolicy policy) {
  FrameAllocator& allocator = as.allocator();
  static LatencyHistogram& histogram =
      MetricsRegistry::Global().RegisterHistogram("fault_cow_pte_table_ns");
  trace::LatencySample latency(histogram);
  Pte pmd = LoadEntry(pmd_slot);
  ODF_DCHECK(pmd.IsPresent() && !pmd.IsHuge());
  FrameId shared = pmd.frame();

  // Allocate the private table BEFORE taking the split lock (see DedicatePmdTable: no lock
  // may be held at a quota-wait point), unless the table is already ours alone.
  FrameId dedicated = kInvalidFrame;
  if (!SpareForDedicate(allocator, shared, policy, &dedicated)) {
    // kTry only: nothing has been mutated; the caller unwinds or degrades.
    return kInvalidFrame;
  }

  debug::MutexGuard guard(PtSplitLock(shared), g_pt_split_lock_class);
  // Concurrent-faulter recheck (see DedicatePmdTable): a racing thread that won the split
  // lock first may already have repointed this PMD slot at its own dedicated table.
  {
    Pte current = LoadEntry(pmd_slot);
    if (!current.IsPresent() || current.IsHuge() || current.frame() != shared) {
      FreeSpare(allocator, dedicated);
      return current.IsPresent() && !current.IsHuge() ? current.frame() : kInvalidFrame;
    }
  }
  PageMeta& shared_meta = allocator.GetMeta(shared);
  uint32_t share = shared_meta.pt_share_count.load(std::memory_order_acquire);
  ODF_DCHECK(share >= 1);
  ODF_CHECK(share == 1 || dedicated != kInvalidFrame)
      << "PTE table " << shared << " gained a sharer under the split lock";
  if (share == 1) {
    // The other sharers went away while we were faulting: the table is already ours.
    // Re-enable the hierarchical write permission and keep it (paper §3.4: "both the
    // previously shared table and the new table become dedicated").
    FreeSpare(allocator, dedicated);
    StoreEntry(pmd_slot, pmd.WithFlag(kPteWritable));
    as.locks().InvalidateRange(chunk_base, chunk_base + kPteTableSpan);
    CountVm(VmCounter::k_pte_table_fixup);
    ODF_TRACE(fault_pte_table_fixup, as.owner_pid(), chunk_base, shared);
    return shared;
  }

  uint64_t* src = allocator.TableEntries(shared);
  uint64_t* dst = allocator.TableEntries(dedicated);
  // This is the deferred cost the paper measures in Table 1: one pass over the table that
  // touches each entry's metadata once, resolving the compound head and taking its reference
  // in the same visit. The private table stays unpublished until the PMD store below, so
  // every reference exists before any entry of it is visible. No reverse-map work: the copy
  // sits at the same VA in a member of the same family, where the frames' stamps already
  // lead the walk.
  for (uint64_t i = 0; i < kEntriesPerTable; ++i) {
    Pte entry = LoadEntry(&src[i]);
    if (entry.IsSwap()) {
      // Swapped page: the private copy references the immutable slot too; each side will
      // swap in its own copy on fault (trivially correct COW for swapped pages).
      ODF_CHECK(as.swap_space() != nullptr);
      as.swap_space()->IncRef(entry.swap_slot());
      StoreEntry(&dst[i], entry);
      continue;
    }
    if (entry.IsHwPoison()) {
      // Poison markers copy verbatim: the dedicated table remembers the dead VA too, and
      // markers are refcount-free so there is nothing to IncRef.
      StoreEntry(&dst[i], entry);
      continue;
    }
    if (!entry.IsPresent()) {
      continue;
    }
    FrameId frame = entry.frame();
    allocator.IncRef(ResolveCompoundHead(allocator.GetMeta(frame), frame));
    // Write-protect the entry in both copies so the first write to each data page still
    // triggers a per-page COW; the accessed bit is duplicated as-is (§3.2).
    if (entry.IsWritable()) {
      entry = entry.WithoutFlag(kPteWritable);
      StoreEntry(&src[i], entry);
    }
    StoreEntry(&dst[i], entry);
  }
  // Repoint this address space's PMD entry at the private copy, restoring write permission
  // at the PMD level, and drop our reference to the shared table.
  StoreEntry(pmd_slot, Pte::Make(dedicated, kPtePresent | kPteWritable | kPteUser |
                                                (pmd.flags() & kPteAccessed)));
  as.locks().InvalidateRange(chunk_base, chunk_base + kPteTableSpan);
  // Drop our share of the old table; the last sharer may have exited since `share` was
  // read (see DedicatePmdTable), in which case this releases the table.
  if (DropPteTableReference(allocator, as.swap_space(), shared)) {
    PtEpoch::Global().Drain();
  }
  CountVm(VmCounter::k_pte_table_cow);
  [[maybe_unused]] const uint64_t ns = latency.Stop();
  ODF_TRACE(fault_cow_pte_table, as.owner_pid(), chunk_base, ns);
  return dedicated;
}

bool RangeHasLiveVma(const AddressSpace& as, Vaddr lo, Vaddr hi) {
  if (lo >= hi) {
    return false;
  }
  const auto& vmas = as.vmas();
  auto it = vmas.upper_bound(lo);
  if (it != vmas.begin()) {
    auto prev = std::prev(it);
    if (prev->second.Overlaps(lo, hi)) {
      return true;
    }
  }
  return it != vmas.end() && it->second.Overlaps(lo, hi);
}

void ZapRange(AddressSpace& as, Vaddr start, Vaddr end) {
  FrameAllocator& allocator = as.allocator();
  Walker& walker = as.walker();
  start = PageAlignDown(start);
  end = PageAlignUp(end);

  Vaddr chunk_base = start & ~(kPteTableSpan - 1);
  for (; chunk_base < end; chunk_base += kPteTableSpan) {
    Vaddr chunk_end = chunk_base + kPteTableSpan;
    Vaddr lo = std::max(chunk_base, start);
    Vaddr hi = std::min(chunk_end, end);

    // §4 extension: a shared PMD table (kOnDemandHuge) covers this chunk's whole 1 GiB PUD
    // span. Either drop the span's reference wholesale (nothing else lives there) or
    // dedicate it before mutating anything below.
    uint64_t* pud_slot = walker.FindEntry(as.pgd(), chunk_base, PtLevel::kPud);
    if (pud_slot != nullptr) {
      Pte pud = LoadEntry(pud_slot);
      if (pud.IsPresent() &&
          allocator.GetMeta(pud.frame()).pt_share_count.load(std::memory_order_acquire) >
              1) {
        Vaddr pud_base = EntryBase(chunk_base, PtLevel::kPud);
        Vaddr pud_end = pud_base + EntrySpan(PtLevel::kPud);
        Vaddr covered_lo = std::max(pud_base, start);
        Vaddr covered_hi = std::min(pud_end, end);
        bool remainder_live = RangeHasLiveVma(as, pud_base, covered_lo) ||
                              RangeHasLiveVma(as, covered_hi, pud_end);
        if (!remainder_live) {
          // Gen-before-free: unlink, bump the shard generations, THEN drop the references
          // (so a lock-free reader's pin-then-generation-recheck can never keep a frame
          // that this drop frees).
          StoreEntry(pud_slot, Pte());
          as.locks().InvalidateRange(pud_base, pud_end);
          DropPmdTableReference(allocator, as.swap_space(), pud.frame());
          // Skip the rest of this PUD span (the loop increment adds one chunk).
          chunk_base = std::min(pud_end, end) - kPteTableSpan;
          continue;
        }
        DedicatePmdTable(as, pud_base, pud_slot);
      }
    }

    uint64_t* pmd_slot = walker.FindEntry(as.pgd(), chunk_base, PtLevel::kPmd);
    if (pmd_slot == nullptr) {
      continue;
    }
    Pte pmd = LoadEntry(pmd_slot);
    if (!pmd.IsPresent()) {
      continue;
    }

    if (pmd.IsHuge()) {
      // Huge mappings are unmapped at 2 MiB granularity (enforced by AddressSpace::Unmap).
      ODF_CHECK(lo == chunk_base && hi == chunk_end)
          << "partial unmap of a huge mapping is not supported";
      StoreEntry(pmd_slot, Pte());
      as.locks().InvalidateRange(lo, hi);  // Gen-before-free.
      PutMappedPage(allocator, pmd, /*huge=*/true);
      continue;
    }

    FrameId table = pmd.frame();
    bool full_chunk = (lo == chunk_base && hi == chunk_end);
    uint32_t share =
        allocator.GetMeta(table).pt_share_count.load(std::memory_order_acquire);

    if (share > 1) {
      // §3.3: if no live VMA still needs entries in this 2 MiB span, just drop our
      // reference; otherwise COW the table and zap only our part of the private copy.
      bool remainder_live = !full_chunk && (RangeHasLiveVma(as, chunk_base, lo) ||
                                            RangeHasLiveVma(as, hi, chunk_end));
      if (!remainder_live) {
        StoreEntry(pmd_slot, Pte());
        as.locks().InvalidateRange(chunk_base, chunk_end);  // Gen-before-free.
        DropPteTableReference(allocator, as.swap_space(), table);
        continue;
      }
      table = DedicatePteTable(as, chunk_base, pmd_slot);
    }

    if (full_chunk) {
      StoreEntry(pmd_slot, Pte());
      as.locks().InvalidateRange(chunk_base, chunk_end);  // Gen-before-free.
      // Last ref: puts every mapped page and swap slot.
      DropPteTableReference(allocator, as.swap_space(), table);
      continue;
    }

    uint64_t* entries = allocator.TableEntries(table);
    std::array<FrameId, kEntriesPerTable> frames;  // Raw frames: DecRefBatch resolves tails.
    size_t mapped = 0;
    for (Vaddr va = lo; va < hi; va += kPageSize) {
      uint64_t* slot = &entries[TableIndex(va, PtLevel::kPte)];
      Pte entry = LoadEntry(slot);
      if (entry.IsPresent()) {
        frames[mapped++] = entry.frame();
        StoreEntry(slot, Pte());
      } else if (entry.IsSwap()) {
        ODF_CHECK(as.swap_space() != nullptr);
        as.swap_space()->DecRef(entry.swap_slot());
        StoreEntry(slot, Pte());
      } else if (entry.IsHwPoison()) {
        // Unmapping a poisoned VA clears the tombstone; the frame itself stays quarantined
        // (the allocator holds the poison state, not the entry).
        StoreEntry(slot, Pte());
      }
    }
    as.locks().InvalidateRange(lo, hi);  // Gen-before-free: entries above are already clear.
    allocator.DecRefBatch(std::span<const FrameId>(frames.data(), mapped));
    if (TableIsEmpty(allocator, table)) {
      StoreEntry(pmd_slot, Pte());
      DropPteTableReference(allocator, as.swap_space(), table);
    }
  }
  // Epoch-deferred table frees settle before the zap returns: callers (and their leak
  // checks) rely on the allocator accounting being exact once the range op completes.
  PtEpoch::Global().Drain();
}

void MovePageRange(AddressSpace& as, Vaddr old_start, Vaddr new_start, uint64_t length) {
  FrameAllocator& allocator = as.allocator();
  Walker& walker = as.walker();
  ODF_CHECK(IsPageAligned(old_start) && IsPageAligned(new_start) && IsPageAligned(length));

  // Dedicate any shared table touched by the source range first (§3.3: remap performs COW on
  // shared page tables), so moving entries out cannot corrupt other sharers. Shared PMD
  // tables (§4 extension) must become exclusive before the PTE tables below them.
  for (Vaddr chunk = old_start & ~(kPteTableSpan - 1); chunk < old_start + length;
       chunk += kPteTableSpan) {
    EnsureExclusivePmdPath(as, chunk);
    uint64_t* pmd_slot = walker.FindEntry(as.pgd(), chunk, PtLevel::kPmd);
    if (pmd_slot == nullptr) {
      continue;
    }
    Pte pmd = LoadEntry(pmd_slot);
    if (!pmd.IsPresent() || pmd.IsHuge()) {
      continue;
    }
    if (allocator.GetMeta(pmd.frame()).pt_share_count.load(std::memory_order_acquire) > 1) {
      DedicatePteTable(as, chunk, pmd_slot);
    }
  }

  for (uint64_t offset = 0; offset < length; offset += kPageSize) {
    uint64_t* src_slot = walker.FindEntry(as.pgd(), old_start + offset, PtLevel::kPte);
    if (src_slot == nullptr) {
      continue;
    }
    Pte entry = LoadEntry(src_slot);
    if (entry.IsNone()) {
      continue;  // Neither present nor swapped: nothing to move.
    }
    Vaddr dest_va = new_start + offset;
    // The destination chunk's table could itself be shared (a neighbouring VMA forked
    // earlier maps the same 2 MiB span): dedicate before inserting.
    EnsureExclusivePmdPath(as, dest_va);
    uint64_t* dest_pmd = walker.EnsureEntry(as.pgd(), dest_va, PtLevel::kPmd);
    Pte dest_pmd_entry = LoadEntry(dest_pmd);
    if (dest_pmd_entry.IsPresent() && !dest_pmd_entry.IsHuge() &&
        allocator.GetMeta(dest_pmd_entry.frame())
                .pt_share_count.load(std::memory_order_acquire) > 1) {
      DedicatePteTable(as, dest_va & ~(kPteTableSpan - 1), dest_pmd);
    }
    uint64_t* dst_slot = walker.EnsureEntry(as.pgd(), dest_va, PtLevel::kPte);
    ODF_DCHECK(!LoadEntry(dst_slot).IsPresent()) << "mremap destination already mapped";
    StoreEntry(dst_slot, entry);
    StoreEntry(src_slot, Pte());
  }
  as.locks().InvalidateRange(old_start, old_start + length);
  as.locks().InvalidateRange(new_start, new_start + length);
}

void ProtectRange(AddressSpace& as, Vaddr start, Vaddr end, uint32_t prot) {
  if ((prot & kProtWrite) != 0) {
    // Permission widening takes effect lazily through the fault handler.
    return;
  }
  FrameAllocator& allocator = as.allocator();
  Walker& walker = as.walker();
  for (Vaddr chunk = start & ~(kPteTableSpan - 1); chunk < end; chunk += kPteTableSpan) {
    uint64_t* pud_slot = walker.FindEntry(as.pgd(), chunk, PtLevel::kPud);
    if (pud_slot != nullptr) {
      Pte pud = LoadEntry(pud_slot);
      if (pud.IsPresent() && allocator.GetMeta(pud.frame())
                                     .pt_share_count.load(std::memory_order_acquire) > 1) {
        // A shared PMD table is already write-protected at the PUD level; the fault handler
        // consults the VMA before any COW, so the downgrade needs no structural change.
        continue;
      }
    }
    uint64_t* pmd_slot = walker.FindEntry(as.pgd(), chunk, PtLevel::kPmd);
    if (pmd_slot == nullptr) {
      continue;
    }
    Pte pmd = LoadEntry(pmd_slot);
    if (!pmd.IsPresent()) {
      continue;
    }
    if (pmd.IsHuge()) {
      StoreEntry(pmd_slot, pmd.WithoutFlag(kPteWritable));
      continue;
    }
    FrameId table = pmd.frame();
    if (allocator.GetMeta(table).pt_share_count.load(std::memory_order_acquire) > 1) {
      // Already write-protected at the PMD level; the fault handler consults the VMA before
      // any COW, so a write into the downgraded range SEGVs without table changes.
      continue;
    }
    uint64_t* entries = allocator.TableEntries(table);
    Vaddr lo = std::max(chunk, start);
    Vaddr hi = std::min(chunk + kPteTableSpan, end);
    for (Vaddr va = lo; va < hi; va += kPageSize) {
      uint64_t* slot = &entries[TableIndex(va, PtLevel::kPte)];
      Pte entry = LoadEntry(slot);
      if (entry.IsPresent() && entry.IsWritable()) {
        StoreEntry(slot, entry.WithoutFlag(kPteWritable));
      }
    }
  }
  as.locks().InvalidateRange(start, end);
}

namespace {

void FreeTableRecursive(FrameAllocator& allocator, SwapSpace* swap, FrameId table,
                        PtLevel level) {
  uint64_t* entries = allocator.TableEntries(table);
  for (uint64_t i = 0; i < kEntriesPerTable; ++i) {
    Pte entry = LoadEntry(&entries[i]);
    if (!entry.IsPresent()) {
      continue;
    }
    if (level == PtLevel::kPud) {
      // PMD tables may be shared (§4 extension) or hold leftover leaf state; dropping the
      // reference handles both (the last dropper releases huge pages and PTE tables).
      DropPmdTableReference(allocator, swap, entry.frame());
      StoreEntry(&entries[i], Pte());
      continue;
    }
    FreeTableRecursive(allocator, swap, entry.frame(), NextLevel(level));
    StoreEntry(&entries[i], Pte());
  }
  // Published (reachable from the live PGD until a moment ago), so a lock-free walker may
  // still hold a pointer into it: epoch-defer the free like every other table teardown.
  PtEpoch::Global().Retire(&allocator, table);
}

}  // namespace

void FreePageTables(AddressSpace& as) {
  FreeTableRecursive(as.allocator(), as.swap_space(), as.pgd(), PtLevel::kPgd);
  // Leak checks (and standalone-allocator destruction) follow immediately; settle the
  // deferred frees now.
  PtEpoch::Global().Drain();
}

}  // namespace odf
