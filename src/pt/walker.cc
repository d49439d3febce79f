#include "src/pt/walker.h"

#include "src/debug/debug.h"
#include "src/util/log.h"

namespace odf {

// A fresh table starts dedicated — exactly one address space references it — which is
// InitAllocatedFrame's initial state for page-table frames, so no counter write is
// needed here (and raw pt_share stores outside src/phys/ are a lint violation).
FrameId AllocPageTable(FrameAllocator& allocator) {
  return allocator.Allocate(kPageFlagPageTable);
}

FrameId TryAllocPageTable(FrameAllocator& allocator) {
  return allocator.TryAllocate(kPageFlagPageTable);
}

Translation Walker::Translate(FrameId pgd, Vaddr va, AccessType access) {
  Translation result;
  FrameId table = pgd;
  for (int l = 0; l < kPtLevels; ++l) {
    PtLevel level = static_cast<PtLevel>(l);
    uint64_t* entries = allocator_->TableEntries(table);
    uint64_t* slot = &entries[TableIndex(va, level)];
    Pte entry = LoadEntry(slot);
    result.fault_level = level;
    if (!entry.IsPresent()) {
      result.status = TranslateStatus::kNotPresent;
      return result;
    }
    if (access == AccessType::kWrite && !entry.IsWritable()) {
      // Hierarchical attribute: a cleared writable bit anywhere on the path blocks writes.
      result.status = TranslateStatus::kNotWritable;
      return result;
    }
    // Hardware sets the accessed bit on every level it traverses, and the dirty bit on a
    // written leaf. fetch_or (not a blind store of the snapshot) so a concurrent COW install
    // or protection change in a sharing thread is never reverted. A bit the snapshot shows
    // set takes no locked instruction: nothing clears the dirty bit, so every re-walk of a
    // written page (the one after each COW install included) skips it.
    if (!entry.IsAccessed()) {
      entry = SetEntryFlags(slot, kPteAccessed);
    }
    if (level == PtLevel::kPmd && entry.IsHuge()) {
      if (access == AccessType::kWrite && !entry.IsDirty()) {
        SetEntryFlags(slot, kPteDirty);
      }
      FrameId head = entry.frame();
      // Leaf invariants (huge/4k consistency): a huge PMD entry must reference a live
      // compound head — anything else means a split or free raced past the entry.
      ODF_VM_BUG_ON_PAGE((allocator_->GetMeta(head).flags & kPageFlagAllocated) == 0,
                         allocator_->GetMeta(head), head)
          << "huge PMD entry references a freed frame";
      ODF_VM_BUG_ON_PAGE(!allocator_->GetMeta(head).IsCompoundHead(),
                         allocator_->GetMeta(head), head)
          << "huge PMD entry references a non-compound-head frame";
      uint64_t offset = (va >> kPageShift) & ((1ULL << kHugePageOrder) - 1);
      result.status = TranslateStatus::kOk;
      result.frame = head + static_cast<FrameId>(offset);
      result.pte_table = kInvalidFrame;
      result.huge = true;
      result.slot = slot;
      return result;
    }
    if (level == PtLevel::kPte) {
      if (access == AccessType::kWrite && !entry.IsDirty()) {
        SetEntryFlags(slot, kPteDirty);
      }
      FrameId frame = entry.frame();
      // Leaf invariants: a present PTE must reference an allocated, referenced data frame
      // (a shared PTE table's single reference counts — §3.6), never a table frame.
      ODF_VM_BUG_ON_PAGE((allocator_->GetMeta(frame).flags & kPageFlagAllocated) == 0,
                         allocator_->GetMeta(frame), frame)
          << "present PTE references a freed frame";
      ODF_VM_BUG_ON_PAGE(allocator_->GetMeta(frame).IsPageTable(),
                         allocator_->GetMeta(frame), frame)
          << "present PTE references a page-table frame";
      ODF_VM_BUG_ON_PAGE(
          allocator_->GetMeta(ResolveCompoundHead(allocator_->GetMeta(frame), frame))
                  .refcount.load(std::memory_order_relaxed) == 0,
          allocator_->GetMeta(frame), frame)
          << "present PTE references a zero-refcount frame";
      result.status = TranslateStatus::kOk;
      result.frame = frame;
      result.pte_table = table;
      result.slot = slot;
      return result;
    }
    result.pte_table = table;  // Will hold the PTE table once we reach the last level.
    table = entry.frame();
  }
  ODF_CHECK(false) << "unreachable walk state";
  return result;
}

Translation Walker::TranslateLockFree(FrameId pgd, Vaddr va) {
  Translation result;
  FrameId table = pgd;
  for (int l = 0; l < kPtLevels; ++l) {
    PtLevel level = static_cast<PtLevel>(l);
    uint64_t* entries = allocator_->TableEntries(table);
    uint64_t* slot = &entries[TableIndex(va, level)];
    Pte entry = LoadEntry(slot);
    result.fault_level = level;
    if (!entry.IsPresent()) {
      result.status = TranslateStatus::kNotPresent;
      return result;
    }
    // Leaf accessed bit: required for the clock/second-chance protocol (a page served by
    // this walk was referenced and must survive the next reclaim pass). CAS, never
    // fetch_or — this walk races PTE rewrites by design, and a blind OR on an entry that
    // was concurrently turned into a swap entry would corrupt the swap-slot payload. A
    // lost CAS just means someone rewrote the entry; the caller's pin + shard-generation
    // recheck rejects the stale translation anyway. No dirty stores (read-only walk) and
    // no ODF_VM_BUG_ON leaf checks (the races those catch are benign here).
    if (level == PtLevel::kPmd && entry.IsHuge()) {
      if (!entry.IsAccessed()) {
        Pte expected = entry;  // CasEntry updates `expected` on failure; keep the snapshot.
        CasEntry(slot, expected, entry.WithFlag(kPteAccessed));
      }
      uint64_t offset = (va >> kPageShift) & ((1ULL << kHugePageOrder) - 1);
      result.status = TranslateStatus::kOk;
      result.frame = entry.frame() + static_cast<FrameId>(offset);
      result.pte_table = kInvalidFrame;
      result.huge = true;
      result.slot = slot;
      return result;
    }
    if (level == PtLevel::kPte) {
      if (!entry.IsAccessed()) {
        Pte expected = entry;
        CasEntry(slot, expected, entry.WithFlag(kPteAccessed));
      }
      result.status = TranslateStatus::kOk;
      result.frame = entry.frame();
      result.pte_table = table;
      result.slot = slot;
      return result;
    }
    result.pte_table = table;
    table = entry.frame();
  }
  ODF_CHECK(false) << "unreachable walk state";
  return result;
}

uint64_t* Walker::FindEntry(FrameId pgd, Vaddr va, PtLevel level) {
  FrameId table = pgd;
  for (int l = 0; l < kPtLevels; ++l) {
    PtLevel current = static_cast<PtLevel>(l);
    uint64_t* entries = allocator_->TableEntries(table);
    uint64_t* slot = &entries[TableIndex(va, current)];
    if (current == level) {
      return slot;
    }
    Pte entry = LoadEntry(slot);
    if (!entry.IsPresent() || entry.IsHuge()) {
      return nullptr;
    }
    table = entry.frame();
  }
  return nullptr;
}

uint64_t* Walker::EnsureEntry(FrameId pgd, Vaddr va, PtLevel level) {
  FrameId table = pgd;
  for (int l = 0; l < kPtLevels; ++l) {
    PtLevel current = static_cast<PtLevel>(l);
    uint64_t* entries = allocator_->TableEntries(table);
    uint64_t* slot = &entries[TableIndex(va, current)];
    if (current == level) {
      return slot;
    }
    Pte entry = LoadEntry(slot);
    if (!entry.IsPresent()) {
      FrameId child = AllocPageTable(*allocator_);
      // Upper-level links are born writable; permission is enforced at the leaf (or revoked
      // at the PMD by on-demand-fork's write-protection). CAS, not a blind store: two
      // faulting threads in different 2 MiB shards of one address space share the upper
      // slots, and the loser of the install race must free its speculative table.
      Pte desired = Pte::Make(child, kPtePresent | kPteWritable | kPteUser);
      if (CasEntry(slot, entry, desired)) {
        entry = desired;
      } else {
        allocator_->DecRef(child);
      }
    }
    ODF_CHECK(!entry.IsHuge()) << "EnsureEntry descending through a huge mapping";
    table = entry.frame();
  }
  return nullptr;
}

uint64_t* Walker::TryEnsureEntry(FrameId pgd, Vaddr va, PtLevel level) {
  FrameId table = pgd;
  for (int l = 0; l < kPtLevels; ++l) {
    PtLevel current = static_cast<PtLevel>(l);
    uint64_t* entries = allocator_->TableEntries(table);
    uint64_t* slot = &entries[TableIndex(va, current)];
    if (current == level) {
      return slot;
    }
    Pte entry = LoadEntry(slot);
    if (!entry.IsPresent()) {
      FrameId child = TryAllocPageTable(*allocator_);
      if (child == kInvalidFrame) {
        return nullptr;
      }
      Pte desired = Pte::Make(child, kPtePresent | kPteWritable | kPteUser);
      if (CasEntry(slot, entry, desired)) {
        entry = desired;
      } else {
        allocator_->DecRef(child);
      }
    }
    ODF_CHECK(!entry.IsHuge()) << "TryEnsureEntry descending through a huge mapping";
    table = entry.frame();
  }
  return nullptr;
}

}  // namespace odf
