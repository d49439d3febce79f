#include "src/mm/address_space.h"

#include <sanitizer/asan_interface.h>

#include <algorithm>
#include <array>
#include <new>
#include <span>
#include <vector>

#include "src/mm/range_ops.h"
#include "src/reclaim/mm_gate.h"
#include "src/reclaim/lru.h"
#include "src/reclaim/rmap.h"
#include "src/replay/recorder.h"
#include "src/util/log.h"

namespace odf {

namespace {

// Base of the bump region for address assignment; matches the spirit of mmap_base.
constexpr Vaddr kMmapBase = 0x0000'1000'0000ULL;
// Guard gap between consecutive mappings so off-by-one accesses fault in tests.
constexpr Vaddr kGuardGap = kPageSize;

constexpr std::align_val_t kAddressSpaceAlign{alignof(AddressSpace)};

// The calling thread's free AddressSpace storage. Trivially destructible, so it outlives
// the thread's other thread_local objects: an AddressSpace freed by a later destructor
// (or, on the main thread, by a static one) finds `retired` set and goes to the heap.
struct AddressSpaceFreeList {
  static constexpr size_t kCapacity = 4;
  std::array<void*, kCapacity> slots;
  size_t count;
  bool retired;
};
thread_local AddressSpaceFreeList t_address_space_free;

// Releases the calling thread's free list at thread exit.
struct AddressSpaceFreeListReaper {
  ~AddressSpaceFreeListReaper() {
    AddressSpaceFreeList& list = t_address_space_free;
    while (list.count > 0) {
      void* storage = list.slots[--list.count];
      ASAN_UNPOISON_MEMORY_REGION(storage, sizeof(AddressSpace));
      ::operator delete(storage, kAddressSpaceAlign);
    }
    list.retired = true;
  }
};
thread_local AddressSpaceFreeListReaper t_address_space_reaper;

}  // namespace

void* AddressSpace::operator new(size_t size) {
  ODF_DCHECK(size == sizeof(AddressSpace));
  AddressSpaceFreeList& list = t_address_space_free;
  if (list.count == 0) {
    return ::operator new(size, kAddressSpaceAlign);
  }
  void* storage = list.slots[--list.count];
  ASAN_UNPOISON_MEMORY_REGION(storage, sizeof(AddressSpace));
  return storage;
}

void AddressSpace::operator delete(void* storage) noexcept {
  AddressSpaceFreeList& list = t_address_space_free;
  if (list.retired || list.count == AddressSpaceFreeList::kCapacity) {
    ::operator delete(storage, kAddressSpaceAlign);
    return;
  }
  (void)&t_address_space_reaper;  // First use registers the thread-exit release.
  ASAN_POISON_MEMORY_REGION(storage, sizeof(AddressSpace));
  list.slots[list.count++] = storage;
}

AddressSpace::AddressSpace(FrameAllocator* allocator, SwapSpace* swap,
                           reclaim::Rmap* rmap)
    : allocator_(allocator),
      swap_(swap),
      rmap_(rmap),
      walker_(allocator),
      pgd_(AllocPageTable(*allocator)),
      mmap_cursor_(kMmapBase) {}

AddressSpace::~AddressSpace() { TearDown(); }

void AddressSpace::TearDown() {
  if (torn_down_) {
    return;
  }
  // No AS-gate acquisition here: teardown's callers guarantee no thread is concurrently
  // driving this address space (one driver thread per process; the OOM killer's victim is
  // never the process whose allocation is being serviced). Skipping the gate is what lets
  // the OOM path reap a victim while other threads sit at quota-wait points holding their
  // own AS gates. The MmGate still excludes the shrinker while frames are released.
  reclaim::MmGate::SharedScope gate;
  std::vector<std::pair<Vaddr, Vaddr>> ranges;
  ranges.reserve(vmas_.size());
  for (const auto& [start, vma] : vmas_) {
    ranges.emplace_back(vma.start, vma.end);
  }
  {
    // One walk-lock hold per exit. Cleared first so ZapRange's live-VMA checks see a dying
    // space; unlinked with it, since with no VMA left no walk can use this member anyway.
    reclaim::Rmap::LayoutScope layout(FamilyRmap());
    vmas_.clear();
    if (rmap_ != nullptr) {
      rmap_->Unlink(*this);
    }
  }
  for (const auto& [start, end] : ranges) {
    ZapRange(*this, start, end);
  }
  FreePageTables(*this);
  torn_down_ = true;
}

void AddressSpace::AddNewAnonRmap(FrameId frame, const VmArea& vma, Vaddr va,
                                  bool lru_active) {
  if (anon_family_ == nullptr) {
    return;
  }
  PageMeta& meta = allocator_->GetMeta(frame);
  meta.SetAnonStamp(anon_family_->id(), vma.AnonIndex(va));
  if (!meta.IsCompound()) {
    rmap_->lru()->Add(frame, lru_active);
  }
}

Vaddr AddressSpace::AllocateRange(uint64_t length, uint64_t alignment, Vaddr hint) {
  auto is_free = [&](Vaddr start) {
    Vaddr end = start + length;
    if (end > kUserAddressSpaceEnd) {
      return false;
    }
    auto it = vmas_.upper_bound(start);
    if (it != vmas_.begin() && std::prev(it)->second.end + kGuardGap > start) {
      return false;
    }
    return it == vmas_.end() || it->second.start >= end + kGuardGap;
  };

  if (hint != 0) {
    Vaddr aligned = hint & ~(alignment - 1);
    if (aligned == hint && is_free(hint)) {
      return hint;
    }
  }
  Vaddr candidate = (mmap_cursor_ + alignment - 1) & ~(alignment - 1);
  while (!is_free(candidate)) {
    // Skip past the colliding VMA.
    auto it = vmas_.upper_bound(candidate);
    Vaddr next = (it != vmas_.begin()) ? std::prev(it)->second.end + kGuardGap : candidate;
    if (it != vmas_.end() && it->second.start < candidate + length + kGuardGap) {
      next = std::max(next, it->second.end + kGuardGap);
    }
    ODF_CHECK(next > candidate) << "address space exhausted";
    candidate = (next + alignment - 1) & ~(alignment - 1);
  }
  mmap_cursor_ = candidate + length + kGuardGap;
  return candidate;
}

reclaim::Rmap* AddressSpace::FamilyRmap() const {
  return anon_family_ != nullptr ? rmap_ : nullptr;
}

void AddressSpace::InsertVma(VmArea vma) {
  ODF_DCHECK(vma.start < vma.end);
  vmas_.emplace(vma.start, std::move(vma));
}

Vaddr AddressSpace::MapAnonymous(uint64_t length, uint32_t prot, bool huge, Vaddr hint) {
  MmLockTable::WriteScope ws(locks_);  // Layout mutation: excludes faulters and readers.
  reclaim::MmGate::SharedScope gate;
  ODF_CHECK(length > 0);
  uint64_t granule = huge ? kHugePageSize : kPageSize;
  length = (length + granule - 1) & ~(granule - 1);
  Vaddr start = AllocateRange(length, granule, hint);
  VmArea vma;
  vma.start = start;
  vma.end = start + length;
  vma.prot = prot;
  vma.kind = VmaKind::kAnonPrivate;
  vma.huge = huge;
  vma.anon_pgoff = start >> kPageShift;
  reclaim::Rmap::LayoutScope layout(FamilyRmap());
  InsertVma(std::move(vma));
  return start;
}

Vaddr AddressSpace::MapFile(std::shared_ptr<MemFile> file, uint64_t file_offset,
                            uint64_t length, uint32_t prot, bool shared, Vaddr hint) {
  MmLockTable::WriteScope ws(locks_);
  reclaim::MmGate::SharedScope gate;
  ODF_CHECK(file != nullptr);
  ODF_CHECK(length > 0);
  ODF_CHECK(file_offset % kPageSize == 0) << "file offset must be page-aligned";
  length = PageAlignUp(length);
  Vaddr start = AllocateRange(length, kPageSize, hint);
  VmArea vma;
  vma.start = start;
  vma.end = start + length;
  vma.prot = prot;
  vma.kind = shared ? VmaKind::kFileShared : VmaKind::kFilePrivate;
  vma.file = std::move(file);
  vma.file_offset = file_offset;
  vma.anon_pgoff = start >> kPageShift;  // Private COW copies are anonymous pages.
  reclaim::Rmap::LayoutScope layout(FamilyRmap());
  InsertVma(std::move(vma));
  return start;
}

VmArea* AddressSpace::FindVma(Vaddr va) {
  auto it = vmas_.upper_bound(va);
  if (it == vmas_.begin()) {
    return nullptr;
  }
  VmArea& vma = std::prev(it)->second;
  return vma.Contains(va) ? &vma : nullptr;
}

void AddressSpace::SplitVmaAt(Vaddr va) {
  VmArea* vma = FindVma(va);
  if (vma == nullptr || vma->start == va) {
    return;
  }
  if (vma->huge) {
    ODF_CHECK(IsHugeAligned(va)) << "huge VMAs can only be split at 2 MiB boundaries";
  }
  ODF_CHECK(IsPageAligned(va));
  VmArea tail = *vma;
  tail.start = va;
  if (tail.IsFileBacked()) {
    tail.file_offset = vma->file_offset + (va - vma->start);
  }
  tail.anon_pgoff = vma->AnonIndex(va);
  vma->end = va;
  InsertVma(std::move(tail));
}

void AddressSpace::Unmap(Vaddr start, uint64_t length) {
  MmLockTable::WriteScope ws(locks_);  // Reentrant: Remap shrinks via Unmap.
  reclaim::MmGate::SharedScope gate;
  ODF_CHECK(IsPageAligned(start));
  length = PageAlignUp(length);
  Vaddr end = start + length;
  {
    reclaim::Rmap::LayoutScope layout(FamilyRmap());
    SplitVmaAt(start);
    SplitVmaAt(end);
    // Remove every VMA inside [start, end) before zapping so the §3.3 live-VMA checks
    // reflect the post-unmap world.
    for (auto it = vmas_.lower_bound(start); it != vmas_.end() && it->second.start < end;) {
      ODF_CHECK(it->second.end <= end) << "VMA split failed to produce aligned pieces";
      it = vmas_.erase(it);
    }
  }
  ZapRange(*this, start, end);
}

Vaddr AddressSpace::Remap(Vaddr old_start, uint64_t old_length, uint64_t new_length) {
  MmLockTable::WriteScope ws(locks_);
  reclaim::MmGate::SharedScope gate;
  ODF_CHECK(IsPageAligned(old_start));
  old_length = PageAlignUp(old_length);
  new_length = PageAlignUp(new_length);
  ODF_CHECK(new_length > 0);

  {
    reclaim::Rmap::LayoutScope layout(FamilyRmap());
    SplitVmaAt(old_start);
    SplitVmaAt(old_start + old_length);
  }
  VmArea* vma = FindVma(old_start);
  ODF_CHECK(vma != nullptr && vma->start == old_start && vma->end == old_start + old_length)
      << "mremap range must cover exactly one mapping";
  ODF_CHECK(!vma->huge) << "mremap of huge mappings is not supported";

  if (new_length == old_length) {
    return old_start;
  }
  if (new_length < old_length) {
    Unmap(old_start + new_length, old_length - new_length);
    return old_start;
  }

  // Try growing in place.
  Vaddr wanted_end = old_start + new_length;
  auto next = vmas_.upper_bound(old_start);
  bool room = (next == vmas_.end() || next->second.start >= wanted_end + kGuardGap) &&
              wanted_end <= kUserAddressSpaceEnd;
  if (room) {
    reclaim::Rmap::LayoutScope layout(FamilyRmap());
    vma->end = wanted_end;
    return old_start;
  }

  // Move the mapping: relocate page-table entries, never data pages. The moved VMA keeps
  // its anon_pgoff, so the frames it carries stay findable by their stamped anon index.
  // In between, no VMA covers the pages: an aging walk finds no mapping of them and
  // reads them as unreferenced, which costs at most one early demotion.
  VmArea moved = *vma;
  {
    reclaim::Rmap::LayoutScope layout(FamilyRmap());
    vmas_.erase(old_start);
  }
  Vaddr new_start = AllocateRange(new_length, kPageSize, 0);
  MovePageRange(*this, old_start, new_start, old_length);
  ZapRange(*this, old_start, old_start + old_length);  // Frees now-empty tables.
  moved.start = new_start;
  moved.end = new_start + new_length;
  reclaim::Rmap::LayoutScope layout(FamilyRmap());
  InsertVma(std::move(moved));
  return new_start;
}

void AddressSpace::Protect(Vaddr start, uint64_t length, uint32_t prot) {
  MmLockTable::WriteScope ws(locks_);
  reclaim::MmGate::SharedScope gate;
  ODF_CHECK(IsPageAligned(start));
  length = PageAlignUp(length);
  Vaddr end = start + length;
  {
    reclaim::Rmap::LayoutScope layout(FamilyRmap());
    SplitVmaAt(start);
    SplitVmaAt(end);
  }
  // Walks read no VMA's protection: no walk-lock hold needed to change it.
  for (auto it = vmas_.lower_bound(start); it != vmas_.end() && it->second.start < end; ++it) {
    it->second.prot = prot;
  }
  ProtectRange(*this, start, end, prot);
}

void AddressSpace::AdviseDontNeed(Vaddr start, uint64_t length) {
  MmLockTable::WriteScope ws(locks_);
  reclaim::MmGate::SharedScope gate;
  ODF_CHECK(IsPageAligned(start));
  length = PageAlignUp(length);
  Vaddr end = start + length;
  // The range must be fully mapped (we do not model EFAULT semantics for holes).
  for (Vaddr va = start; va < end;) {
    VmArea* vma = FindVma(va);
    ODF_CHECK(vma != nullptr) << "madvise over unmapped address " << va;
    if (vma->huge) {
      ODF_CHECK(IsHugeAligned(va) && (end - va) % kHugePageSize == 0)
          << "MADV_DONTNEED on huge mappings must be 2 MiB-granular";
    }
    va = vma->end;
  }
  // Dropping translations while keeping the VMAs is exactly a zap: the next touch
  // demand-faults fresh (zero / page-cache) content.
  ZapRange(*this, start, end);
}

void AddressSpace::Mincore(Vaddr start, uint64_t length, std::vector<uint8_t>* out) {
  MmLockTable::ReadScope rs(locks_);  // Pure reader: excludes layout mutators only.
  reclaim::MmGate::SharedScope gate;
  ODF_CHECK(IsPageAligned(start));
  length = PageAlignUp(length);
  out->assign(length / kPageSize, 0);
  for (uint64_t i = 0; i < out->size(); ++i) {
    Vaddr va = start + i * kPageSize;
    uint64_t* pmd_slot = walker_.FindEntry(pgd_, va, PtLevel::kPmd);
    if (pmd_slot == nullptr) {
      continue;
    }
    Pte pmd = LoadEntry(pmd_slot);
    if (!pmd.IsPresent()) {
      continue;
    }
    if (pmd.IsHuge()) {
      (*out)[i] = 1;
      continue;
    }
    uint64_t* entries = allocator_->TableEntries(pmd.frame());
    Pte entry = LoadEntry(&entries[TableIndex(va, PtLevel::kPte)]);
    if (entry.IsPresent()) {
      (*out)[i] = 1;
    } else if (entry.IsSwap()) {
      (*out)[i] = 2;
    }
  }
}

void AddressSpace::PopulateRange(Vaddr start, uint64_t length) {
  replay::OpScope op(OpKind::k_populate, owner_pid_);
  op.Arg(start).Arg(length);
  // Exclusive even though populate only installs: it direct-fills whole tables without the
  // fault path's shard locks, so concurrent faulters must be excluded outright. Holding the
  // gate across the quota-wait inside the batch allocations is sound because neither the
  // shrinker nor the OOM killer ever acquires an address-space gate.
  MmLockTable::WriteScope ws(locks_);
  reclaim::MmGate::SharedScope gate;
  Vaddr end = start + length;
  VmArea* vma = FindVma(start);
  ODF_CHECK(vma != nullptr && end <= vma->end) << "populate range must be inside one VMA";

  // Populate installs entries; like the fault handler, it must never write into tables
  // shared with other processes (their VMA layouts may differ). The same pass builds the
  // range's page tables, ahead of any data frame: table frames are written and data frames
  // stay metadata-only, and the host backs frame memory 2 MiB at a time, so tables that
  // landed between runs of data frames would make the host back those data frames too.
  for (Vaddr chunk = EntryBase(start, PtLevel::kPmd); chunk < end; chunk += kPteTableSpan) {
    EnsureExclusivePmdPath(*this, chunk);
    uint64_t* pmd_slot = walker_.FindEntry(pgd_, chunk, PtLevel::kPmd);
    if (pmd_slot != nullptr) {
      Pte pmd = LoadEntry(pmd_slot);
      if (pmd.IsPresent() && !pmd.IsHuge() &&
          allocator_->GetMeta(pmd.frame()).pt_share_count.load(std::memory_order_acquire) >
              1) {
        DedicatePteTable(*this, chunk, pmd_slot);
      }
    }
    if (!vma->huge) {
      walker_.EnsureEntry(pgd_, chunk, PtLevel::kPte);
    }
  }

  if (vma->huge) {
    for (Vaddr va = start; va < end; va += kHugePageSize) {
      uint64_t* pmd_slot = walker_.EnsureEntry(pgd_, va, PtLevel::kPmd);
      if (LoadEntry(pmd_slot).IsPresent()) {
        continue;
      }
      FrameId head = allocator_->AllocateCompound(kPageFlagAnon | kPageFlagZeroFill);
      uint64_t flags = kPtePresent | kPteUser | kPteAccessed | kPteHuge;
      if (vma->IsWritable()) {
        flags |= kPteWritable;
      }
      AddNewAnonRmap(head, *vma, va);
      StoreEntry(pmd_slot, Pte::Make(head, flags));
    }
    return;
  }

  for (Vaddr chunk = start; chunk < end;) {
    Vaddr chunk_end = std::min(end, EntryBase(chunk, PtLevel::kPmd) + kPteTableSpan);
    uint64_t* first_slot = walker_.EnsureEntry(pgd_, chunk, PtLevel::kPte);
    ODF_CHECK(first_slot != nullptr);
    // Direct-fill the table: the slot pointer is interior to the table's entry array.
    uint64_t* entries = first_slot - TableIndex(chunk, PtLevel::kPte);
    if (vma->kind == VmaKind::kAnonPrivate) {
      // Batch-allocate a frame for every absent slot in this chunk: one shared-pool lock
      // round-trip per table instead of one allocation per page.
      std::array<uint64_t*, kEntriesPerTable> slots;
      size_t absent = 0;
      for (Vaddr va = chunk; va < chunk_end; va += kPageSize) {
        uint64_t* slot = &entries[TableIndex(va, PtLevel::kPte)];
        Pte entry = LoadEntry(slot);
        // Poisoned VAs stay dead: populate must not resurrect a page lost to a memory
        // error (the touching process gets kHwPoison on access instead).
        if (!entry.IsPresent() && !entry.IsHwPoison()) {
          slots[absent++] = slot;
        }
      }
      std::array<FrameId, kEntriesPerTable> frames;
      allocator_->AllocateBatch(kPageFlagAnon | kPageFlagZeroFill,
                                std::span<FrameId>(frames.data(), absent));
      uint64_t flags = kPtePresent | kPteUser | kPteAccessed;
      if (vma->IsWritable()) {
        flags |= kPteWritable;
      }
      for (size_t k = 0; k < absent; ++k) {
        Vaddr va = chunk + static_cast<uint64_t>(slots[k] - first_slot) * kPageSize;
        AddNewAnonRmap(frames[k], *vma, va);
        StoreEntry(slots[k], Pte::Make(frames[k], flags));
      }
      chunk = chunk_end;
      continue;
    }
    for (Vaddr va = chunk; va < chunk_end; va += kPageSize) {
      uint64_t* slot = &entries[TableIndex(va, PtLevel::kPte)];
      Pte existing = LoadEntry(slot);
      if (existing.IsPresent() || existing.IsHwPoison()) {
        continue;
      }
      uint64_t flags = kPtePresent | kPteUser | kPteAccessed;
      FrameId cache_frame = vma->file->GetPage(vma->FilePageIndex(va));
      allocator_->IncRef(cache_frame);
      if (vma->kind == VmaKind::kFileShared && vma->IsWritable()) {
        flags |= kPteWritable;
      }
      StoreEntry(slot, Pte::Make(cache_frame, flags));
    }
    chunk = chunk_end;
  }
}

void AddressSpace::AdoptVmaForFork(const VmArea& vma) {
  ODF_DCHECK(anon_family_ == nullptr) << "fork copies VMAs before linking the child";
  ODF_DCHECK(FindVma(vma.start) == nullptr && FindVma(vma.end - 1) == nullptr);
  InsertVma(vma);
  mmap_cursor_ = std::max(mmap_cursor_, vma.end + kGuardGap);
}

uint64_t AddressSpace::MappedBytes() const {
  uint64_t total = 0;
  for (const auto& [start, vma] : vmas_) {
    total += vma.length();
  }
  return total;
}

uint64_t AddressSpace::CountPresentPtes() {
  uint64_t count = 0;
  for (const auto& [start, vma] : vmas_) {
    for (Vaddr chunk = EntryBase(vma.start, PtLevel::kPmd); chunk < vma.end;
         chunk += kPteTableSpan) {
      uint64_t* pmd_slot = walker_.FindEntry(pgd_, chunk, PtLevel::kPmd);
      if (pmd_slot == nullptr) {
        continue;
      }
      Pte pmd = LoadEntry(pmd_slot);
      if (!pmd.IsPresent()) {
        continue;
      }
      if (pmd.IsHuge()) {
        count += kEntriesPerTable;
        continue;
      }
      uint64_t* entries = allocator_->TableEntries(pmd.frame());
      Vaddr lo = std::max(chunk, vma.start);
      Vaddr hi = std::min(chunk + kPteTableSpan, vma.end);
      for (Vaddr va = lo; va < hi; va += kPageSize) {
        if (LoadEntry(&entries[TableIndex(va, PtLevel::kPte)]).IsPresent()) {
          ++count;
        }
      }
    }
  }
  return count;
}

}  // namespace odf
