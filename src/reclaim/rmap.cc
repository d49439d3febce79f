#include "src/reclaim/rmap.h"

#include <algorithm>

#include "src/debug/debug.h"
#include "src/debug/lockdep.h"
#include "src/fi/fault_inject.h"
#include "src/pt/pte.h"
#include "src/util/log.h"

namespace odf {
namespace reclaim {

namespace {

// The walk lock: taken after the MmGate, before the LRU lock (docs/debugging.md).
debug::LockClass g_walk_lock_class("Rmap::walk_mu_");

// This thread's walk-lock holds, for the protocol checks in Walk and Unlink.
thread_local int tls_walk_shared = 0;
thread_local int tls_walk_exclusive = 0;

constexpr size_t kMaxFamilies = 1u << 16;

}  // namespace

Rmap::WalkScope::WalkScope(Rmap& rmap, const std::source_location& loc) : rmap_(rmap) {
  debug::LockAcquired(g_walk_lock_class, loc.file_name(), loc.line());
  rmap_.walk_mu_.lock_shared();
  ++tls_walk_shared;
}

Rmap::WalkScope::~WalkScope() {
  --tls_walk_shared;
  rmap_.walk_mu_.unlock_shared();
  debug::LockReleased(g_walk_lock_class);
}

Rmap::LayoutScope::LayoutScope(Rmap* rmap, const std::source_location& loc) : rmap_(rmap) {
  if (rmap_ == nullptr) {
    return;
  }
  debug::LockAcquired(g_walk_lock_class, loc.file_name(), loc.line());
  rmap_->walk_mu_.lock();  // odf-lint: allow(naked-lock) — this IS the scoped guard.
  ++tls_walk_exclusive;
}

Rmap::LayoutScope::~LayoutScope() {
  if (rmap_ == nullptr) {
    return;
  }
  --tls_walk_exclusive;
  rmap_->walk_mu_.unlock();  // odf-lint: allow(naked-lock) — this IS the scoped guard.
  debug::LockReleased(g_walk_lock_class);
}

Rmap::Rmap(FrameAllocator* allocator, PageLru* lru)
    : allocator_(allocator), lru_(lru), families_(1) {}

Rmap::~Rmap() = default;

void Rmap::CreateFamily(AddressSpace& as) {
  ODF_DCHECK(as.anon_family_ == nullptr) << "address space already has a family";
  LayoutScope layout(this);
  uint16_t id;
  if (!free_ids_.empty()) {
    id = free_ids_.back();
    free_ids_.pop_back();
  } else {
    ODF_CHECK(families_.size() < kMaxFamilies) << "anon family ids exhausted";
    id = static_cast<uint16_t>(families_.size());
    families_.emplace_back();
  }
  families_[id] = std::make_unique<AnonFamily>(id);
  families_[id]->members_.push_back(&as);
  as.anon_family_ = families_[id].get();
  as.family_slot_ = 0;
}

bool Rmap::LinkChild(AddressSpace& parent, AddressSpace& child) {
  AnonFamily* family = parent.anon_family_;
  if (family == nullptr) {
    return true;
  }
  // The reverse map's one allocation per fork (anon_vma_fork). Consulted outside the
  // walk lock: the injector takes its own lock.
  if (fi::ShouldInject(FiSite::k_rmap_alloc)) {
    return false;
  }
  LayoutScope layout(this);
  child.anon_family_ = family;
  child.family_slot_ = family->members_.size();
  family->members_.push_back(&child);
  return true;
}

void Rmap::Unlink(AddressSpace& as) {
  AnonFamily* family = as.anon_family_;
  if (family == nullptr) {
    return;
  }
  ODF_DCHECK(tls_walk_exclusive > 0) << "family unlink without the walk lock";
  std::vector<AddressSpace*>& members = family->members_;
  ODF_DCHECK(as.family_slot_ < members.size() && members[as.family_slot_] == &as);
  members[as.family_slot_] = members.back();
  members[as.family_slot_]->family_slot_ = as.family_slot_;
  members.pop_back();
  as.anon_family_ = nullptr;
  if (members.empty()) {
    // No member is left to fork from, so nothing can link in concurrently. Frames still
    // stamped with this id may still be mapped by the dying space's tables until its zap;
    // a walk under a later family reusing the id rejects them by the entry's frame check.
    uint16_t id = family->id();
    families_[id].reset();
    free_ids_.push_back(id);
  }
}

const AnonFamily* Rmap::FindFamily(uint16_t id) const {
  return id < families_.size() ? families_[id].get() : nullptr;
}

void Rmap::Walk(FrameId frame, std::vector<RmapLocation>* out) const {
  ODF_DCHECK(MmGate::ThreadHoldsExclusive() || tls_walk_shared > 0)
      << "rmap walk without the walk lock or the exclusive MmGate";
  const PageMeta& meta = allocator_->GetMeta(frame);
  FrameId head = ResolveCompoundHead(meta, frame);
  const PageMeta& head_meta = allocator_->GetMeta(head);
  const AnonFamily* family = FindFamily(head_meta.anon_family);
  if (family == nullptr) {
    return;
  }
  const uint64_t index = head_meta.AnonIndex() + (frame - head);
  const size_t first = out->size();
  for (AddressSpace* as : family->members_) {
    // Flat family: every member is visited, and within it every VMA whose anon range holds
    // the index (normally one; a VMA moved by mremap and a new mapping at its old address
    // can both claim it, and the entry check below tells them apart).
    for (const auto& [start, vma] : as->vmas()) {
      if (index < vma.anon_pgoff || index - vma.anon_pgoff >= vma.length() / kPageSize) {
        continue;
      }
      Vaddr va = vma.start + (index - vma.anon_pgoff) * kPageSize;
      uint64_t* pmd_slot = as->walker().FindEntry(as->pgd(), va, PtLevel::kPmd);
      if (pmd_slot == nullptr) {
        continue;
      }
      Pte pmd = LoadEntry(pmd_slot);
      if (!pmd.IsPresent()) {
        continue;
      }
      RmapLocation location{pmd_slot, /*huge=*/true};
      if (!pmd.IsHuge()) {
        location = RmapLocation{
            &allocator_->TableEntries(pmd.frame())[TableIndex(va, PtLevel::kPte)], false};
      }
      Pte entry = LoadEntry(location.slot);
      if (!entry.IsPresent() || entry.frame() != frame) {
        continue;
      }
      // A shared table is reached through every sharer at the same slot: report it once.
      if (std::none_of(out->begin() + static_cast<std::ptrdiff_t>(first), out->end(),
                       [&](const RmapLocation& seen) { return seen.slot == location.slot; })) {
        out->push_back(location);
      }
    }
  }
}

template <typename Fn>
void Rmap::ForEachDistinctLeaf(Fn&& fn) const {
  // Collect table frames level by level and deduplicate them, so a PMD or PTE table shared
  // across members contributes its leaves once.
  auto unique = [](std::vector<FrameId>& tables) {
    std::sort(tables.begin(), tables.end());
    tables.erase(std::unique(tables.begin(), tables.end()), tables.end());
  };
  auto present_children = [&](FrameId table, std::vector<FrameId>* out) {
    const uint64_t* entries = allocator_->TableEntries(table);
    for (uint64_t i = 0; i < kEntriesPerTable; ++i) {
      Pte entry = LoadEntry(&entries[i]);
      if (entry.IsPresent()) {
        out->push_back(entry.frame());
      }
    }
  };
  std::vector<FrameId> puds;
  ForEachFamily([&](const AnonFamily& family) {
    for (AddressSpace* as : family.members()) {
      present_children(as->pgd(), &puds);
    }
  });
  std::vector<FrameId> pmds;
  for (FrameId pud : puds) {
    present_children(pud, &pmds);
  }
  unique(pmds);
  std::vector<FrameId> ptes;
  for (FrameId pmd : pmds) {
    uint64_t* entries = allocator_->TableEntries(pmd);
    for (uint64_t i = 0; i < kEntriesPerTable; ++i) {
      Pte entry = LoadEntry(&entries[i]);
      if (!entry.IsPresent()) {
        continue;
      }
      if (entry.IsHuge()) {
        fn(&entries[i], entry);
      } else {
        ptes.push_back(entry.frame());
      }
    }
  }
  unique(ptes);
  for (FrameId pte : ptes) {
    uint64_t* entries = allocator_->TableEntries(pte);
    for (uint64_t i = 0; i < kEntriesPerTable; ++i) {
      Pte entry = LoadEntry(&entries[i]);
      if (entry.IsPresent()) {
        fn(&entries[i], entry);
      }
    }
  }
}

uint64_t Rmap::TotalLocations() {
  MmGate::ExclusiveScope gate;
  MmGate::WaitForPageouts();
  uint64_t total = 0;
  ForEachDistinctLeaf([&](const uint64_t*, Pte) { ++total; });
  return total;
}

uint64_t Rmap::MappedFrames() {
  MmGate::ExclusiveScope gate;
  MmGate::WaitForPageouts();
  std::vector<FrameId> frames;
  ForEachDistinctLeaf([&](const uint64_t*, Pte entry) { frames.push_back(entry.frame()); });
  std::sort(frames.begin(), frames.end());
  return static_cast<uint64_t>(std::unique(frames.begin(), frames.end()) - frames.begin());
}

size_t Rmap::LocationCount(FrameId frame) {
  MmGate::ExclusiveScope gate;
  MmGate::WaitForPageouts();
  std::vector<RmapLocation> locations;
  PtEpoch::ReadGuard epoch;
  Walk(frame, &locations);
  return locations.size();
}

}  // namespace reclaim
}  // namespace odf
