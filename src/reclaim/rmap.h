// Rmap — the object-based reverse map (the Linux anon_vma / objrmap analog).
//
// Nothing is registered per mapping. Instead every address space belongs to one ANON FAMILY:
// CreateProcess starts a family, and every fork engine links the child into its parent's
// family in O(1) (LinkChild — the anon_vma_fork analog, and the reverse map's only
// allocation on fork). Each anonymous frame records its family and its anon page index when it is
// first installed (PageMeta::SetAnonStamp, VmArea::AnonIndex). To find a frame's mappings,
// Walk visits each family member at the page's virtual address — recomputed from the VMA's
// anon_pgoff, so mremap and VMA splits keep pages findable — and keeps the slots whose
// present entry maps the frame.
//
// Granularity under on-demand-fork (the whole point): a slot in a SHARED PTE table is found
// through every sharer but reported ONCE (deduplicated by table-frame identity), even though
// it maps the frame into every sharing process. The fan-out is carried by the table's
// pt_share_count, mirroring how a shared table holds page references on behalf of all
// sharers (paper §3.6). A consequence the shrinker relies on: for an anonymous frame,
// refcount == locations exactly when every reference is a mapping — the evictability test
// needs no process walk beyond the family's.
//
// Locking (docs/reclaim.md "Locking"): one reader/writer WALK LOCK per Rmap, the
// anon_vma rwsem analog. Walkers — aging, which runs beside the mutators under the MmGate
// held shared — hold it shared (WalkScope); every change a walk could observe holds it
// exclusively (LayoutScope): a family's creation, a member's link and unlink, and every
// change to a member's VMA map. Under the exclusive MmGate no mutator holds it, so the
// shrinker, mf offline and the verifier walk without it. Every walk also runs inside a
// PtEpoch::ReadGuard: a mutator may retire a table on the walked path meanwhile, and only
// the epoch keeps it backed until the walk is out. File frames are not stamped: the
// memory-failure path finds them through the VMAs that map the file (src/mf).
#ifndef ODF_SRC_RECLAIM_RMAP_H_
#define ODF_SRC_RECLAIM_RMAP_H_

#include <cstdint>
#include <memory>
#include <source_location>
#include <vector>

#include "src/mm/address_space.h"
#include "src/phys/frame_allocator.h"
#include "src/reclaim/mm_gate.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace odf {
namespace reclaim {

class PageLru;

// One reverse mapping: the leaf slot holding a present entry that references the frame.
struct RmapLocation {
  uint64_t* slot = nullptr;
  bool huge = false;
};

// Every address space descended by fork from one CreateProcess root.
class AnonFamily {
 public:
  explicit AnonFamily(uint16_t id) : id_(id) {}

  AnonFamily(const AnonFamily&) = delete;
  AnonFamily& operator=(const AnonFamily&) = delete;

  uint16_t id() const { return id_; }

  // Live members. Stable while the caller holds the walk lock or the MmGate exclusively.
  const std::vector<AddressSpace*>& members() const { return members_; }

 private:
  friend class Rmap;

  const uint16_t id_;
  // Changed under the walk lock held exclusively. Each member's index here is
  // AddressSpace::family_slot_, so Unlink is O(1) too.
  std::vector<AddressSpace*> members_;
};

class Rmap {
 public:
  Rmap(FrameAllocator* allocator, PageLru* lru);
  ~Rmap();

  Rmap(const Rmap&) = delete;
  Rmap& operator=(const Rmap&) = delete;

  PageLru* lru() const { return lru_; }

  // Shared hold of the walk lock, for walkers beside the mutators (aging). Held around a
  // few walks at a time, never across a blocking call or an allocation.
  class ODF_SCOPED_CAPABILITY WalkScope {
   public:
    explicit WalkScope(Rmap& rmap,
                       const std::source_location& loc = std::source_location::current())
        ODF_ACQUIRE_SHARED(rmap.walk_mu_);
    ~WalkScope() ODF_RELEASE_GENERIC();
    WalkScope(const WalkScope&) = delete;
    WalkScope& operator=(const WalkScope&) = delete;

   private:
    Rmap& rmap_;
  };

  // Exclusive hold of the walk lock around a change a walk could observe: a member's VMA
  // map (AddressSpace) or a family's membership. A no-op for a null rmap, which a caller
  // passes for an address space outside every family (no walk reaches it). Taken inside
  // the MmGate's shared hold, held only around the change itself: never at a quota-wait
  // allocation point, never across a zap, a table free or an epoch drain.
  class LayoutScope {
   public:
    explicit LayoutScope(Rmap* rmap,
                         const std::source_location& loc = std::source_location::current());
    ~LayoutScope();
    LayoutScope(const LayoutScope&) = delete;
    LayoutScope& operator=(const LayoutScope&) = delete;

   private:
    Rmap* rmap_;
  };

  // --- Family membership (callers hold the MmGate shared) ---

  // Starts a new family with `as` as its only member (CreateProcess). Takes the walk lock.
  void CreateFamily(AddressSpace& as);

  // Links `child` into `parent`'s family (fork), under one walk-lock hold. Consults
  // fault-injection site rmap_alloc first: an injected failure links nothing and returns
  // false — the anon_vma_fork -ENOMEM analog, which the fork engines report as a failed
  // copy. A parent outside any family (standalone mm use) leaves the child outside too.
  // The child's VMA map is copied before this call, unlocked: no walk reaches the child
  // until it is linked.
  [[nodiscard]] bool LinkChild(AddressSpace& parent, AddressSpace& child);

  // Removes `as` from its family (exit teardown); the caller holds a LayoutScope, the one
  // that also covers clearing the VMA map. The last member's exit retires the family and
  // recycles its id.
  void Unlink(AddressSpace& as);

  // --- Reverse lookup ---

  // Appends every distinct present leaf slot that maps anonymous `frame` (the id exactly as
  // stored in the entry; a split-huge tail resolves through its head's stamp). Appends
  // nothing for frames without a family stamp. The caller holds a PtEpoch::ReadGuard and
  // either a WalkScope or the MmGate exclusively, and pins `frame` (its stamp must hold
  // still). Beside the mutators a slot found here may change or empty right after: the
  // caller re-checks the entry in any update it makes (TestAndClearAccessed).
  void Walk(FrameId frame, std::vector<RmapLocation>* out) const;

  // The family with `id`, or nullptr when it has died. Walk-lock rules as for Walk.
  const AnonFamily* FindFamily(uint16_t id) const;

  // Calls fn(family) for every live family. Walk-lock rules as for Walk.
  template <typename Fn>
  void ForEachFamily(Fn&& fn) const {
    for (const std::unique_ptr<AnonFamily>& family : families_) {
      if (family != nullptr) {
        fn(*family);
      }
    }
  }

  // --- Gauges (each takes the MmGate exclusively itself and waits for pageouts in flight,
  // so no count lands mid-eviction) ---

  // Distinct present leaf slots across every family member: a shared table's slot counts
  // once, a huge PMD leaf counts once.
  uint64_t TotalLocations();
  // Distinct frames those slots map.
  uint64_t MappedFrames();
  // Walk(frame).size().
  size_t LocationCount(FrameId frame);

 private:
  // Calls fn(slot, entry) once per distinct present leaf slot of every family member.
  template <typename Fn>
  void ForEachDistinctLeaf(Fn&& fn) const;

  FrameAllocator* allocator_;
  PageLru* lru_;
  // The walk lock. Guards families_, free_ids_, every family's member list and every
  // member's VMA map against the walkers that run beside the mutators.
  mutable util::SharedMutex walk_mu_;
  // Indexed by family id; slot 0 is never used (0 marks an unstamped frame).
  std::vector<std::unique_ptr<AnonFamily>> families_;
  std::vector<uint16_t> free_ids_;
};

}  // namespace reclaim
}  // namespace odf

#endif  // ODF_SRC_RECLAIM_RMAP_H_
