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
// Family lists change with the MmGate held shared, under the family's own mutex; walks hold
// the gate exclusively and read the lists without a lock. File frames are not stamped: the
// memory-failure path finds them through the VMAs that map the file (src/mf).
#ifndef ODF_SRC_RECLAIM_RMAP_H_
#define ODF_SRC_RECLAIM_RMAP_H_

#include <cstdint>
#include <memory>
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

  // Live members. Stable only while the caller holds the MmGate exclusively.
  const std::vector<AddressSpace*>& members() const { return members_; }

 private:
  friend class Rmap;

  const uint16_t id_;
  // Serialises membership changes among mutators (who hold the MmGate shared). Walks hold
  // the gate exclusively, which excludes every writer, and read members_ unlocked.
  util::Mutex mu_;
  // Each member's index here is AddressSpace::family_slot_, so Unlink is O(1) too.
  std::vector<AddressSpace*> members_;
};

class Rmap {
 public:
  Rmap(FrameAllocator* allocator, PageLru* lru);
  ~Rmap();

  Rmap(const Rmap&) = delete;
  Rmap& operator=(const Rmap&) = delete;

  PageLru* lru() const { return lru_; }

  // --- Family membership (callers hold the MmGate shared) ---

  // Starts a new family with `as` as its only member (CreateProcess).
  void CreateFamily(AddressSpace& as);

  // Links `child` into `parent`'s family (fork). Consults fault-injection site rmap_alloc:
  // an injected failure links nothing and returns false — the anon_vma_fork -ENOMEM analog,
  // which the fork engines report as a failed copy. A parent outside any family (standalone
  // mm use) leaves the child outside too.
  [[nodiscard]] bool LinkChild(AddressSpace& parent, AddressSpace& child);

  // Removes `as` from its family (exit teardown). The last member's exit retires the
  // family and recycles its id.
  void Unlink(AddressSpace& as);

  // --- Reverse lookup (callers hold the MmGate exclusively) ---

  // Appends every distinct present leaf slot that maps anonymous `frame` (the id exactly as
  // stored in the entry; a split-huge tail resolves through its head's stamp). Appends
  // nothing for frames without a family stamp.
  void Walk(FrameId frame, std::vector<RmapLocation>* out) const;

  // The family with `id`, or nullptr when it has died.
  const AnonFamily* FindFamily(uint16_t id) const;

  // Calls fn(family) for every live family.
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
  // Guards the id table against concurrent CreateFamily / Unlink (mutators, gate shared).
  // Walks read it under the exclusive gate without this lock.
  util::Mutex table_mu_;
  // Indexed by family id; slot 0 is never used (0 marks an unstamped frame).
  std::vector<std::unique_ptr<AnonFamily>> families_;
  std::vector<uint16_t> free_ids_;
};

}  // namespace reclaim
}  // namespace odf

#endif  // ODF_SRC_RECLAIM_RMAP_H_
