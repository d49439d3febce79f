// AddressSpace: the simulator's mm_struct. Owns the VMA list, the root page table (PGD) and
// the sharded MM lock table (whose shard generations are the TLB-shootdown plane);
// provides mmap/munmap/mremap/mprotect and pre-faulting.
//
// Thread-safety (docs/debugging.md "Lock order", docs/performance.md "Lock sharding"):
// every layout-mutating entry point (the mmap family, fork's copy phase, teardown) takes
// this space's MmLockTable WriteScope — the mmap_lock analog, but per address space and
// only writer-vs-reader: faulting threads hold the gate SHARED plus exactly one 2 MiB-range
// shard mutex, so faults in disjoint ranges never serialize on this structure. PTE tables
// shared across address spaces via on-demand-fork are additionally protected by per-table
// split locks (see range_ops.h), and entry words are accessed through atomic_ref so
// concurrent walkers in sharing processes are well-defined.
#ifndef ODF_SRC_MM_ADDRESS_SPACE_H_
#define ODF_SRC_MM_ADDRESS_SPACE_H_

#include <cstdint>
#include <map>
#include <vector>
#include <memory>

#include "src/mm/swap.h"
#include "src/mm/vma.h"
#include "src/phys/frame_allocator.h"
#include "src/pt/mm_locks.h"
#include "src/pt/walker.h"

namespace odf {

namespace reclaim {
class AnonFamily;
class Rmap;
}  // namespace reclaim

class AddressSpace {
 public:
  // `rmap`, when provided (the Kernel always does), is the reverse map this space joins a
  // family of (src/reclaim/rmap.h): the kernel starts a family at CreateProcess and fork
  // links children into it. Standalone mm-layer tests may pass nullptr: such a space has
  // no family, and its anonymous frames are neither stamped nor LRU-managed.
  explicit AddressSpace(FrameAllocator* allocator, SwapSpace* swap = nullptr,
                        reclaim::Rmap* rmap = nullptr);
  ~AddressSpace();

  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  // Object cache (the mm_cachep analog): every fork allocates one AddressSpace and every
  // exit frees one. Storage comes from a small per-thread free list with a fixed cap, so a
  // fork does not pay a general-purpose heap's large-request path (which first consolidates
  // the small-allocation garbage of the whole process). A free on another thread lands in
  // that thread's list; a thread's list is released at its exit.
  static void* operator new(size_t size);
  static void operator delete(void* storage) noexcept;

  // --- Mapping syscall analogs (addresses chosen by a bump allocator unless hinted) ---

  // mmap(MAP_PRIVATE|MAP_ANONYMOUS). `huge` requests 2 MiB pages (MAP_HUGETLB analog);
  // huge mappings are 2 MiB-aligned and sized. Returns the mapped start address.
  Vaddr MapAnonymous(uint64_t length, uint32_t prot, bool huge = false, Vaddr hint = 0);

  // mmap of a file region. `shared` selects MAP_SHARED vs MAP_PRIVATE.
  Vaddr MapFile(std::shared_ptr<MemFile> file, uint64_t file_offset, uint64_t length,
                uint32_t prot, bool shared, Vaddr hint = 0);

  // munmap. Partial unmaps split VMAs. Huge VMAs must be unmapped at 2 MiB granularity.
  void Unmap(Vaddr start, uint64_t length);

  // mremap(MREMAP_MAYMOVE): shrinks in place, grows in place when the gap allows, otherwise
  // moves the mapping (copying page-table entries, not data). Returns the new start.
  Vaddr Remap(Vaddr old_start, uint64_t old_length, uint64_t new_length);

  // mprotect over an existing mapped range.
  void Protect(Vaddr start, uint64_t length, uint32_t prot);

  // Pre-faults every page of the range (MAP_POPULATE analog): pages become present and, for
  // writable VMAs, writable — without materialising data buffers. Benchmarks use this to
  // stand up paper-scale "initialised" memory cheaply (see DESIGN.md).
  void PopulateRange(Vaddr start, uint64_t length);

  // madvise(MADV_DONTNEED): drops the range's current pages without unmapping. Anonymous
  // memory reads back as zeros afterwards; private file pages revert to the page-cache
  // view. Other processes sharing PTE tables with this range are unaffected (the shared
  // table is dropped or dedicated per §3.3, exactly like munmap).
  void AdviseDontNeed(Vaddr start, uint64_t length);

  // mincore: one byte per page in [start, start+length): bit 0 = resident, bit 1 = on the
  // swap device. Does not fault anything in.
  void Mincore(Vaddr start, uint64_t length, std::vector<uint8_t>* out);

  // Unmaps everything (exit teardown). Also called by the destructor.
  void TearDown();

  // --- Introspection ---

  VmArea* FindVma(Vaddr va);
  const std::map<Vaddr, VmArea>& vmas() const { return vmas_; }
  FrameId pgd() const { return pgd_; }
  Walker& walker() { return walker_; }
  FrameAllocator& allocator() { return *allocator_; }
  SwapSpace* swap_space() { return swap_; }
  reclaim::Rmap* rmap() { return rmap_; }
  reclaim::AnonFamily* anon_family() const { return anon_family_; }

  // Reverse-map bookkeeping for a freshly allocated anonymous frame about to be installed
  // at `va` (the folio_add_new_anon_rmap + folio_add_lru analog): stamps this space's
  // family and the VMA's anon index of `va` into the frame, and admits order-0 frames to
  // the LRU through this thread's add batch (`lru_active` for a workingset refault). The
  // frame must still be private to the caller. No-op outside a family.
  void AddNewAnonRmap(FrameId frame, const VmArea& vma, Vaddr va, bool lru_active = false);

  // The sharded lock table guarding this address space (src/pt/mm_locks.h): the fault path
  // takes ReadScope + one ShardScope; layout mutators (and fork) take WriteScope; the
  // lock-free read protocol validates against its shard generations, which mutators bump
  // through InvalidatePage / InvalidateRange / FlushAll.
  MmLockTable& locks() { return locks_; }

  // Pid of the owning process (0 before attachment); lets mm-layer tracepoints attribute
  // fault events without a dependency on the proc layer.
  int32_t owner_pid() const { return owner_pid_; }
  void set_owner_pid(int32_t pid) { owner_pid_ = pid; }

  // Total mapped bytes across VMAs.
  uint64_t MappedBytes() const;

  // Counts present entries the slow way (testing aid).
  uint64_t CountPresentPtes();

  // Inserts a verbatim copy of `vma` at the same address range (fork support; the child must
  // mirror the parent's layout exactly). The range must be free in this address space, and
  // the space not yet linked into a family (Rmap::LinkChild comes after the copy).
  void AdoptVmaForFork(const VmArea& vma);

 private:
  Vaddr AllocateRange(uint64_t length, uint64_t alignment, Vaddr hint);
  // The VMA map changes below are seen by reverse-map walks beside the mutators: callers
  // hold a reclaim::Rmap::LayoutScope on FamilyRmap() (the walk lock; null outside a
  // family, where no walk reaches).
  reclaim::Rmap* FamilyRmap() const;
  void InsertVma(VmArea vma);
  // Splits the VMA containing `va` so that `va` becomes a VMA boundary. No-op when already
  // a boundary.
  void SplitVmaAt(Vaddr va);

  // Family membership is maintained by reclaim::Rmap (CreateFamily / LinkChild / Unlink).
  friend class reclaim::Rmap;

  FrameAllocator* allocator_;
  SwapSpace* swap_;
  reclaim::Rmap* rmap_;
  reclaim::AnonFamily* anon_family_ = nullptr;
  size_t family_slot_ = 0;  // Index in anon_family_'s member list.
  Walker walker_;
  FrameId pgd_;
  MmLockTable locks_;
  std::map<Vaddr, VmArea> vmas_;  // Keyed by start address.
  Vaddr mmap_cursor_;
  int32_t owner_pid_ = 0;
  bool torn_down_ = false;
};

}  // namespace odf

#endif  // ODF_SRC_MM_ADDRESS_SPACE_H_
