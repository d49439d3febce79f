// Per-frame metadata: the simulator's analog of the Linux kernel's `struct page`.
//
// The paper's profiling (Fig. 3) shows that classic fork spends most of its time resolving
// compound heads and atomically incrementing per-page reference counters across the scattered
// `struct page` array. This type reproduces those costs for real: it is stored in a flat
// indexed array, refcounts are std::atomic, and compound (huge) pages are represented as a
// head + 511 tails exactly like the kernel.
//
// The paper stores the shared-PTE-table reference counter "in a union inside struct page that
// is unused for last-level page tables" (§4). We mirror that with an explicit union:
// `refcount` counts users of a data page, while page-table pages use `pt_share_count` to
// count the address spaces sharing them. A frame is never both.
#ifndef ODF_SRC_PHYS_PAGE_META_H_
#define ODF_SRC_PHYS_PAGE_META_H_

#include <atomic>
#include <cstdint>

namespace odf {

using FrameId = uint32_t;
inline constexpr FrameId kInvalidFrame = 0xffffffffu;

inline constexpr uint64_t kPageShift = 12;
inline constexpr uint64_t kPageSize = 1ULL << kPageShift;  // 4 KiB
inline constexpr uint64_t kHugePageOrder = 9;              // 512 x 4 KiB = 2 MiB
inline constexpr uint64_t kHugePageSize = kPageSize << kHugePageOrder;

// Frame state flags. Stored in one byte; mutated only under the owning subsystem's locks
// (flags are set at allocation and cleared at free, never concurrently toggled).
enum PageFlag : uint8_t {
  kPageFlagAllocated = 1u << 0,     // Frame is owned by someone (not on the free list).
  kPageFlagPageTable = 1u << 1,     // Frame holds a page table (512 x 64-bit entries).
  kPageFlagCompoundHead = 1u << 2,  // First frame of a compound (huge) page.
  kPageFlagCompoundTail = 1u << 3,  // Non-first frame of a compound page.
  kPageFlagAnon = 1u << 4,          // Backs a private anonymous mapping.
  kPageFlagFile = 1u << 5,          // Owned by the page cache (file-backed).
  kPageFlagZeroFill = 1u << 6,      // Logical content is all-zero until materialised.
  // The PG_hwpoison analog: the frame took an (injected) uncorrectable memory error. Set
  // under the exclusive MmGate by src/mf via FrameAllocator::MarkHwPoison — never anywhere
  // else (scripts/odf_lint.py `hwpoison-flag`). The flag is permanent: a poisoned frame is
  // quarantined at its final free and never re-enters the allocator (docs/memory-failure.md).
  kPageFlagHwPoison = 1u << 7,
};

struct PageMeta {
  // For data pages: number of page-table entries (in *dedicated* PTE tables) plus other
  // owners (page cache) referencing this frame. Freed when it reaches zero.
  //
  // Under on-demand-fork, a shared PTE table holds ONE reference per page on behalf of all
  // its sharers; the table's pt_share_count stands in for the per-page counts (paper §3.6).
  std::atomic<uint32_t> refcount{0};

  // For page-table pages only (the union analog): number of address spaces whose PMD entries
  // reference this PTE table. 1 == dedicated; >1 == shared via on-demand-fork.
  std::atomic<uint32_t> pt_share_count{0};

  uint8_t flags = 0;
  uint8_t order = 0;  // Compound order for heads (kHugePageOrder); 0 otherwise.
  uint16_t reserved = 0;

  // For compound tails: frame id of the head. For heads/singles: the frame's own id.
  FrameId compound_head = kInvalidFrame;

  // Whether the frame's bytes are real: 0 means the logical content is all-zero (the bytes
  // at the frame's fixed address are stale and must not be read), 1 means they hold the
  // frame's content. A frame's bytes always live at the same address
  // (FrameAllocator::MaterializeData); compound tails follow their head's state. Page-table
  // frames are always materialised.
  //
  // Atomic so concurrent faulting threads can check-then-materialise without the shared pool
  // lock: MaterializeData publishes the filled bytes with a release store and readers load
  // acquire, so whoever observes the state also observes the bytes behind it.
  std::atomic<uint8_t> materialized{0};

  // --- Object-based reverse map (docs/reclaim.md "Reverse mapping") ---
  // An anonymous frame records the anon family whose page tables map it and the anon page
  // index of its mapping (VmArea::AnonIndex) — the folio->mapping / folio->index pair. Both
  // are stamped once, while the installing thread still owns the frame privately, and read
  // by reclaim and memory failure under the exclusive MmGate. Family 0 means unstamped.
  // Compound tails are never stamped: a split-huge tail inherits its head's stamp, offset by
  // its position in the compound. The index is 40 bits wide (hi:lo), enough for every page
  // of the 47-bit user half.
  uint16_t anon_family = 0;
  uint8_t anon_index_hi = 0;
  // LRU membership (reclaim::LruState), written under the PageLru lock. Atomic so the
  // allocator's free path can test it without that lock.
  std::atomic<uint8_t> lru_state{0};
  uint32_t anon_index_lo = 0;
  // Intrusive LRU list links (the page->lru analog), guarded by the PageLru lock.
  FrameId lru_prev = kInvalidFrame;
  FrameId lru_next = kInvalidFrame;

  uint64_t AnonIndex() const {
    return (static_cast<uint64_t>(anon_index_hi) << 32) | anon_index_lo;
  }
  void SetAnonStamp(uint16_t family, uint64_t index) {
    anon_family = family;
    anon_index_hi = static_cast<uint8_t>(index >> 32);
    anon_index_lo = static_cast<uint32_t>(index);
  }
  void ClearAnonStamp() { SetAnonStamp(0, 0); }

  bool IsPageTable() const { return (flags & kPageFlagPageTable) != 0; }
  bool IsCompoundHead() const { return (flags & kPageFlagCompoundHead) != 0; }
  bool IsCompoundTail() const { return (flags & kPageFlagCompoundTail) != 0; }
  bool IsCompound() const { return (flags & (kPageFlagCompoundHead | kPageFlagCompoundTail)) != 0; }
  bool IsHwPoisoned() const { return (flags & kPageFlagHwPoison) != 0; }
};

// The reverse map and LRU fields above are the whole per-frame cost of reclaim: 16 bytes.
static_assert(sizeof(PageMeta) <= 40, "PageMeta grew past its reclaim budget");

// Resolves a frame's compound head the way the kernel's compound_head() does: tail frames
// redirect to their head. This is the first Fig. 3 hotspot — the cost is the cache miss on
// first touching the PageMeta, which happens for real here because the caller has just
// indexed into the large metadata array.
inline FrameId ResolveCompoundHead(const PageMeta& meta, FrameId frame) {
  if (meta.IsCompoundTail()) {
    return meta.compound_head;
  }
  return frame;
}

}  // namespace odf

#endif  // ODF_SRC_PHYS_PAGE_META_H_
