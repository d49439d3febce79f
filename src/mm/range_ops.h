// Page-table range operations shared by fork, munmap, mremap, mprotect and exit teardown.
//
// This is where the paper's last-level page-table lifecycle (§3.5), unmap/remap COW (§3.3)
// and table-refcount-based page accounting (§3.6) are implemented.
#ifndef ODF_SRC_MM_RANGE_OPS_H_
#define ODF_SRC_MM_RANGE_OPS_H_

#include "src/mm/address_space.h"
#include "src/util/mutex.h"

namespace odf {

// Split page-table locks (the kernel's per-table spinlock analog): serialize structural
// mutation of a PTE table that may be shared across address spaces. An annotated
// capability: lock sites use debug::MutexGuard, so the analysis sees the RAII extent.
util::Mutex& PtSplitLock(FrameId table);

// How a range operation allocates the page-table frames it needs.
//   kNoFail — abort on hard OOM, never consult fault injection (teardown/rollback paths
//             MUST use this: rollback cannot itself fail).
//   kTry    — use fallible allocation; the operation reports failure (kInvalidFrame /
//             false) and leaves all page tables in a consistent, unmodified state.
enum class AllocPolicy { kNoFail, kTry };

// Drops one address-space reference to a PTE table (§3.5). The last dropper releases the
// page references held on behalf of all sharers (§3.6) and retires the table frame (freed
// at the next PtEpoch::Drain). Returns true when this was the last reference.
bool DropPteTableReference(FrameAllocator& allocator, SwapSpace* swap, FrameId table);

// Drops one reference to a PMD table (the §4 huge-page extension: kOnDemandHuge shares PMD
// tables). The last dropper releases everything the table references — huge compound pages
// and PTE-table references — and retires the table frame. Returns true when this was the
// last reference.
bool DropPmdTableReference(FrameAllocator& allocator, SwapSpace* swap, FrameId table);

// Copy-on-write of a shared PMD table for `as` (§4 extension): analogous to
// DedicatePteTable one level up. The private copy takes a reference on each huge compound
// page and each PTE table; entries in BOTH copies are write-protected so the next level
// still COWs lazily. `pud_span_base` is the 1 GiB-aligned base the PUD entry covers.
// Under AllocPolicy::kTry, returns kInvalidFrame when the private table cannot be
// allocated; the shared table and the PUD entry are left untouched.
FrameId DedicatePmdTable(AddressSpace& as, Vaddr pud_span_base, uint64_t* pud_slot,
                         AllocPolicy policy = AllocPolicy::kNoFail);

// Makes the PMD table covering `va` exclusive to `as` (dedicating it if shared). Required
// before any structural mutation below the PUD entry (zap, remap, protect, classic fork).
// Returns false only under AllocPolicy::kTry when the dedication allocation failed.
bool EnsureExclusivePmdPath(AddressSpace& as, Vaddr va,
                            AllocPolicy policy = AllocPolicy::kNoFail);

// Copy-on-write of a shared PTE table for `as` (§3.4): allocates a private table, copies all
// 512 entries (preserving accessed bits, clearing writable in BOTH copies so data pages stay
// COW-protected), takes one reference per mapped page, repoints `pmd_slot`, drops one share
// from the old table, and flushes the 2 MiB region from this address space's TLB.
//
// If the share count has already dropped to 1 (the other sharers dedicated or exited), no
// copy is needed: the PMD entry is simply write-enabled again ("fixup"). Returns the table
// the PMD entry points at afterwards. Under AllocPolicy::kTry, returns kInvalidFrame when
// the private table cannot be allocated; the shared table and PMD entry are left untouched
// (the fixup path needs no allocation and always succeeds).
FrameId DedicatePteTable(AddressSpace& as, Vaddr chunk_base, uint64_t* pmd_slot,
                         AllocPolicy policy = AllocPolicy::kNoFail);

// Drops one reference to the data frame mapped by a leaf entry (4 KiB page or, for
// `huge`, a 2 MiB compound head).
void PutMappedPage(FrameAllocator& allocator, Pte entry, bool huge);

// Removes all translations in [start, end). Must run after the VMAs covering the range have
// been removed from the address-space map (the live-VMA check for §3.3 relies on it).
// Shared PTE tables whose 2 MiB span no longer backs any live VMA are dropped whole; shared
// tables still needed by a neighbouring VMA are dedicated first and zapped partially.
void ZapRange(AddressSpace& as, Vaddr start, Vaddr end);

// Moves translations of [old_start, old_start+length) to new_start (mremap). Shared PTE
// tables touched on either side are dedicated first (§3.3). Data pages are not copied.
void MovePageRange(AddressSpace& as, Vaddr old_start, Vaddr new_start, uint64_t length);

// Applies a protection downgrade to present translations in [start, end) (mprotect).
// Write-permission removal clears writable bits in dedicated tables; shared tables are
// already write-protected at the PMD and need no structural change.
void ProtectRange(AddressSpace& as, Vaddr start, Vaddr end, uint32_t prot);

// Frees the upper-level paging skeleton (PGD/PUD/PMD tables) after all VMAs were zapped.
// Defensively releases any leftover leaf state.
void FreePageTables(AddressSpace& as);

// True if any live VMA overlaps [lo, hi).
bool RangeHasLiveVma(const AddressSpace& as, Vaddr lo, Vaddr hi);

}  // namespace odf

#endif  // ODF_SRC_MM_RANGE_OPS_H_
