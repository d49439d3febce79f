// The fork engines: classic fork (copy every last-level entry, per-page refcounts — what
// Linux does) and on-demand-fork (share last-level tables, defer copying to faults — the
// paper's contribution). Both operate on the simulated mm (AddressSpace).
#ifndef ODF_SRC_CORE_FORK_H_
#define ODF_SRC_CORE_FORK_H_

#include <cstdint>

#include "src/mm/address_space.h"

namespace odf {

enum class ForkMode {
  kClassic,       // Traditional fork: copy PTE tables eagerly, COW data pages.
  kOnDemand,      // On-demand-fork: share PTE tables, COW them at fault time.
  kOnDemandHuge,  // Extension sketched in §4 "Huge Page Support": additionally share PMD
                  // tables (which describe 2 MiB pages directly), write-protecting at the
                  // PUD level. Tables then COW lazily at two levels.
};

// Cost attribution for the fork invocation, mirroring the perf-events breakdown of Fig. 3.
// Filled when a profile pointer is passed to CopyAddressSpace, which then times each batched
// pass per table; without one the fork reads no clock for it. vmstat counts the work
// (fork_pte_entries_copied, pte_tables_shared, fork_huge_entries_copied).
struct ForkProfile {
  uint64_t meta_resolve_ns = 0;  // compound_head() analog: first touch of PageMeta.
  uint64_t refcount_ns = 0;      // page_ref_inc() analog: atomic increments.
  uint64_t entry_copy_ns = 0;    // Writing protected entries to both tables.
  uint64_t table_alloc_ns = 0;   // Allocating child PTE tables.
  uint64_t upper_level_ns = 0;   // Copying PGD/PUD/PMD structure.
  uint64_t total_ns = 0;

  uint64_t AttributedNs() const {
    return meta_resolve_ns + refcount_ns + entry_copy_ns + table_alloc_ns + upper_level_ns;
  }
};

// Duplicates `parent`'s virtual memory into `child` (a freshly constructed, empty address
// space) according to `mode`. The VMA list is copied either way; the difference is entirely
// in how last-level page tables are treated:
//
//   kClassic:  allocate a child PTE table per parent PTE table; for every present entry,
//              resolve the page's metadata, atomically take a page reference, write-protect
//              private mappings in both copies. Shared-file entries keep their write bit.
//
//   kOnDemand: copy only the upper three levels; each parent PTE table gets its share count
//              incremented and both parent and child PMD entries write-protected (§3.1).
//              Huge (PMD-level) mappings are copied eagerly like classic fork, matching the
//              paper's 4 KiB-only implementation scope (§4).
//
// Both engines first link the child into the parent's anon family (src/reclaim/rmap.h);
// no engine does reverse-map work per entry. The parent's TLB is fully flushed (its
// translations may have lost write permission).
//
// Returns false when a required allocation fails mid-copy (ENOMEM after reclaim, or an
// injected page_table_alloc failure) or the family link fails (injected rmap_alloc, before
// anything is copied). Table-allocation failures degrade gracefully where a
// zero-allocation sharing fallback exists (see DegradeFlavor in src/mm/fault.h); when no
// fallback applies the copy stops. Either way every page/table reference the child holds is
// reachable through the child's page tables, so the caller rolls back with
// child.TearDown() and the parent is left fully intact (its write-protected entries are
// benign: the fault path re-enables or COWs them on the next write). See docs/robustness.md.
bool CopyAddressSpace(AddressSpace& parent, AddressSpace& child, ForkMode mode,
                      ForkProfile* profile = nullptr);

const char* ForkModeName(ForkMode mode);

}  // namespace odf

#endif  // ODF_SRC_CORE_FORK_H_
