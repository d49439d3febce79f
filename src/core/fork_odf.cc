// On-demand-fork (§3.1): copy the top three page-table levels and *share* every last-level
// (PTE) table between parent and child. Sharing is one reference-count increment and one
// write-protected PMD entry per 2 MiB of mapped memory — three orders of magnitude less work
// than classic fork's per-4 KiB-page refcounting.
//
// Two submodes:
//  - kOnDemand:     huge (PMD-level) mappings are copied eagerly exactly like classic fork,
//                   matching the paper's 4 KiB-only implementation (§4).
//  - kOnDemandHuge: the generalization the paper sketches in §4 "Huge Page Support" — PMD
//                   tables (which describe 2 MiB pages directly in their entries) are shared
//                   too, write-protected at the PUD level. Tables then copy-on-write lazily
//                   at two levels: first the PMD table on the first write below a PUD entry,
//                   then the PTE table (or the 2 MiB page) on the first write below it.
#include <algorithm>
#include <array>
#include <span>

#include "src/core/fork_internal.h"
#include "src/mm/fault.h"
#include "src/mm/range_ops.h"
#include "src/trace/metrics.h"
#include "src/trace/trace.h"
#include "src/util/log.h"

namespace odf {

namespace {

struct ShareState {
  FrameAllocator* allocator;
  int32_t pid = 0;
  bool share_pmd_tables = false;
  uint64_t pte_tables_shared = 0;
  uint64_t pmd_tables_shared = 0;
  uint64_t upper_entries = 0;  // PGD, PUD and PMD entries visited (fork_upper_entries).
};

// Shares one PMD table between the parent's and child's PUD entries (write-protecting
// both). This is the §4 huge-page extension's normal path, and doubles as the
// zero-allocation degrade when a child PMD table cannot be allocated under kOnDemand.
void SharePmdEntry(ShareState& state, uint64_t* src_slot, uint64_t* dst_slot, Pte entry) {
  FrameAllocator& allocator = *state.allocator;
  FrameId table = entry.frame();
  allocator.IncPtShare(table);
  Pte shared_entry = entry.WithoutFlag(kPteWritable);
  StoreEntry(src_slot, shared_entry);
  StoreEntry(dst_slot, shared_entry);
  ++state.pmd_tables_shared;
  ODF_TRACE(pmd_table_shared, state.pid, table);
}

// Shares the PTE tables of PMD entries [first, last] (§3.5): one address-space reference
// and one write-protected entry pair per present table, with all pt_share_count increments
// taken in a single IncPtShareBatch call. Two passes — collect, batch-increment, then
// publish — so every reference exists before the corresponding child entry becomes
// visible, and a table's whole span costs one refcount call site instead of one per entry
// (docs/performance.md). Spans never share a chunk, so no entry here is visited twice.
void SharePteTables(ShareState& state, uint64_t* src, uint64_t* dst, uint64_t first,
                    uint64_t last) {
  FrameAllocator& allocator = *state.allocator;
  std::array<uint64_t, kEntriesPerTable> indices;
  std::array<FrameId, kEntriesPerTable> tables;
  size_t shared = 0;
  for (uint64_t i = first; i <= last; ++i) {
    Pte entry = LoadEntry(&src[i]);
    if (!entry.IsPresent()) {
      continue;
    }
    if (entry.IsHuge()) {
      CopyHugeEntry(allocator, &src[i], &dst[i]);
      continue;
    }
    indices[shared] = i;
    tables[shared] = entry.frame();
    ++shared;
  }
  allocator.IncPtShareBatch(std::span<const FrameId>(tables.data(), shared));
  for (size_t k = 0; k < shared; ++k) {
    uint64_t i = indices[k];
    // The hierarchical write permission is revoked in BOTH the parent's and the child's PMD
    // entry so every write into this 2 MiB region faults (§3.2).
    Pte shared_entry = LoadEntry(&src[i]).WithoutFlag(kPteWritable);
    StoreEntry(&src[i], shared_entry);
    StoreEntry(&dst[i], shared_entry);
    ODF_TRACE(pte_table_shared, state.pid, tables[k]);
  }
  state.pte_tables_shared += shared;
}

// Shares [start, end) of the parent's tree below `parent_table` (at `level`, covering the
// range) into `child_table`, visiting only the entries the range covers — the
// pgd_addr_end walk of the kernel's copy_page_range. An upper-level entry the child
// already has is reused: an earlier span built that sub-table (recurse into it) or shared
// the parent's whole PMD table at the PUD (nothing left to do).
bool ShareRange(ShareState& state, FrameId parent_table, FrameId child_table, PtLevel level,
                Vaddr start, Vaddr end) {
  FrameAllocator& allocator = *state.allocator;
  uint64_t* src = allocator.TableEntries(parent_table);
  uint64_t* dst = allocator.TableEntries(child_table);
  const uint64_t first = TableIndex(start, level);
  const uint64_t last = TableIndex(end - 1, level);
  state.upper_entries += last - first + 1;

  if (level == PtLevel::kPmd) {
    SharePteTables(state, src, dst, first, last);
    return true;
  }

  const Vaddr table_base = start & ~(EntrySpan(level) * kEntriesPerTable - 1);
  for (uint64_t i = first; i <= last; ++i) {
    Pte entry = LoadEntry(&src[i]);
    if (!entry.IsPresent()) {
      continue;
    }
    Pte existing = LoadEntry(&dst[i]);
    if (existing.IsPresent() && existing.frame() == entry.frame()) {
      continue;  // The parent's PMD table is already shared at this PUD entry.
    }

    if (level == PtLevel::kPud && state.share_pmd_tables) {
      // §4 extension: share the whole PMD table (1 GiB span). Both PUD entries lose write
      // permission; the hierarchical attribute blocks writes to everything below.
      SharePmdEntry(state, &src[i], &dst[i], entry);
      continue;
    }

    // Upper levels: the child gets its own table, recursively filled.
    FrameId child_sub = existing.IsPresent() ? existing.frame() : TryAllocPageTable(allocator);
    if (child_sub == kInvalidFrame) {
      if (level == PtLevel::kPud) {
        // Degrade: share the parent's whole PMD table write-protected at the PUD instead
        // of building a private child copy — the kOnDemandHuge mechanism reused as a
        // zero-allocation fallback. The chunk still COWs lazily, just one level higher.
        SharePmdEntry(state, &src[i], &dst[i], entry);
        CountVm(VmCounter::k_fork_degrade_classic);
        ODF_TRACE(fork_degrade_classic, state.pid, table_base + i * EntrySpan(level),
                  static_cast<uint64_t>(DegradeFlavor::kOdfSharePmd));
        continue;
      }
      // A PUD table cannot be shared (no refcounted drop path above the PMD level): the
      // fork fails and the caller rolls back the partially built child.
      return false;
    }
    if (!existing.IsPresent()) {
      StoreEntry(&dst[i], Pte::Make(child_sub, kPtePresent | kPteWritable | kPteUser |
                                                   (entry.flags() & kPteAccessed)));
    }
    const Vaddr base = table_base + i * EntrySpan(level);
    if (!ShareRange(state, entry.frame(), child_sub, NextLevel(level), std::max(start, base),
                    std::min(end, base + EntrySpan(level)))) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool OnDemandSharePageTables(AddressSpace& parent, AddressSpace& child, ForkProfile* profile,
                             bool share_pmd_tables) {
  const uint64_t start = profile != nullptr ? trace::NowNanos() : 0;
  ShareState state{&parent.allocator()};
  state.pid = parent.owner_pid();
  state.share_pmd_tables = share_pmd_tables;
  // Walk the parent's VMAs merged into spans: VMAs whose 2 MiB chunks touch or overlap
  // form one span, so a chunk is visited once however many VMAs it holds. Tables outside
  // every VMA map nothing the child can reach and are not shared.
  bool ok = true;
  const auto& vmas = parent.vmas();
  for (auto it = vmas.begin(); ok && it != vmas.end();) {
    Vaddr span_start = it->second.start;
    Vaddr span_end = it->second.end;
    for (++it; it != vmas.end() &&
               EntryBase(it->second.start, PtLevel::kPmd) <=
                   EntryBase(span_end + kPteTableSpan - 1, PtLevel::kPmd);
         ++it) {
      span_end = it->second.end;
    }
    ok = ShareRange(state, parent.pgd(), child.pgd(), PtLevel::kPgd, span_start, span_end);
  }
  CountVm(VmCounter::k_pte_tables_shared, state.pte_tables_shared);
  CountVm(VmCounter::k_pmd_tables_shared, state.pmd_tables_shared);
  CountVm(VmCounter::k_fork_upper_entries, state.upper_entries);
  if (profile != nullptr) {
    profile->upper_level_ns += trace::NowNanos() - start;
  }
  return ok;
}

}  // namespace odf
