// procfs-style memory introspection: /proc/<pid>/smaps and /proc/<pid>/status analogs.
//
// Besides being a debugging aid, this module makes the paper's *efficiency* claim
// measurable: on-demand-fork defers page-table construction, so a freshly forked child's
// page-table footprint is tiny, and pages reached through shared tables are accounted
// proportionally (PSS) across both the page refcount and the table share count.
#ifndef ODF_SRC_PROC_PROCFS_H_
#define ODF_SRC_PROC_PROCFS_H_

#include <string>
#include <vector>

#include "src/proc/process.h"

namespace odf {

class Kernel;

struct VmaReport {
  Vaddr start = 0;
  Vaddr end = 0;
  uint32_t prot = 0;
  VmaKind kind = VmaKind::kAnonPrivate;
  bool huge = false;
  uint64_t present_pages = 0;   // Resident 4 KiB pages (huge mappings count 512 each).
  uint64_t swapped_pages = 0;   // Pages currently on the swap device.
  uint64_t private_pages = 0;   // Present pages mapped only by this process.
  uint64_t shared_pages = 0;    // Present pages visible to other processes too.
  double pss_pages = 0;         // Proportional set size, in pages.
};

struct ProcessMemoryReport {
  Pid pid = 0;
  uint64_t vss_bytes = 0;   // Mapped virtual memory.
  uint64_t rss_bytes = 0;   // Resident (present) memory.
  uint64_t pss_bytes = 0;   // Proportional share of resident memory.
  uint64_t swap_bytes = 0;
  uint64_t upper_tables = 0;          // PGD/PUD/PMD tables owned by this process.
  uint64_t dedicated_pte_tables = 0;  // Last-level tables only this process references.
  uint64_t shared_pte_tables = 0;     // Last-level tables shared via on-demand-fork.
  uint64_t shared_pmd_tables = 0;     // PMD tables shared via kOnDemandHuge (§4 extension).
  uint64_t page_table_bytes = 0;      // Dedicated tables + proportional share of shared.
  std::vector<VmaReport> vmas;
};

// Walks the process's paging structure and VMAs to build the report. The process must not
// be mutated concurrently (same rule as every other per-process operation).
ProcessMemoryReport BuildMemoryReport(Process& process);

// Renders the report in a /proc/<pid>/smaps-like plain-text format.
std::string FormatSmaps(const ProcessMemoryReport& report);

// One-line /proc/<pid>/status-like summary (VmSize/VmRSS/Pss/VmSwap/page tables).
std::string FormatStatusLine(const ProcessMemoryReport& report);

// /proc/vmstat analog: "name value" per line. Combines the global odf::trace vmstat event
// counters (fault kinds, table COWs, fork work, swap traffic, TLB flushes, ...) with the
// kernel's live gauges (frame pool, swap device, process table). See docs/observability.md
// for the counter catalog.
std::string FormatVmstat(Kernel& kernel);

// /proc/meminfo analog: pool totals, LRU list sizes, page-table footprint, swap usage,
// and the reclaim watermarks (docs/reclaim.md). Values in kB like the real file.
std::string FormatMeminfo(Kernel& kernel);

// /sys/kernel/debug/debug_vm analog (docs/debugging.md): whether the odf::debug invariant
// checkers are compiled in, plus check/poison/lockdep/verifier counters. All lines render
// in every build; the counters just stay zero with -DODF_DEBUG_VM=OFF.
std::string FormatDebugVm();

// /proc/../memory-failure analog (docs/memory-failure.md): whether src/mf is compiled in,
// the offline/migration/SIGBUS event counters, and the allocator's poison/quarantine
// gauges. All lines render in every build; with -DODF_MEMORY_FAILURE=OFF the counters
// simply stay zero.
std::string FormatMemoryFailure(Kernel& kernel);

}  // namespace odf

#endif  // ODF_SRC_PROC_PROCFS_H_
