#include "src/core/fork.h"

#include "src/core/fork_internal.h"
#include "src/reclaim/rmap.h"
#include "src/trace/metrics.h"
#include "src/trace/trace.h"
#include "src/util/log.h"

namespace odf {

const char* ForkModeName(ForkMode mode) {
  switch (mode) {
    case ForkMode::kClassic:
      return "fork";
    case ForkMode::kOnDemand:
      return "on-demand-fork";
    case ForkMode::kOnDemandHuge:
      return "on-demand-fork-huge";
  }
  return "?";
}

void CopyVmaList(const AddressSpace& parent, AddressSpace& child) {
  for (const auto& [start, vma] : parent.vmas()) {
    child.AdoptVmaForFork(vma);
  }
}

bool CopyAddressSpace(AddressSpace& parent, AddressSpace& child, ForkMode mode,
                      ForkProfile* profile) {
  ODF_CHECK(child.vmas().empty()) << "fork target must be a fresh address space";
  ODF_TRACE(fork_begin, parent.owner_pid(), static_cast<uint64_t>(mode),
            parent.MappedBytes());
  // Fork latency, one histogram for classic fork and one for both on-demand engines.
  static LatencyHistogram& classic_ns =
      MetricsRegistry::Global().RegisterHistogram("fork_classic_ns");
  static LatencyHistogram& on_demand_ns =
      MetricsRegistry::Global().RegisterHistogram("fork_on_demand_ns");
  trace::LatencySample latency(mode == ForkMode::kClassic ? classic_ns : on_demand_ns,
                               /*force=*/profile != nullptr);
  CopyVmaList(parent, child);
  // The anon_vma_fork analog: the child joins the parent's anon family before any entry is
  // copied — O(1), and the only reverse-map work a fork does. Every frame the copy shares
  // stays findable through the family walk without touching it. A failed link (fi site
  // rmap_alloc) fails the fork before anything was shared. The link is the fork's one
  // walk-lock hold: the VMA copy above needs none, since no walk reaches the child before.
  bool ok = child.rmap() == nullptr || child.rmap()->LinkChild(parent, child);
  if (!ok) {
    [[maybe_unused]] const uint64_t elapsed = latency.Stop();
    ODF_TRACE(fork_end, parent.owner_pid(), static_cast<uint64_t>(mode), elapsed);
    return false;
  }
  switch (mode) {
    case ForkMode::kClassic:
      ok = ClassicCopyPageTables(parent, child, profile);
      CountVm(VmCounter::k_fork_classic);
      break;
    case ForkMode::kOnDemand:
      ok = OnDemandSharePageTables(parent, child, profile, /*share_pmd_tables=*/false);
      CountVm(VmCounter::k_fork_on_demand);
      break;
    case ForkMode::kOnDemandHuge:
      ok = OnDemandSharePageTables(parent, child, profile, /*share_pmd_tables=*/true);
      CountVm(VmCounter::k_fork_on_demand);
      break;
  }
  // The parent's cached translations may have lost write permission (PTE-level for classic,
  // PMD-level for on-demand); flush, as the kernel flushes the hardware TLB on fork. On a
  // failed copy the parent may already be partially write-protected, so flush then too.
  parent.locks().FlushAll();
  const uint64_t elapsed = latency.Stop();
  if (profile != nullptr) {
    profile->total_ns += elapsed;
  }
  ODF_TRACE(fork_end, parent.owner_pid(), static_cast<uint64_t>(mode), elapsed);
  return ok;
}

}  // namespace odf
