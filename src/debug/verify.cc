#include "src/debug/verify.h"

#include <algorithm>
#include <atomic>
#include <sstream>
#include <unordered_set>

#include "src/proc/auditor.h"
#include "src/proc/kernel.h"
#include "src/pt/mm_locks.h"
#include "src/reclaim/mm_gate.h"
#include "src/reclaim/lru.h"
#include "src/reclaim/rmap.h"
#include "src/util/log.h"

namespace odf {
namespace debug {

namespace {

// Auto-verify knobs and statistics. Defined in all builds so SetAutoVerify and friends
// keep working (as no-ops) in release binaries; only the hook itself compiles out.
std::atomic<bool> g_auto_verify{true};
std::atomic<uint64_t> g_runs{0};
std::atomic<uint64_t> g_skipped_reentrant{0};
std::atomic<uint64_t> g_skipped_concurrent{0};
std::atomic<uint64_t> g_skipped_disabled{0};

void SweepFrameArray(Kernel& kernel, const AuditResult& audit, VerifyResult& result) {
  FrameAllocator& allocator = kernel.allocator();
  uint64_t total = allocator.Stats().total_frames;
  auto violation = [&result](FrameId frame, const PageMeta& meta, const std::string& what) {
    result.violations.push_back(what + ": " + internal::DescribePage(meta, frame));
  };
  uint64_t poisoned_seen = 0;
  for (uint64_t i = 0; i < total; ++i) {
    FrameId frame = static_cast<FrameId>(i);
    const PageMeta& meta = allocator.GetMeta(frame);
    uint32_t refcount = meta.refcount.load(std::memory_order_relaxed);
    uint32_t pt_share = meta.pt_share_count.load(std::memory_order_relaxed);
    ++result.frames_swept;
    if (meta.IsHwPoisoned()) {
      // Quarantine bijection (docs/memory-failure.md): a poisoned frame is unmapped (the
      // offline rewrote every location; the auditor separately rejects present leaves that
      // reference it), off the LRU (never swap out dead bytes), and — once its last owner
      // dropped it — parked in quarantine, never re-allocatable. Allocated+poisoned is
      // legal only as the tail of a still-live split compound or a frame awaiting its
      // final DecRef; those still must have no mappings.
      ++poisoned_seen;
      if (kernel.lru().Contains(frame)) {
        violation(frame, meta, "hwpoisoned frame on the LRU");
      }
      if (meta.IsPageTable()) {
        violation(frame, meta, "hwpoisoned page-table frame (offline must refuse these)");
      }
    }
    if ((meta.flags & kPageFlagAllocated) == 0) {
      // Free (or per-thread-cached) frame: must be completely inert. Stale IncRef/DecRef
      // or flag writes against a freed frame show up right here. The ONE flag allowed to
      // survive a free is the sticky hwpoison bit (the frame is in — or headed for — the
      // quarantine parking lot).
      if (refcount != 0) {
        violation(frame, meta, "free frame has nonzero refcount");
      }
      if (pt_share != 0) {
        violation(frame, meta, "free frame has nonzero pt_share_count");
      }
      if ((meta.flags & ~kPageFlagHwPoison) != 0) {
        violation(frame, meta, "free frame has stale flags");
      }
      if (meta.lru_state.load(std::memory_order_relaxed) != 0) {
        violation(frame, meta, "free frame is on the LRU or in an add batch");
      }
      if (meta.anon_family != 0) {
        violation(frame, meta, "free frame kept its reverse-map stamp");
      }
      if (Compiled() && meta.reserved != 0 && meta.reserved != kPoisonFreed) {
        violation(frame, meta, "free frame canary clobbered");
      }
      continue;
    }
    if (meta.IsCompoundTail()) {
      FrameId head = meta.compound_head;
      if (head == kInvalidFrame || head >= total || head == frame) {
        violation(frame, meta, "compound tail with invalid head");
        continue;
      }
      const PageMeta& head_meta = allocator.GetMeta(head);
      if ((head_meta.flags & kPageFlagAllocated) == 0 || !head_meta.IsCompoundHead()) {
        violation(frame, meta, "compound tail points at a non-head frame");
      }
      if (refcount != 0) {
        violation(frame, meta, "compound tail carries its own refcount");
      }
      if (pt_share != 0) {
        violation(frame, meta, "compound tail carries a pt_share_count");
      }
      continue;  // Reachability is the head's property; tails ride along.
    }
    if (audit.reachable_frames.count(frame) == 0) {
      violation(frame, meta, "leaked frame (allocated but unreachable from any process "
                             "or the page cache)");
    }
    if (meta.IsCompoundHead()) {
      if (meta.order != kHugePageOrder) {
        violation(frame, meta, "compound head with wrong order");
      }
      if (meta.compound_head != frame) {
        violation(frame, meta, "compound head not its own head");
      }
    } else if (meta.order != 0) {
      violation(frame, meta, "order-0 frame with nonzero order");
    }
    if (meta.IsPageTable()) {
      if (meta.IsCompound()) {
        violation(frame, meta, "page-table frame marked compound");
      }
      if (pt_share == 0) {
        violation(frame, meta, "allocated page table with zero pt_share_count");
      }
      if (refcount != 1) {
        violation(frame, meta, "page-table frame refcount is not 1");
      }
      if (meta.materialized.load(std::memory_order_acquire) == 0) {
        violation(frame, meta, "page-table frame without entry storage");
      }
    } else {
      if (refcount == 0) {
        violation(frame, meta, "allocated data frame with zero refcount");
      }
      if (pt_share != 0) {
        violation(frame, meta, "data frame carries a pt_share_count");
      }
    }
  }
  // Flag population must match the counters the offline paths maintain (and quarantine can
  // hold at most the frames that were poisoned).
  FrameAllocatorStats stats = allocator.Stats();
  if (stats.hwpoisoned_frames != poisoned_seen) {
    result.violations.push_back(
        "hwpoisoned_frames counter " + std::to_string(stats.hwpoisoned_frames) +
        " != " + std::to_string(poisoned_seen) + " frames carrying the flag");
  }
  if (stats.quarantined_frames > stats.hwpoisoned_frames) {
    result.violations.push_back(
        "quarantine holds " + std::to_string(stats.quarantined_frames) +
        " frames but only " + std::to_string(stats.hwpoisoned_frames) + " are poisoned");
  }
}

// DESIGN.md invariant 9 / docs/reclaim.md "Rmap invariants", checked against the auditor's
// page-table walk:
//   - every running process is a member of a live anon family, and every member runs;
//   - every present anonymous leaf inside a VMA maps a frame stamped with that process's
//     family and the VMA's anon index of the leaf's VA — so the family walk finds it —
//     and no present anonymous leaf lies outside every VMA, where no walk would look;
//   - every LRU frame (list or add batch) is allocated, anonymous, order-0, tracked once,
//     in a state matching where it sits, and found by its own family walk.
// A missed mapping means eviction leaves a live translation to a freed frame; a stale LRU
// entry means reclaim would scan a frame it can no longer reach.
void CheckRmap(Kernel& kernel, const AuditResult& audit, VerifyResult& result) {
  FrameAllocator& allocator = kernel.allocator();
  reclaim::Rmap& rmap = kernel.rmap();
  auto violation = [&result](const std::string& what) { result.violations.push_back(what); };

  std::unordered_set<const uint64_t*> covered;
  std::unordered_set<const AddressSpace*> running;
  for (const std::shared_ptr<Process>& process : kernel.RunningProcesses()) {
    AddressSpace& as = process->address_space();
    running.insert(&as);
    const reclaim::AnonFamily* family = as.anon_family();
    if (family == nullptr || rmap.FindFamily(family->id()) != family ||
        std::find(family->members().begin(), family->members().end(), &as) ==
            family->members().end()) {
      violation("pid " + std::to_string(process->pid()) +
                " is not a member of a live anon family");
      continue;
    }
    for (const auto& [start, vma] : as.vmas()) {
      for (Vaddr chunk = EntryBase(vma.start, PtLevel::kPmd); chunk < vma.end;
           chunk += kPteTableSpan) {
        uint64_t* pmd_slot = as.walker().FindEntry(as.pgd(), chunk, PtLevel::kPmd);
        Pte pmd = pmd_slot != nullptr ? LoadEntry(pmd_slot) : Pte();
        if (!pmd.IsPresent()) {
          continue;
        }
        // A huge leaf is checked once, at its base (huge VMAs are 2 MiB-aligned).
        Vaddr lo = std::max(chunk, vma.start);
        Vaddr hi = pmd.IsHuge() ? lo + kPageSize : std::min(chunk + kPteTableSpan, vma.end);
        for (Vaddr va = lo; va < hi; va += kPageSize) {
          uint64_t* slot =
              pmd.IsHuge() ? pmd_slot
                           : &allocator.TableEntries(pmd.frame())[TableIndex(va, PtLevel::kPte)];
          Pte entry = LoadEntry(slot);
          if (!entry.IsPresent()) {
            continue;
          }
          FrameId frame = entry.frame();
          const PageMeta& meta = allocator.GetMeta(frame);
          if ((meta.flags & kPageFlagAnon) == 0) {
            continue;
          }
          covered.insert(slot);
          FrameId head = ResolveCompoundHead(meta, frame);
          const PageMeta& head_meta = allocator.GetMeta(head);
          uint64_t index = head_meta.AnonIndex() + (frame - head);
          if (head_meta.anon_family != family->id() || index != vma.AnonIndex(va)) {
            violation("anonymous frame " + std::to_string(frame) + " mapped by pid " +
                      std::to_string(process->pid()) + " at " + std::to_string(va) +
                      " is stamped (family " + std::to_string(head_meta.anon_family) +
                      ", index " + std::to_string(index) + "), expected (" +
                      std::to_string(family->id()) + ", " +
                      std::to_string(vma.AnonIndex(va)) + ")");
          }
        }
      }
    }
  }
  rmap.ForEachFamily([&](const reclaim::AnonFamily& family) {
    for (AddressSpace* member : family.members()) {
      if (member->anon_family() != &family || running.count(member) == 0) {
        violation("anon family " + std::to_string(family.id()) +
                  " lists an address space that is not a running member");
      }
    }
  });
  for (const auto& [slot, mapping] : audit.leaf_slots) {
    if ((allocator.GetMeta(mapping.first).flags & kPageFlagAnon) != 0 &&
        covered.count(slot) == 0) {
      violation("present anonymous leaf for frame " + std::to_string(mapping.first) +
                " lies outside every VMA (unreachable by the reverse map)");
    }
  }

  std::vector<FrameId> tracked;
  std::vector<reclaim::RmapLocation> locations;
  std::string lists = kernel.lru().ForEachTracked([&](FrameId frame, reclaim::LruState state) {
    tracked.push_back(frame);
    const PageMeta& meta = allocator.GetMeta(frame);
    std::string where = "LRU frame " + std::to_string(frame);
    if ((meta.flags & kPageFlagAllocated) == 0) {
      violation(where + " is free");
      return;
    }
    if ((meta.flags & kPageFlagAnon) == 0 || meta.IsCompound() || meta.IsPageTable()) {
      violation(where + " is not an anonymous order-0 page");
      return;
    }
    if (state == reclaim::LruState::kNone || state == reclaim::LruState::kIsolated) {
      violation(where + " is listed but its state says it is not");
    }
    locations.clear();
    {
      PtEpoch::ReadGuard epoch;
      rmap.Walk(frame, &locations);
    }
    if (locations.empty()) {
      violation(where + " is not found by its family walk");
    }
  });
  if (!lists.empty()) {
    violation(lists);
  }
  std::sort(tracked.begin(), tracked.end());
  auto duplicate = std::adjacent_find(tracked.begin(), tracked.end());
  if (duplicate != tracked.end()) {
    violation("frame " + std::to_string(*duplicate) + " is tracked twice by the LRU");
  }
}

}  // namespace

std::string VerifyResult::Describe() const {
  std::ostringstream out;
  out << "verified " << processes_audited << " processes, " << tables_checked << " tables, "
      << leaf_entries_checked << " leaf entries, " << frames_swept << " frames: ";
  if (violations.empty()) {
    out << "OK";
  } else {
    out << violations.size() << " violations\n";
    for (const std::string& violation : violations) {
      out << "  - " << violation << "\n";
    }
  }
  return out.str();
}

VerifyResult VerifyKernel(Kernel& kernel) {
  // Freeze the VM: the walk reads paging structures non-atomically and the rmap
  // comparison needs slots that are not being rewritten. The exclusive gate holds off
  // every mutator AND the shrinker (reentrant if this thread already holds it); the
  // pageout wait lets an evictor that released the gate finish, so no evicted frame still
  // owes its write-out or holds references no mapping accounts for.
  reclaim::MmGate::ExclusiveScope gate;
  reclaim::MmGate::WaitForPageouts();
  AuditResult audit = AuditKernel(kernel);
  VerifyResult result;
  result.violations = audit.violations;
  result.processes_audited = audit.processes_audited;
  result.tables_checked = audit.tables_checked;
  result.leaf_entries_checked = audit.leaf_entries_checked;
  CheckRmap(kernel, audit, result);
  SweepFrameArray(kernel, audit, result);
  return result;
}

VerifyStats GetVerifyStats() {
  VerifyStats stats;
  stats.runs = g_runs.load(std::memory_order_relaxed);
  stats.skipped_reentrant = g_skipped_reentrant.load(std::memory_order_relaxed);
  stats.skipped_concurrent = g_skipped_concurrent.load(std::memory_order_relaxed);
  stats.skipped_disabled = g_skipped_disabled.load(std::memory_order_relaxed);
  return stats;
}

void SetAutoVerify(bool enabled) { g_auto_verify.store(enabled, std::memory_order_relaxed); }

#if ODF_DEBUG_VM_COMPILED

void AutoVerifyKernel(Kernel& kernel, const char* what) {
  if (MutationScope::Depth() > 0) {
    // Hook fired from inside another mutation on this thread (an OOM kill's Exit during a
    // fork's allocation): the outer operation is mid-flight, so the structures are torn.
    g_skipped_reentrant.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (!g_auto_verify.load(std::memory_order_relaxed)) {
    g_skipped_disabled.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (!internal::TryLockQuiescent()) {
    // Another thread is mid-mutation; the walk would read torn state. Skip — a later
    // quiescent hook (or the test's own VerifyKernel call) covers it.
    g_skipped_concurrent.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  VerifyResult result = VerifyKernel(kernel);
  internal::UnlockQuiescent();
  g_runs.fetch_add(1, std::memory_order_relaxed);
  ODF_CHECK(result.ok()) << "post-" << what
                         << " kernel verification failed: " << result.Describe();
}

#endif  // ODF_DEBUG_VM_COMPILED

}  // namespace debug
}  // namespace odf
