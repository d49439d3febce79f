#include "src/replay/replayer.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <deque>
#include <map>
#include <sstream>
#include <vector>

#include "src/debug/verify.h"
#include "src/fi/fault_inject.h"
#include "src/mm/address_space.h"
#include "src/mm/swap.h"
#include "src/phys/frame_allocator.h"
#include "src/phys/page_meta.h"
#include "src/proc/kernel.h"
#include "src/proc/process.h"
#include "src/pt/geometry.h"
#include "src/pt/pte.h"
#include "src/replay/recorder.h"
#include "src/trace/metrics.h"
#include "src/util/log.h"

namespace odf {
namespace replay {

namespace {

// Digest of a logically-zero page (absent / never-materialized / zero-backed swap slot).
uint64_t ZeroPageDigest() {
  static const uint64_t digest = [] {
    std::vector<std::byte> zeros(kPageSize);
    return Fnv1aBytes(zeros.data(), zeros.size());
  }();
  return digest;
}

// Folds one VMA's pages into the process digests, in VA order. Pages fold as their
// per-page FNV digest (so absent pages cost one u64 fold, not a 4 KiB hash); the chain is
// order-sensitive, which pins the layout as well as the bytes.
void DigestVma(AddressSpace& as, const VmArea& vma, FinalProcessRecord* rec,
               uint64_t* content, uint64_t* refs) {
  FrameAllocator& alloc = as.allocator();
  SwapSpace* swap = as.swap_space();
  for (Vaddr chunk = EntryBase(vma.start, PtLevel::kPmd); chunk < vma.end;
       chunk += kPteTableSpan) {
    Vaddr lo = std::max(chunk, vma.start);
    Vaddr hi = std::min(chunk + kPteTableSpan, vma.end);
    uint64_t* pmd_slot = as.walker().FindEntry(as.pgd(), chunk, PtLevel::kPmd);
    Pte pmd = pmd_slot != nullptr ? LoadEntry(pmd_slot) : Pte();

    if (pmd.IsPresent() && pmd.IsHuge()) {
      FrameId head = pmd.frame();
      const std::byte* data = alloc.PeekData(head);
      for (Vaddr va = lo; va < hi; va += kPageSize) {
        uint64_t page = data != nullptr ? Fnv1aBytes(data + (va - chunk), kPageSize)
                                        : ZeroPageDigest();
        *content = Fnv1aU64(page, *content);
        ++rec->present_pages;
      }
      *refs = Fnv1aU64(alloc.GetMeta(head).refcount.load(std::memory_order_acquire), *refs);
      continue;
    }

    uint64_t* entries =
        pmd.IsPresent() && !pmd.IsHuge() ? alloc.TableEntries(pmd.frame()) : nullptr;
    if (entries != nullptr) {
      *refs = Fnv1aU64(
          alloc.GetMeta(pmd.frame()).pt_share_count.load(std::memory_order_acquire), *refs);
    }
    for (Vaddr va = lo; va < hi; va += kPageSize) {
      Pte pte = entries != nullptr
                    ? LoadEntry(&entries[(va >> kPteFrameShift) & (kEntriesPerTable - 1)])
                    : Pte();
      uint64_t page = ZeroPageDigest();
      if (pte.IsPresent()) {
        FrameId frame = pte.frame();
        const PageMeta& meta = alloc.GetMeta(frame);
        FrameId head = ResolveCompoundHead(meta, frame);
        const std::byte* data = alloc.PeekData(head);
        if (data != nullptr) {
          page = Fnv1aBytes(data + static_cast<uint64_t>(frame - head) * kPageSize,
                            kPageSize);
        }
        *refs = Fnv1aU64(alloc.GetMeta(head).refcount.load(std::memory_order_acquire), *refs);
        ++rec->present_pages;
      } else if (pte.IsSwap() && swap != nullptr) {
        const std::byte* data = swap->PeekSlot(pte.swap_slot());
        if (data != nullptr) {
          page = Fnv1aBytes(data, kPageSize);
        }
        *refs = Fnv1aU64(swap->RefCount(pte.swap_slot()), *refs);
        ++rec->swap_pages;
      }
      *content = Fnv1aU64(page, *content);
    }
  }
}

}  // namespace

FinalProcessRecord CaptureProcessFinal(Process& process) {
  FinalProcessRecord rec;
  rec.pid = process.pid();
  AddressSpace& as = process.address_space();
  rec.vma_count = as.vmas().size();
  uint64_t content = kFnvOffset;
  uint64_t refs = kFnvOffset;
  for (const auto& [start, vma] : as.vmas()) {
    DigestVma(as, vma, &rec, &content, &refs);
  }
  rec.content_digest = content;
  rec.ref_digest = refs;
  return rec;
}

FinalAllocRecord CaptureAllocFinal(Kernel& kernel) {
  FinalAllocRecord rec;
  FrameAllocatorStats stats = kernel.allocator().Stats();
  rec.allocated_frames = stats.allocated_frames;
  rec.page_table_frames = stats.page_table_frames;
  rec.swap_slots_in_use = kernel.swap_space().Stats().slots_in_use;
  return rec;
}

void FinalizeRecording(Kernel& kernel) {
  std::vector<FinalProcessRecord> processes;
  for (const auto& process : kernel.RunningProcesses()) {
    processes.push_back(CaptureProcessFinal(*process));
  }
  Recorder::Global().CaptureFinalState(processes, CaptureAllocFinal(kernel));
}

bool StopAndWriteLog(Kernel& kernel, const std::string& path, std::string* error) {
  Recorder& recorder = Recorder::Global();
  if (recorder.recording()) {
    FinalizeRecording(kernel);
  }
  recorder.Stop();
  return recorder.WriteLog(path, error);
}

bool CounterReplayComparable(uint32_t counter) {
  switch (static_cast<VmCounter>(counter)) {
    // Per-CPU cache traffic depends on which threads touched the allocator before the
    // recording started; frames_allocated/freed include refill/drain batching.
    case VmCounter::k_pcp_hit:
    case VmCounter::k_pcp_miss:
    case VmCounter::k_pcp_refill:
    case VmCounter::k_pcp_drain:
    // Whether a table allocation finds a zeroed table parked depends on the same history.
    case VmCounter::k_pt_quicklist_hit:
    case VmCounter::k_pt_quicklist_miss:
    case VmCounter::k_batch_free:
    case VmCounter::k_frames_allocated:
    case VmCounter::k_frames_freed:
    // Background-daemon scheduling.
    case VmCounter::k_kswapd_wake:
    // Lock contention is timing, not semantics: whether a shared-gate acquisition had to
    // wait depends on the physical interleaving, which replay does not reproduce.
    case VmCounter::k_lock_contended:
    // Translation-cache tiers: whether an access hits the per-thread cache depends on what
    // the replaying thread touched before, which replay does not reproduce.
    case VmCounter::k_tlb_hits:
    case VmCounter::k_tlb_misses:
    case VmCounter::k_tlb_l1_hits:
    // A pin or recheck fails when a concurrent mutator raced the hit, and on every L1 walk
    // that reaches a split-compound tail, which the thread's cache state decides.
    case VmCounter::k_tlb_pin_retries:
    // Whether a swap-in finds its slot's write-out still pending depends on when the
    // evictor commits, which runs without the gate; how long it held the gate is timing.
    case VmCounter::k_pgswapin_pending:
    case VmCounter::k_mm_gate_hold_ns:
    // How long a gate acquisition waited is timing too.
    case VmCounter::k_mm_gate_wait_ns:
    case VmCounter::k_as_gate_wait_ns:
    // Aging runs beside the mutators, so how many frames kswapd's passes isolate depends on
    // what the recorded threads faulted meanwhile.
    case VmCounter::k_pgrefill:
    // The recorder's own accounting: bumped while recording, quiet while replaying.
    case VmCounter::k_trace_ring_overwrite:
    case VmCounter::k_replay_ops_recorded:
    case VmCounter::k_replay_events_recorded:
    case VmCounter::k_replay_events_dropped:
    case VmCounter::k_replay_record_bytes:
      return false;
    default:
      return true;
  }
}

std::string ReplayReport::Describe() const {
  std::ostringstream out;
  out << "replayed " << ops_replayed << "/" << ops_total << " ops";
  if (last_seq != 0) {
    out << " (through seq " << last_seq << ")";
  }
  if (ok()) {
    out << ": OK\n";
    return out.str();
  }
  out << ": FAILED\n";
  if (!error.empty()) {
    out << "  error: " << error << "\n";
  }
  for (const std::string& divergence : divergences) {
    out << "  divergence: " << divergence << "\n";
  }
  return out.str();
}

namespace {

constexpr size_t kMaxReportedDivergences = 32;

struct ReplayState {
  ReplayReport* report;
  std::map<int32_t, Process*> procs;
  uint64_t suppressed_divergences = 0;

  void Diverge(const OpRecord& op, const std::string& what) {
    if (report->divergences.size() < kMaxReportedDivergences) {
      report->divergences.push_back("seq " + std::to_string(op.seq) + " " +
                                    OpKindName(op.kind) + ": " + what);
    } else {
      ++suppressed_divergences;
    }
  }

  void ExpectU64(const OpRecord& op, const char* field, uint64_t recorded, uint64_t got) {
    if (recorded != got) {
      Diverge(op, std::string(field) + " recorded " + std::to_string(recorded) + ", got " +
                      std::to_string(got));
    }
  }
};

// Per-site queues of pinned verdict windows. Per-site call indices restart at every arming,
// so the recorded decisions segment into windows at call == 1 boundaries (file order
// preserves each site's recording order); the replay loop pins window N when the Nth fi_arm
// op for that site replays.
struct FiWindowQueues {
  std::array<std::deque<std::vector<bool>>, kFiSiteCount> by_site;
};

FiWindowQueues BuildFiWindows(const ReplayLog& log) {
  FiWindowQueues queues;
  std::array<std::vector<bool>*, kFiSiteCount> open{};
  for (const FiDecisionRecord& decision : log.fi_decisions) {
    if (decision.site >= kFiSiteCount) {
      continue;
    }
    if (decision.call == 1 || open[decision.site] == nullptr) {
      queues.by_site[decision.site].emplace_back();
      open[decision.site] = &queues.by_site[decision.site].back();
    }
    std::vector<bool>& window = *open[decision.site];
    if (window.size() < decision.call) {
      window.resize(decision.call, false);
    }
    window[decision.call - 1] = decision.verdict;
  }
  return queues;
}

// Resets the injector to the recorded seed and builds the verdict windows. Sites armed
// before Recorder::Start have no fi_arm op in the log — their first window is pinned up
// front (best effort: decisions before Start are unknown and default to no-inject; the
// determinism contract in docs/replay.md says to arm after Start).
void PinFromLog(const ReplayLog& log, FiWindowQueues* queues) {
  fi::FaultInjector& injector = fi::FaultInjector::Global();
  injector.Reset(log.fi_seed);
  *queues = BuildFiWindows(log);
  std::array<bool, kFiSiteCount> has_arm_op{};
  for (const OpRecord& op : log.ops) {
    if (op.kind == OpKind::k_fi_arm && op.Arg(0) < kFiSiteCount) {
      has_arm_op[op.Arg(0)] = true;
    }
  }
  for (size_t site = 0; site < kFiSiteCount; ++site) {
    if (!has_arm_op[site] && !queues->by_site[site].empty()) {
      injector.PinForReplay(static_cast<FiSite>(site),
                            std::move(queues->by_site[site].front()));
      queues->by_site[site].pop_front();
    }
  }
}

}  // namespace

ReplayReport Replay(const ReplayLog& log, const ReplayOptions& options) {
  ReplayReport report;
  report.ops_total = log.ops.size();
  if (!log.Complete()) {
    report.error =
        "log is not replayable: the op stream has gaps (ops_dropped=" +
        std::to_string(log.ops_dropped) + ", fi_dropped=" + std::to_string(log.fi_dropped) +
        "); black-box logs that wrapped are inspectable but not replayable";
    return report;
  }
  report.parsed = true;

  std::array<uint64_t, kVmCounterCount> baseline = ReadAllVm();
  FiWindowQueues fi_windows;
  if (options.pin_fi) {
    PinFromLog(log, &fi_windows);
  }

  Kernel kernel;
  ReplayState state{&report, {}, 0};
  bool fatal = false;

  for (const OpRecord& op : log.ops) {
    if (options.until_seq != 0 && op.seq > options.until_seq) {
      break;
    }
    Process* p = nullptr;
    if (op.pid != 0) {
      auto it = state.procs.find(op.pid);
      if (it == state.procs.end()) {
        report.error = "seq " + std::to_string(op.seq) + " " + OpKindName(op.kind) +
                       ": process " + std::to_string(op.pid) +
                       " unknown — the schedule diverged fatally";
        fatal = true;
        break;
      }
      p = it->second;
    }

    switch (op.kind) {
      case OpKind::k_create_process: {
        Process& created = kernel.CreateProcess();
        state.ExpectU64(op, "pid", op.result, static_cast<uint64_t>(created.pid()));
        Pid key = op.result != 0 ? static_cast<Pid>(op.result) : created.pid();
        state.procs[key] = &created;
        break;
      }
      case OpKind::k_fork: {
        Process& child = kernel.Fork(*p, static_cast<ForkMode>(op.Arg(0)));
        state.ExpectU64(op, "child pid", op.result, static_cast<uint64_t>(child.pid()));
        Pid key = op.result != 0 ? static_cast<Pid>(op.result) : child.pid();
        state.procs[key] = &child;
        break;
      }
      case OpKind::k_try_fork: {
        Process* child = kernel.TryFork(*p, static_cast<ForkMode>(op.Arg(0)));
        uint64_t got = child != nullptr ? static_cast<uint64_t>(child->pid()) : 0;
        state.ExpectU64(op, "child pid", op.result, got);
        if (child != nullptr) {
          Pid key = op.result != 0 ? static_cast<Pid>(op.result) : child->pid();
          state.procs[key] = child;
        }
        break;
      }
      case OpKind::k_exit:
        kernel.Exit(*p, static_cast<int>(static_cast<int64_t>(op.Arg(0))));
        break;
      case OpKind::k_wait: {
        Pid reaped = kernel.Wait(*p);
        state.ExpectU64(op, "reaped pid + 1", op.result,
                        static_cast<uint64_t>(static_cast<int64_t>(reaped) + 1));
        if (reaped >= 0) {
          state.procs.erase(reaped);
        }
        break;
      }
      case OpKind::k_set_default_fork_mode:
        kernel.set_default_fork_mode(static_cast<ForkMode>(op.Arg(0)));
        break;
      case OpKind::k_set_fork_mode:
        p->set_fork_mode(static_cast<ForkMode>(op.Arg(0)));
        break;
      case OpKind::k_set_memory_limit:
        kernel.SetMemoryLimitFrames(op.Arg(0));
        break;
      case OpKind::k_reclaim:
        state.ExpectU64(op, "frames freed", op.result, kernel.ReclaimMemory(op.Arg(0)));
        break;
      case OpKind::k_start_kswapd:
        kernel.StartKswapd();
        break;
      case OpKind::k_stop_kswapd:
        kernel.StopKswapd();
        break;
      case OpKind::k_mmap: {
        Vaddr va = p->Mmap(op.Arg(0), static_cast<uint32_t>(op.Arg(1)), op.Arg(2) != 0);
        state.ExpectU64(op, "va", op.result, va);
        break;
      }
      case OpKind::k_munmap:
        p->Munmap(op.Arg(0), op.Arg(1));
        break;
      case OpKind::k_mremap: {
        Vaddr va = p->Mremap(op.Arg(0), op.Arg(1), op.Arg(2));
        state.ExpectU64(op, "va", op.result, va);
        break;
      }
      case OpKind::k_madvise_dontneed:
        p->MadviseDontNeed(op.Arg(0), op.Arg(1));
        break;
      case OpKind::k_populate:
        p->address_space().PopulateRange(op.Arg(0), op.Arg(1));
        break;
      case OpKind::k_write: {
        bool ok = p->WriteMemory(op.Arg(0), std::span(op.payload));
        state.ExpectU64(op, "ok", op.result, ok ? 1 : 0);
        state.ExpectU64(op, "fault status", op.status,
                        static_cast<uint64_t>(p->last_fault_result()));
        break;
      }
      case OpKind::k_read: {
        std::vector<std::byte> buffer(op.Arg(1));
        bool ok = p->ReadMemory(op.Arg(0), std::span(buffer));
        state.ExpectU64(op, "fault status", op.status,
                        static_cast<uint64_t>(p->last_fault_result()));
        state.ExpectU64(op, "read digest", op.result,
                        ok ? Fnv1aBytes(buffer.data(), buffer.size()) : 0);
        break;
      }
      case OpKind::k_memset: {
        bool ok =
            p->MemsetMemory(op.Arg(0), static_cast<std::byte>(op.Arg(1)), op.Arg(2));
        state.ExpectU64(op, "ok", op.result, ok ? 1 : 0);
        state.ExpectU64(op, "fault status", op.status,
                        static_cast<uint64_t>(p->last_fault_result()));
        break;
      }
      case OpKind::k_touch: {
        bool ok = p->TouchRange(op.Arg(0), op.Arg(1), static_cast<AccessType>(op.Arg(2)));
        state.ExpectU64(op, "ok", op.result, ok ? 1 : 0);
        state.ExpectU64(op, "fault status", op.status,
                        static_cast<uint64_t>(p->last_fault_result()));
        break;
      }
      case OpKind::k_fi_arm: {
        auto site_index = static_cast<size_t>(op.Arg(0));
        if (site_index >= kFiSiteCount) {
          state.Diverge(op, "unknown fi site " + std::to_string(site_index));
          break;
        }
        FiSite site = static_cast<FiSite>(site_index);
        if (options.pin_fi) {
          // Pin the next recorded window; a site armed but never consulted pins an empty
          // schedule, so any replay-side call shows up as PinnedOverflow.
          std::deque<std::vector<bool>>& queue = fi_windows.by_site[site_index];
          std::vector<bool> verdicts;
          if (!queue.empty()) {
            verdicts = std::move(queue.front());
            queue.pop_front();
          }
          fi::FaultInjector::Global().PinForReplay(site, std::move(verdicts));
        } else {
          FiSiteConfig config;
          uint64_t probability_bits = op.Arg(1);
          std::memcpy(&config.probability, &probability_bits, sizeof(config.probability));
          config.nth = op.Arg(2);
          config.interval = op.Arg(3);
          config.times = static_cast<int64_t>(op.Arg(4));
          fi::FaultInjector::Global().Arm(site, config);
        }
        break;
      }
      case OpKind::k_fi_disarm:
        if (op.Arg(0) < kFiSiteCount) {
          fi::FaultInjector::Global().Disarm(static_cast<FiSite>(op.Arg(0)));
        }
        break;
      case OpKind::k_fi_reset:
        fi::FaultInjector::Global().Reset(op.Arg(0));
        break;
      case OpKind::k_mf_hard_offline:
        state.ExpectU64(op, "mf result", op.result,
                        static_cast<uint64_t>(
                            kernel.MemoryFailure(static_cast<FrameId>(op.Arg(0)))));
        break;
      case OpKind::k_mf_soft_offline:
        state.ExpectU64(op, "mf result", op.result,
                        static_cast<uint64_t>(
                            kernel.SoftOfflinePage(static_cast<FrameId>(op.Arg(0)))));
        break;
      case OpKind::kCount:
        state.Diverge(op, "unknown op kind");
        break;
    }

    ++report.ops_replayed;
    report.last_seq = op.seq;
  }

  kernel.StopKswapd();  // Replayed schedules must not leave the daemon running.
  bool full_replay = !fatal && options.until_seq == 0 && report.ops_replayed == report.ops_total;
  // Per-site call/injection counts (last armed window, both sides): overflow catches extra
  // replay-side decisions, this catches a replay that consumed too few.
  if (options.check_final && full_replay && log.finalized) {
    for (const FinalFiRecord& recorded : log.final_fi) {
      if (recorded.site >= kFiSiteCount) {
        continue;
      }
      FiSiteStats got = fi::FaultInjector::Global().SiteStats(static_cast<FiSite>(recorded.site));
      if (got.calls != recorded.calls || got.injected != recorded.injected) {
        report.divergences.push_back(
            std::string("fault injection: site ") +
            FiSiteName(static_cast<FiSite>(recorded.site)) + " recorded " +
            std::to_string(recorded.calls) + " calls / " + std::to_string(recorded.injected) +
            " injected, got " + std::to_string(got.calls) + " / " +
            std::to_string(got.injected));
      }
    }
  }
  if (options.pin_fi) {
    if (fi::FaultInjector::Global().PinnedOverflow() != 0 && !fatal) {
      report.divergences.push_back(
          "fault injection: replay demanded " +
          std::to_string(fi::FaultInjector::Global().PinnedOverflow()) +
          " decision(s) past the recorded schedule");
    }
    fi::FaultInjector::Global().UnpinAll();
  }

  if (options.run_verifier && !fatal) {
    debug::VerifyResult verify = debug::VerifyKernel(kernel);
    for (const std::string& violation : verify.violations) {
      report.divergences.push_back("verifier: " + violation);
    }
  }

  if (options.check_final && full_replay && log.finalized) {
    for (const FinalProcessRecord& recorded : log.final_processes) {
      auto it = state.procs.find(recorded.pid);
      if (it == state.procs.end() || it->second->state() != ProcessState::kRunning) {
        report.divergences.push_back("final state: process " + std::to_string(recorded.pid) +
                                     " not running after replay");
        continue;
      }
      FinalProcessRecord got = CaptureProcessFinal(*it->second);
      auto check = [&](const char* field, uint64_t want, uint64_t have) {
        if (want != have) {
          report.divergences.push_back("final state: pid " + std::to_string(recorded.pid) +
                                       " " + field + " recorded " + std::to_string(want) +
                                       ", got " + std::to_string(have));
        }
      };
      check("vma_count", recorded.vma_count, got.vma_count);
      check("present_pages", recorded.present_pages, got.present_pages);
      check("swap_pages", recorded.swap_pages, got.swap_pages);
      check("content_digest", recorded.content_digest, got.content_digest);
      check("ref_digest", recorded.ref_digest, got.ref_digest);
    }
    if (kernel.RunningProcessCount() != log.final_processes.size()) {
      report.divergences.push_back(
          "final state: " + std::to_string(kernel.RunningProcessCount()) +
          " running processes after replay, recorded " +
          std::to_string(log.final_processes.size()));
    }
    if (log.final_alloc.has_value()) {
      FinalAllocRecord got = CaptureAllocFinal(kernel);
      auto check = [&](const char* field, uint64_t want, uint64_t have) {
        if (want != have) {
          report.divergences.push_back(std::string("final state: ") + field + " recorded " +
                                       std::to_string(want) + ", got " +
                                       std::to_string(have));
        }
      };
      check("allocated_frames", log.final_alloc->allocated_frames, got.allocated_frames);
      check("page_table_frames", log.final_alloc->page_table_frames, got.page_table_frames);
      check("swap_slots_in_use", log.final_alloc->swap_slots_in_use, got.swap_slots_in_use);
    }
    std::array<uint64_t, kVmCounterCount> recorded_deltas{};
    for (const FinalVmRecord& vm : log.final_vm) {
      if (vm.counter < kVmCounterCount) {
        recorded_deltas[vm.counter] = vm.delta;
      }
    }
    std::array<uint64_t, kVmCounterCount> final_counts = ReadAllVm();
    for (uint32_t i = 0; i < kVmCounterCount; ++i) {
      if (!CounterReplayComparable(i)) {
        continue;
      }
      uint64_t got = final_counts[i] - baseline[i];
      if (got != recorded_deltas[i]) {
        report.divergences.push_back(
            std::string("final state: vmstat ") +
            VmCounterName(static_cast<VmCounter>(i)) + " delta recorded " +
            std::to_string(recorded_deltas[i]) + ", got " + std::to_string(got));
      }
    }
  }

  if (state.suppressed_divergences != 0) {
    report.divergences.push_back("... " + std::to_string(state.suppressed_divergences) +
                                 " further divergence(s) suppressed");
  }
  return report;
}

ReplayReport ReplayFile(const std::string& path, const ReplayOptions& options) {
  ReplayLog log;
  ReplayReport report;
  if (!ReadLogFile(path, &log, &report.error)) {
    return report;
  }
  return Replay(log, options);
}

}  // namespace replay
}  // namespace odf
