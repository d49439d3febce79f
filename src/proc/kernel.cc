#include "src/proc/kernel.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "src/debug/lockdep.h"
#include "src/debug/verify.h"
#include "src/reclaim/mm_gate.h"
#include "src/reclaim/shrink.h"
#include "src/replay/recorder.h"
#include "src/trace/metrics.h"
#include "src/trace/trace.h"
#include "src/util/log.h"

namespace odf {

namespace {

// Process-table lock class. Recorded order: Kernel::table_mutex_ -> pool/registry locks
// (process teardown under the table lock frees frames into the allocator).
debug::LockClass g_table_lock_class("Kernel::table_mutex_");

}  // namespace

thread_local Process* Kernel::active_process_ = nullptr;

Kernel::Kernel() : fs_(&allocator_), rmap_(&allocator_, &lru_), lru_(&allocator_) {
  // A frame leaves the LRU when it is freed (docs/reclaim.md "LRU").
  allocator_.SetLruReleaseHook(
      [this](std::span<const FrameId> frames) { lru_.Release(frames); });
  allocator_.SetReclaimCallback([this](uint64_t want) { return ReclaimMemory(want); });
}

void Kernel::SetMemoryLimitFrames(uint64_t frames) {
  replay::OpScope op(OpKind::k_set_memory_limit, 0);
  op.Arg(frames);
  allocator_.SetFrameLimit(frames);
}

void Kernel::set_default_fork_mode(ForkMode mode) {
  replay::OpScope op(OpKind::k_set_default_fork_mode, 0);
  op.Arg(static_cast<uint64_t>(mode));
  default_fork_mode_ = mode;
}

reclaim::ShrinkContext Kernel::MakeShrinkContext() {
  reclaim::ShrinkContext ctx;
  ctx.allocator = &allocator_;
  ctx.swap = &swap_;
  ctx.rmap = &rmap_;
  ctx.lru = &lru_;
  // Coarse shootdown: the shrinker rewrote leaf entries (possibly in tables shared across
  // processes), so every TLB is stale. Runs while the evictor still holds the MmGate
  // exclusively, before any mutator resumes and before any evicted frame is freed.
  ctx.flush_tlbs = [this] {
    debug::MutexGuard guard(table_mutex_, g_table_lock_class);
    for (auto& [pid, process] : processes_) {
      process->address_space().locks().FlushAll();
    }
  };
  return ctx;
}

mf::MfContext Kernel::MakeMfContext() {
  mf::MfContext ctx;
  ctx.allocator = &allocator_;
  ctx.swap = &swap_;
  ctx.fs = &fs_;
  ctx.rmap = &rmap_;
  ctx.lru = &lru_;
  ctx.flush_tlbs = [this] {
    debug::MutexGuard guard(table_mutex_, g_table_lock_class);
    for (auto& [pid, process] : processes_) {
      process->address_space().locks().FlushAll();
    }
  };
  ctx.spaces = [this] {
    debug::MutexGuard guard(table_mutex_, g_table_lock_class);
    std::vector<AddressSpace*> spaces;
    for (auto& [pid, process] : processes_) {
      if (process->state() == ProcessState::kRunning) {
        spaces.push_back(&process->address_space());
      }
    }
    return spaces;
  };
  return ctx;
}

mf::MfResult Kernel::MemoryFailure(FrameId frame) {
#if !ODF_MEMORY_FAILURE_COMPILED
  (void)frame;
  return mf::MfResult::kNotSupported;
#else
  replay::OpScope op(OpKind::k_mf_hard_offline, 0);
  op.Arg(frame);
  mf::MfResult result;
  {
    debug::MutationScope mutation;
    // Offline rewrites mappings in tables shared across processes and flushes TLBs — the
    // evictor side of the gate, exactly like reclaim (upgrades any shared hold this
    // thread carries, e.g. when the ECC hook fires mid-AccessMemory).
    reclaim::MmGate::ExclusiveScope gate;
    mf::MfContext ctx = MakeMfContext();
    result = mf::HardOffline(ctx, frame);
  }
  debug::AutoVerifyKernel(*this, "memory-failure");
  op.Result(static_cast<uint64_t>(result));
  return result;
#endif
}

mf::MfResult Kernel::SoftOfflinePage(FrameId frame) {
#if !ODF_MEMORY_FAILURE_COMPILED
  (void)frame;
  return mf::MfResult::kNotSupported;
#else
  replay::OpScope op(OpKind::k_mf_soft_offline, 0);
  op.Arg(frame);
  mf::MfResult result;
  {
    debug::MutationScope mutation;
    reclaim::MmGate::ExclusiveScope gate;
    mf::MfContext ctx = MakeMfContext();
    result = mf::SoftOffline(ctx, frame);
  }
  debug::AutoVerifyKernel(*this, "soft-offline");
  op.Result(static_cast<uint64_t>(result));
  return result;
#endif
}

void Kernel::StartKswapd() {
  replay::OpScope op(OpKind::k_start_kswapd, 0);
  if (kswapd_ != nullptr) {
    return;
  }
  kswapd_ = std::make_unique<reclaim::Kswapd>(MakeShrinkContext());
  kswapd_->Start();
  reclaim::Kswapd* daemon = kswapd_.get();
  allocator_.SetPressureCallback([daemon] { daemon->Wake(); });
}

void Kernel::StopKswapd() {
  replay::OpScope op(OpKind::k_stop_kswapd, 0);
  if (kswapd_ == nullptr) {
    return;
  }
  allocator_.SetPressureCallback(nullptr);
  kswapd_->Stop();
  kswapd_.reset();
}

uint64_t Kernel::ReclaimMemory(uint64_t want) {
  // Recorded only when called directly (depth 0); reclaim triggered from inside another
  // op's allocation is nested and re-executes naturally on replay.
  replay::OpScope op(OpKind::k_reclaim, 0);
  op.Arg(want);
  // Reclaim mutates page tables and frees frames; it usually runs nested inside the
  // allocation that triggered it (whose own MutationScope is already open), but the scope
  // is reentrant so standing alone is fine too.
  debug::MutationScope mutation;
  CountVm(VmCounter::k_direct_reclaim);
  ODF_TRACE(reclaim_begin, /*pid=*/0, want);
  // ReclaimPages upgrades to the exclusive gate for its unmap phase: this thread is
  // typically a mutator mid-operation, whose shared hold is released for the whole round,
  // pageout included, and restored on return (mm_gate.h).
  reclaim::ShrinkContext ctx = MakeShrinkContext();
  uint64_t freed = reclaim::ReclaimPages(ctx, want);
  if (freed > 0) {
    ODF_TRACE(reclaim_end, /*pid=*/0, want, freed);
    op.Result(freed);
    return freed;
  }
  // The OOM killer is a last resort for genuine exhaustion only. A direct ReclaimMemory
  // call (or an allocation retried under fault injection) can arrive here with nothing on
  // the LRU but plenty of free frames — that is not an OOM.
  uint64_t free_frames = allocator_.FreeFrames();
  if (free_frames >= want) {
    ODF_TRACE(reclaim_end, /*pid=*/0, want, /*freed=*/0);
    return 0;
  }
  // Nothing reclaimable: OOM-kill the largest running process (by mapped bytes), like the
  // kernel's last resort. Its teardown releases frames. Runs OUTSIDE the exclusive gate:
  // Exit re-enters the mutator path (shared gate) and must not self-deadlock. The
  // shared_ptr snapshot keeps every candidate alive while we weigh them against a
  // concurrent Wait() reaping zombies.
  std::vector<std::shared_ptr<Process>> candidates = RunningProcesses();
  std::shared_ptr<Process> victim;
  uint64_t victim_bytes = 0;
  for (const std::shared_ptr<Process>& process : candidates) {
    if (process.get() == active_process_) {
      continue;  // Never kill the process whose allocation we are servicing.
    }
    uint64_t bytes = process->address_space().MappedBytes();
    if (process->state() == ProcessState::kRunning && bytes > victim_bytes) {
      victim = process;
      victim_bytes = bytes;
    }
  }
  if (victim == nullptr) {
    ODF_TRACE(reclaim_end, /*pid=*/0, want, /*freed=*/0);
    return 0;
  }
  ODF_LOG(kWarn) << "OOM killer: killing pid " << victim->pid() << " (" << victim_bytes
                 << " mapped bytes)";
  uint64_t before = allocator_.Stats().allocated_frames;
  ODF_TRACE(oom_kill, victim->pid(), victim_bytes);
  ExitInternal(*victim, -9, /*oom=*/true);
  oom_kills_.fetch_add(1, std::memory_order_relaxed);
  CountVm(VmCounter::k_oom_kills);
  uint64_t after = allocator_.Stats().allocated_frames;
  uint64_t reclaimed = before > after ? before - after : 0;
  ODF_TRACE(reclaim_end, /*pid=*/0, want, reclaimed);
  op.Result(reclaimed);
  return reclaimed;
}

Kernel::~Kernel() {
  // The daemon holds a ShrinkContext referencing this kernel; stop it before teardown.
  StopKswapd();
  debug::MutationScope mutation;
  reclaim::MmGate::SharedScope gate;
  // Tear down in pid order; address spaces release their frames as they go.
  {
    debug::MutexGuard guard(table_mutex_, g_table_lock_class);
    processes_.clear();
  }
  allocator_.SetLruReleaseHook(nullptr);  // The LRU dies before the allocator.
}

Process& Kernel::CreateProcess() {
  replay::OpScope op(OpKind::k_create_process, 0);
  debug::MutationScope mutation;
  reclaim::MmGate::SharedScope gate;  // Mutator: excludes the shrinker (mm_gate.h).
  auto as = std::make_unique<AddressSpace>(&allocator_, &swap_, &rmap_);
  rmap_.CreateFamily(*as);
  debug::MutexGuard guard(table_mutex_, g_table_lock_class);
  Pid pid = next_pid_++;
  auto process = std::make_shared<Process>(this, pid, /*parent=*/0, std::move(as));
  process->fork_mode_ = default_fork_mode_;
  Process& ref = *process;
  processes_.emplace(pid, std::move(process));
  CountVm(VmCounter::k_proc_created);
  ODF_TRACE(proc_create, pid, /*parent=*/0);
  op.Result(static_cast<uint64_t>(pid));
  return ref;
}

Process& Kernel::Fork(Process& parent, ForkMode mode, ForkProfile* profile) {
  replay::OpScope op(OpKind::k_fork, parent.pid());
  op.Arg(static_cast<uint64_t>(mode));
  Process* child = TryFork(parent, mode, profile);
  if (child != nullptr) {
    op.Result(static_cast<uint64_t>(child->pid()));
  }
  ODF_CHECK(child != nullptr) << "fork of pid " << parent.pid()
                              << " failed: out of simulated memory (NOFAIL Fork; use "
                                 "TryFork for recoverable ENOMEM)";
  return *child;
}

Process* Kernel::TryFork(Process& parent, ForkMode mode, ForkProfile* profile) {
  replay::OpScope op(OpKind::k_try_fork, parent.pid());
  op.Arg(static_cast<uint64_t>(mode));
  // The fork body runs inside a MutationScope (closed before the post-fork verifier hook
  // below); the lambda keeps the early rollback return inside the scope.
  Process* forked = [&]() -> Process* {
    debug::MutationScope mutation;
    ODF_CHECK(parent.state() == ProcessState::kRunning);
    ActiveProcessScope immune(&parent);  // The parent must survive its own fork's allocations.
    // The child AS is constructed BEFORE any lock: its PGD allocation may quota-wait, and
    // no lock may be held across a quota wait (mm_gate.h rules).
    auto child_as = std::make_unique<AddressSpace>(&allocator_, &swap_, &rmap_);
    // Copy under the parent's AS gate held exclusively: fork is a whole-AS structural
    // operation (write-protects entries, bumps share counts) and must not interleave with
    // the parent's faults from other threads. MmGate shared nests inside per the lock
    // order. Quota waits inside the copy are still sound — reclaim never takes an AS gate
    // (the OOM killer's ExitInternal skips the victim's).
    MmLockTable::WriteScope ws(parent.address_space().locks());
    reclaim::MmGate::SharedScope gate;  // Mutator: excludes the shrinker (mm_gate.h).
    if (!CopyAddressSpace(parent.address_space(), *child_as, mode, profile)) {
      // Transactional rollback: the half-built child holds real references (page refcounts,
      // table share counts, swap-slot refs), all reachable through its own page tables.
      // TearDown clears the VMA list first, so shared tables are dropped whole — never
      // dedicated — making the unwind allocation-free (rollback cannot itself fail).
      child_as->TearDown();
      CountVm(VmCounter::k_fork_rollback);
      ODF_TRACE(fork_rollback, parent.pid(), static_cast<uint64_t>(mode));
      return nullptr;
    }

    debug::MutexGuard guard(table_mutex_, g_table_lock_class);
    Pid pid = next_pid_++;
    auto child = std::make_shared<Process>(this, pid, parent.pid(), std::move(child_as));
    child->fork_mode_ = parent.fork_mode();
    parent.children_.push_back(pid);
    Process& ref = *child;
    processes_.emplace(pid, std::move(child));
    CountVm(VmCounter::k_proc_created);
    ODF_TRACE(proc_create, pid, static_cast<uint64_t>(parent.pid()));
    return &ref;
  }();
  // Rollbacks are verified too: a failed fork must leave the kernel exactly as it was.
  debug::AutoVerifyKernel(*this, "fork");
  op.Result(forked != nullptr ? static_cast<uint64_t>(forked->pid()) : 0);
  return forked;
}

void Kernel::Exit(Process& process, int code) { ExitInternal(process, code, /*oom=*/false); }

void Kernel::ExitInternal(Process& process, int code, bool oom) {
  replay::OpScope op(OpKind::k_exit, process.pid());
  op.Arg(static_cast<uint64_t>(static_cast<int64_t>(code)));
  {
    debug::MutationScope mutation;
    // Victim's AS gate, exclusive: a normal Exit may race the victim's own driver thread
    // mid-fault. The OOM killer skips it — its victim is never mid-operation
    // (ActiveProcessScope), and the killer may already hold ANOTHER process's gate from
    // the fault path that triggered reclaim; a second gate here would invert lock order.
    std::optional<MmLockTable::WriteScope> ws;
    if (!oom) {
      ws.emplace(process.as_->locks());
    }
    ODF_CHECK(process.state() == ProcessState::kRunning)
        << "double exit of pid " << process.pid();
    process.exit_code_ = code;
    process.as_->TearDown();  // Takes the MmGate shared internally.
    process.state_ = ProcessState::kZombie;
    CountVm(VmCounter::k_proc_exited);
    ODF_TRACE(proc_exit, process.pid(), static_cast<uint64_t>(code));
    // Reparent any children to init (pid 0 == no reaper; they self-reap on Wait misses).
  }
  // Skipped automatically when this Exit is an OOM kill nested inside another mutation.
  debug::AutoVerifyKernel(*this, "exit");
}

Pid Kernel::Wait(Process& parent) {
  replay::OpScope op(OpKind::k_wait, parent.pid());
  debug::MutationScope mutation;  // Reaping destroys the zombie's remaining state.
  debug::MutexGuard guard(table_mutex_, g_table_lock_class);
  for (auto it = parent.children_.begin(); it != parent.children_.end(); ++it) {
    auto found = processes_.find(*it);
    if (found != processes_.end() && found->second->state() == ProcessState::kZombie) {
      Pid pid = *it;
      processes_.erase(found);
      parent.children_.erase(it);
      ODF_TRACE(proc_reap, pid, static_cast<uint64_t>(parent.pid()));
      op.Result(static_cast<uint64_t>(pid) + 1);  // Reaped pid + 1; 0 == none.
      return pid;
    }
  }
  return -1;
}

Process* Kernel::FindProcess(Pid pid) {
  debug::MutexGuard guard(table_mutex_, g_table_lock_class);
  auto it = processes_.find(pid);
  return it == processes_.end() ? nullptr : it->second.get();
}

std::vector<std::shared_ptr<Process>> Kernel::RunningProcesses() {
  debug::MutexGuard guard(table_mutex_, g_table_lock_class);
  std::vector<std::shared_ptr<Process>> result;
  for (auto& [pid, process] : processes_) {
    if (process->state() == ProcessState::kRunning) {
      result.push_back(process);
    }
  }
  return result;
}

size_t Kernel::ProcessCount() const {
  debug::MutexGuard guard(table_mutex_, g_table_lock_class);
  return processes_.size();
}

size_t Kernel::RunningProcessCount() const {
  debug::MutexGuard guard(table_mutex_, g_table_lock_class);
  return static_cast<size_t>(
      std::count_if(processes_.begin(), processes_.end(), [](const auto& entry) {
        return entry.second->state() == ProcessState::kRunning;
      }));
}

}  // namespace odf
