// Kernel facade: owns the physical frame pool, the filesystem, and the process table, and
// dispatches fork / exit / wait. This is the library's main entry point.
//
// Typical use:
//   odf::Kernel kernel;
//   odf::Process& init = kernel.CreateProcess();
//   odf::Vaddr buf = init.Mmap(1 << 30, odf::kProtRead | odf::kProtWrite);
//   ... fill memory ...
//   odf::Process& child = kernel.Fork(init, odf::ForkMode::kOnDemand);
//   ... child and parent copy-on-write as they go ...
//   kernel.Exit(child, 0); kernel.Wait(init);
#ifndef ODF_SRC_PROC_KERNEL_H_
#define ODF_SRC_PROC_KERNEL_H_

#include <atomic>
#include <map>
#include <memory>
#include <vector>

#include "src/core/fork.h"
#include "src/fs/mem_fs.h"
#include "src/mf/memory_failure.h"
#include "src/mm/swap.h"
#include "src/phys/frame_allocator.h"
#include "src/proc/process.h"
#include "src/reclaim/kswapd.h"
#include "src/reclaim/lru.h"
#include "src/reclaim/rmap.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace odf {

class Kernel {
 public:
  Kernel();
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // Creates a fresh process with an empty address space (execve-from-nothing analog).
  Process& CreateProcess();

  // Forks `parent` with an explicit mechanism. Thread-safe with respect to other processes;
  // the caller must not mutate `parent` concurrently (one driver thread per process).
  // Aborts on mid-fork ENOMEM (the NOFAIL contract); use TryFork for recoverable failure.
  Process& Fork(Process& parent, ForkMode mode, ForkProfile* profile = nullptr);

  // Forks using the parent's configured fork mode (the procfs knob, §4 "Flexibility").
  Process& Fork(Process& parent) { return Fork(parent, parent.fork_mode()); }

  // Transactional fork: like Fork, but a mid-copy allocation failure (ENOMEM after reclaim,
  // or injected via src/fi) rolls the child back completely — every page reference,
  // shared-table install, and table frame the half-built child held is released — and
  // returns nullptr. The parent is untouched (its write-protected entries are benign; the
  // fault path restores them lazily) and no process-table entry is created. ENOMEM-safe in
  // the sense of docs/robustness.md: fork either fully succeeds or has no effect.
  [[nodiscard]] Process* TryFork(Process& parent, ForkMode mode,
                                 ForkProfile* profile = nullptr);

  // Terminates the process: tears down its address space immediately (dropping page and
  // shared-table references) and leaves a zombie for the parent to reap. Takes the
  // victim's address-space gate exclusively, so it serializes against that process's
  // in-flight faults and mapping calls from other threads.
  void Exit(Process& process, int code = 0);

  // Reaps one zombie child of `parent`; returns its pid or -1 when there is none. (The
  // simulator has no blocking: workloads drive children to completion before waiting.)
  Pid Wait(Process& parent);

  Process* FindProcess(Pid pid);

  // Global default fork mode applied to newly created processes. Out-of-line: it is a
  // recordable schedule entry (replay::OpScope).
  void set_default_fork_mode(ForkMode mode);
  ForkMode default_fork_mode() const { return default_fork_mode_; }

  FrameAllocator& allocator() { return allocator_; }
  MemFilesystem& fs() { return fs_; }
  SwapSpace& swap_space() { return swap_; }

  // --- Memory pressure (paper §4 "Robustness") ---

  // Caps simulated RAM at `frames` 4 KiB frames and arms the reclaimer: allocations beyond
  // the limit trigger direct reclaim (ReclaimMemory: rmap-driven swap-out of cold LRU
  // pages) and, as a last resort, the OOM killer. 0 removes the limit.
  void SetMemoryLimitFrames(uint64_t frames);

  // Direct reclaim: shrinks the LRU lists via reverse-map unmapping (src/reclaim); falls
  // back to killing the largest process when nothing is reclaimable. Returns frames freed
  // (0 => hard OOM). Runs as the allocator's reclaim callback from any allocating thread.
  uint64_t ReclaimMemory(uint64_t want);

  // Starts/stops the background reclaim daemon (docs/reclaim.md). Not started by
  // SetMemoryLimitFrames: tests that want deterministic synchronous reclaim leave it off.
  void StartKswapd();
  void StopKswapd();

  reclaim::Rmap& rmap() { return rmap_; }
  reclaim::PageLru& lru() { return lru_; }
  reclaim::Kswapd* kswapd() { return kswapd_.get(); }

  // --- Memory failure (src/mf, docs/memory-failure.md) ---

  // Hard offline: an uncorrectable memory error was reported on `frame` (the
  // memory_failure() / MCE path). Every mapping is replaced with a poison marker — ONE
  // rewrite per shared-table slot — clean page-cache contents are relocated, and the frame
  // is quarantined forever. Recorded as a replay op; runs under the exclusive MmGate.
  // Returns kNotSupported when built with -DODF_MEMORY_FAILURE=OFF.
  mf::MfResult MemoryFailure(FrameId frame);

  // Soft offline: predictively migrate `frame`'s contents to a fresh frame (zero data
  // loss) and quarantine the failing one. Transactional — kFailedBusy leaves nothing
  // mutated. Recorded as a replay op; runs under the exclusive MmGate.
  mf::MfResult SoftOfflinePage(FrameId frame);

  uint64_t oom_kills() const { return oom_kills_.load(std::memory_order_relaxed); }

  // RAII marker: the process currently executing a memory operation on this thread. The
  // OOM killer never selects it (a real kernel SIGKILLs the victim; this simulator's
  // "victim" would otherwise keep running into its own torn-down address space).
  class ActiveProcessScope {
   public:
    explicit ActiveProcessScope(Process* process) : previous_(active_process_) {
      active_process_ = process;
    }
    ActiveProcessScope(const ActiveProcessScope&) = delete;
    ActiveProcessScope& operator=(const ActiveProcessScope&) = delete;
    ~ActiveProcessScope() { active_process_ = previous_; }

   private:
    Process* previous_;
  };

  size_t ProcessCount() const;
  size_t RunningProcessCount() const;

  // Snapshot of the currently running processes, taken under the process-table lock and
  // returned by shared_ptr so every entry stays alive (and safely inspectable) even if a
  // concurrent Wait() reaps it or a fork inserts siblings while the caller iterates.
  // Safe to call from any thread at any time.
  std::vector<std::shared_ptr<Process>> RunningProcesses();

 private:
  static thread_local Process* active_process_;

  // Shared Exit body. A normal exit (`oom` false) takes the victim's address-space gate
  // exclusively — the caller may race the victim's own driver thread. The OOM killer
  // passes `oom` true and SKIPS the gate: its victim is by construction not mid-operation
  // (ActiveProcessScope excludes the allocating process), and the killer may already sit
  // inside another process's fault path, where acquiring a second AS gate would invert
  // the documented lock order.
  void ExitInternal(Process& process, int code, bool oom);

  // Builds the ShrinkContext handed to kswapd and direct reclaim (flush-all-TLBs closure).
  reclaim::ShrinkContext MakeShrinkContext();

  // Builds the context handed to the src/mf offline paths (adds the address-space list
  // the huge-split pass walks).
  mf::MfContext MakeMfContext();

  FrameAllocator allocator_;
  SwapSpace swap_;
  MemFilesystem fs_;
  // Reclaim state is declared before processes_ so it outlives process teardown (address
  // spaces leave their anon family, and their freed frames leave the LRU, as they die).
  reclaim::Rmap rmap_;
  reclaim::PageLru lru_;
  std::unique_ptr<reclaim::Kswapd> kswapd_;
  // Atomic: the OOM killer can run from any thread's allocation (reclaim callback) while
  // another thread reads the count.
  std::atomic<uint64_t> oom_kills_{0};
  // Protects ONLY the pid -> Process map (and next_pid_). Address-space state is guarded
  // by each AS's own MmLockTable; nothing memory-management-sized ever runs under this.
  mutable util::Mutex table_mutex_;
  // shared_ptr so RunningProcesses() snapshots keep their entries alive against Wait().
  std::map<Pid, std::shared_ptr<Process>> processes_ ODF_GUARDED_BY(table_mutex_);
  Pid next_pid_ ODF_GUARDED_BY(table_mutex_) = 1;
  ForkMode default_fork_mode_ = ForkMode::kClassic;
};

}  // namespace odf

#endif  // ODF_SRC_PROC_KERNEL_H_
