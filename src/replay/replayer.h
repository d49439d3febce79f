// odf::replay replay engine — time-travel debugging for the simulated kernel.
//
// Replay(log) re-executes a recorded operation schedule (log.h) against a FRESH Kernel:
// every depth-0 op is dispatched through the same public Kernel/Process API that recorded
// it, fault-injection verdicts are pinned to the recorded decisions (fi::PinForReplay), and
// every recorded outcome — returned pids and addresses, fault verdicts, read-data digests —
// is cross-checked as the schedule advances. A finalized log additionally carries the
// recording's final state (per-process memory digests, allocator aggregates, vmstat
// deltas), which Replay verifies after the last op: byte-identical page contents, identical
// refcounts, identical counter deltas.
//
// Determinism contract (docs/replay.md): the kernel is deterministic for single-driver
// schedules — same ops, same fi verdicts => same state. Recordings taken with kswapd
// running or with multiple concurrently-mutating driver threads are replayed in seq
// (completion) order, which may legitimately diverge; divergences are reported, not fatal.
#ifndef ODF_SRC_REPLAY_REPLAYER_H_
#define ODF_SRC_REPLAY_REPLAYER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/replay/log.h"

namespace odf {

class Kernel;
class Process;

namespace replay {

struct ReplayOptions {
  uint64_t until_seq = 0;  // Stop after this seq (0 = run the whole schedule). Partial
                           // replays skip the final-state check but still verify per-op
                           // outcomes, leaving the kernel at a consistent intermediate
                           // state for inspection.
  bool check_final = true;  // Verify the final-state trailer (finalized full replays only).
  bool pin_fi = true;       // Pin fault-injection verdicts to the recorded decisions.
  bool run_verifier = true;  // debug::VerifyKernel after the last replayed op.
};

struct ReplayReport {
  bool parsed = false;       // Log was loadable and complete (replay precondition).
  uint64_t ops_total = 0;    // Ops in the log.
  uint64_t ops_replayed = 0;
  uint64_t last_seq = 0;     // Seq of the last op actually executed.
  std::vector<std::string> divergences;  // "seq N <op>: expected X, got Y" lines.
  std::string error;                     // Setup / parse / fatal-divergence failure.

  bool ok() const { return parsed && error.empty() && divergences.empty(); }
  std::string Describe() const;
};

// Re-executes `log` against a fresh internal Kernel. See the file comment.
ReplayReport Replay(const ReplayLog& log, const ReplayOptions& options = {});

// ReadLogFile + Replay.
ReplayReport ReplayFile(const std::string& path, const ReplayOptions& options = {});

// --- Final-state capture (shared by the recorder trailer and the replay check) ---------

// Digests one process's logical memory image: per-page FNV-1a content digest (absent and
// swapped pages fold in as their logical bytes — zeros when never written) plus a reference
// digest over page refcounts, PTE/PMD-table share counts, and swap-slot refcounts. The
// kernel must be quiescent.
FinalProcessRecord CaptureProcessFinal(Process& process);

// Allocator + swap aggregates for the trailer.
FinalAllocRecord CaptureAllocFinal(Kernel& kernel);

// Captures the trailer (every running process + allocator aggregates) into the global
// recorder. Call after the workload settles, before Recorder::Stop. Lives here rather than
// in the recorder because the digests need the proc layer.
void FinalizeRecording(Kernel& kernel);

// Convenience: FinalizeRecording + Stop + WriteLog on the global recorder.
[[nodiscard]] bool StopAndWriteLog(Kernel& kernel, const std::string& path,
                                   std::string* error);

// True when the vmstat counter is deterministic under the replay contract and is compared
// by the final-state check. Excluded: per-CPU cache traffic (pcp_*, pt_quicklist_*,
// batch_free, frames_allocated/freed include refill batching), kswapd scheduling, lock
// contention, the translation-cache tiers (tlb_hits/misses/l1_hits depend on the accessing
// thread's cache, tlb_pin_retries on racing mutators and on that cache too), the evictor's
// timing (pgswapin_pending, mm_gate_hold_ns), gate waits (mm_gate_wait_ns,
// as_gate_wait_ns), kswapd's aging beside the mutators (pgrefill), and the recorder's own
// counters (recording bumps them; replaying does not).
bool CounterReplayComparable(uint32_t counter);

}  // namespace replay
}  // namespace odf

#endif  // ODF_SRC_REPLAY_REPLAYER_H_
