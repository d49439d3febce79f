// odf::trace — kernel-wide event tracing, modeled on Linux static tracepoints + ftrace.
//
// Instrumentation sites declare events with the ODF_TRACE macro:
//
//   ODF_TRACE(fault_cow_page, pid, va, ns);   // event name, pid, up to three uint64 args
//
// Events are fixed-size binary records appended to a lock-free per-thread ring buffer (the
// per-cpu ftrace buffer analog): the owning thread is the only writer, so recording is one
// timestamp read, one 40-byte store, and one release-store of the head cursor — cheap enough
// to leave enabled under benchmarks. Exporters (FormatDump, the procfs vmstat snapshot, the
// bench JSON writer) merge the per-thread rings read-only.
//
// Cost model:
//   - compiled out  (-DODF_TRACE=OFF => ODF_TRACE_COMPILED=0): the macro expands to (void)0;
//     argument expressions are never evaluated.
//   - runtime off   (the default): one relaxed atomic load and a predicted branch.
//   - runtime on    (trace::SetEnabled(true) or env ODF_TRACE=1): ~a clock read per event.
//
// Ring lifetime: each thread's ring is registered with the global Tracer on first emit and
// owned by it forever (events from exited threads remain readable, like a per-cpu buffer
// after cpu-offline). Clear() resets cursors in place and must only be called while emitting
// threads are quiescent — the same contract as echoing into ftrace's `trace` file.
#ifndef ODF_SRC_TRACE_TRACE_H_
#define ODF_SRC_TRACE_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/trace/metrics.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

// Set by the build (src/trace/CMakeLists.txt); default to compiled-in for out-of-build users.
#ifndef ODF_TRACE_COMPILED
#define ODF_TRACE_COMPILED 1
#endif

namespace odf {

// The static tracepoint catalog. Arg conventions are documented per event in
// docs/observability.md; pid is the acting process (0 when no process context exists).
#define ODF_TRACEPOINT_LIST(X)  \
  X(fork_begin)                 \
  X(fork_end)                   \
  X(pte_table_shared)           \
  X(pmd_table_shared)           \
  X(fault_demand_zero)          \
  X(fault_file)                 \
  X(fault_cow_page)             \
  X(fault_cow_huge)             \
  X(fault_cow_reuse)            \
  X(fault_cow_pte_table)        \
  X(fault_cow_pmd_table)        \
  X(fault_pte_table_fixup)      \
  X(fault_pmd_table_fixup)      \
  X(fault_swap_in)              \
  X(fault_segv)                 \
  X(page_swap_out)              \
  X(reclaim_begin)              \
  X(reclaim_end)                \
  X(tlb_flush)                  \
  X(proc_create)                \
  X(proc_exit)                  \
  X(proc_reap)                  \
  X(oom_kill)                   \
  X(fi_inject)                  \
  X(fork_rollback)              \
  X(fork_degrade_classic)       \
  X(fault_oom)                  \
  X(swap_io_error)              \
  X(pcp_hit)                    \
  X(pcp_miss)                   \
  X(pcp_refill)                 \
  X(pcp_drain)                  \
  X(batch_free)                 \
  X(kswapd_wake)                \
  X(kswapd_sleep)               \
  X(rmap_unmap)                 \
  X(workingset_refault)         \
  X(mf_hard_offline)            \
  X(mf_soft_offline)            \
  X(mf_sigbus)                  \
  X(lock_contended)             \
  X(lock_wait)

enum class TraceEventId : uint16_t {
#define ODF_TRACE_ENUM_MEMBER(name) k_##name,
  ODF_TRACEPOINT_LIST(ODF_TRACE_ENUM_MEMBER)
#undef ODF_TRACE_ENUM_MEMBER
      kCount,
};

constexpr size_t kTraceEventCount = static_cast<size_t>(TraceEventId::kCount);

// Stable lowercase name, e.g. "fault_cow_page"; "?" for out-of-range ids.
const char* TraceEventName(TraceEventId id);

// One fixed-size binary record (40 bytes). Interpretation of a0..a2 is per-event.
struct TraceEvent {
  uint64_t ts_ns = 0;  // Nanoseconds since the tracer epoch (first use in this process).
  uint64_t a0 = 0;
  uint64_t a1 = 0;
  uint64_t a2 = 0;
  int32_t pid = 0;
  TraceEventId id = TraceEventId::kCount;
  uint16_t tid = 0;  // Tracer-assigned thread index (registration order).
};

namespace trace {

// Single-producer ring: only the owning thread appends; readers snapshot concurrently and
// may observe a partially overwritten oldest slot while the writer is active (benign for a
// monitoring buffer; exporters are normally run quiescently).
class TraceRing {
 public:
  static constexpr size_t kCapacity = 8192;  // Power of two; 320 KiB per thread.

  explicit TraceRing(uint16_t tid) : tid_(tid) {}

  void Append(const TraceEvent& event) {
    uint64_t head = head_.load(std::memory_order_relaxed);
    if (head >= kCapacity) {
      // The slot being reused still holds an unconsumed event: the ring has wrapped.
      CountVm(VmCounter::k_trace_ring_overwrite);
    }
    slots_[head & (kCapacity - 1)] = event;
    head_.store(head + 1, std::memory_order_release);
  }

  // Events still resident (the most recent <= kCapacity), oldest first.
  std::vector<TraceEvent> Snapshot() const { return SnapshotSince(0); }

  // Resident events with append index >= `from` (oldest first). Events older than the
  // resident window are gone; callers detect the gap via TotalAppended() - kCapacity.
  std::vector<TraceEvent> SnapshotSince(uint64_t from) const;

  // Total events ever appended, including overwritten ones.
  uint64_t TotalAppended() const { return head_.load(std::memory_order_acquire); }

  // Events lost to wraparound since the last Reset (head beyond the resident window).
  uint64_t OverwrittenCount() const {
    uint64_t head = head_.load(std::memory_order_acquire);
    return head > kCapacity ? head - kCapacity : 0;
  }

  uint16_t tid() const { return tid_; }

  // Owner-quiescent reset (see Tracer::Clear contract).
  void Reset() { head_.store(0, std::memory_order_release); }

 private:
  std::atomic<uint64_t> head_{0};
  uint16_t tid_;
  std::array<TraceEvent, kCapacity> slots_{};
};

// Global runtime switch. Inline so the ODF_TRACE fast path is a single relaxed load.
inline std::atomic<bool> g_trace_enabled{false};

// With tracing compiled out, Enabled() folds to false for direct callers too.
#if ODF_TRACE_COMPILED
inline bool Enabled() { return g_trace_enabled.load(std::memory_order_relaxed); }
#else
constexpr bool Enabled() { return false; }
#endif
void SetEnabled(bool enabled);

// Nanoseconds since the process-wide tracer epoch (steady clock).
uint64_t NowNanos();

// Times a call of an instrumented site into its registry histogram: every call while tracing
// is on, else one in 64 by a per-thread xorshift draw (a countdown shared by the sites could
// lock onto one site). Histogram counts are samples; vmstat counts the events.
class LatencySample {
 public:
  // `force` times the call whatever the draw, for a caller that needs the duration itself.
  explicit LatencySample(LatencyHistogram& histogram, bool force = false)
      : histogram_(histogram), timed_(force || Enabled() || Draw()),
        start_ns_(timed_ ? NowNanos() : 0) {}
  bool timed() const { return timed_; }
  uint64_t start_ns() const { return start_ns_; }
  // Records and returns the nanoseconds since construction; 0 for an untimed call.
  uint64_t Stop() {
    if (!timed_) {
      return 0;
    }
    const uint64_t ns = NowNanos() - start_ns_;
    histogram_.RecordNanos(ns);
    return ns;
  }

 private:
  static bool Draw() {
    static thread_local uint64_t state = 0x9e3779b97f4a7c15;
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state >> 58 == 0;
  }

  LatencyHistogram& histogram_;
  const bool timed_;
  const uint64_t start_ns_;
};

// Records one event into the calling thread's ring (registering the thread on first use).
// Callers normally go through ODF_TRACE, which checks Enabled() first; calling Emit directly
// records unconditionally.
void Emit(TraceEventId id, int32_t pid = 0, uint64_t a0 = 0, uint64_t a1 = 0, uint64_t a2 = 0);

class Tracer {
 public:
  static Tracer& Global();

  // The calling thread's ring (created and registered on first call from that thread).
  TraceRing& RingForThisThread();

  // All resident events from every thread, merged and sorted by timestamp (stable: per-thread
  // order is preserved among equal timestamps).
  std::vector<TraceEvent> CollectAll() const;

  // Per-thread snapshots, one vector per registered ring, in registration (tid) order.
  std::vector<std::vector<TraceEvent>> CollectPerThread() const;

  // Stable pointers to every registered ring, in registration (tid) order. Rings are never
  // freed, so the pointers stay valid; reading them follows the usual snapshot contract.
  std::vector<const TraceRing*> Rings() const;

  // Per-ring (tid, appended, overwritten) accounting rows, in registration order.
  struct RingStats {
    uint16_t tid = 0;
    uint64_t appended = 0;
    uint64_t overwritten = 0;
  };
  std::vector<RingStats> CollectRingStats() const;

  // Drops buffered events by resetting every ring cursor. Rings themselves are never freed
  // (threads hold cached pointers). Only safe while no thread is concurrently emitting.
  void Clear();

  // ftrace-style human-readable dump of CollectAll() — see docs/observability.md.
  std::string FormatDump() const;

  size_t ThreadCount() const;

 private:
  Tracer() = default;

  mutable util::Mutex mutex_;
  std::vector<std::unique_ptr<TraceRing>> rings_ ODF_GUARDED_BY(mutex_);
};

}  // namespace trace
}  // namespace odf

#if ODF_TRACE_COMPILED
// Arguments are evaluated only when tracing is runtime-enabled, so sites may pass mildly
// expensive expressions (e.g. MappedBytes()) without taxing the disabled path.
#define ODF_TRACE(name, ...)                                                        \
  do {                                                                              \
    if (::odf::trace::Enabled()) {                                                  \
      ::odf::trace::Emit(::odf::TraceEventId::k_##name __VA_OPT__(, ) __VA_ARGS__); \
    }                                                                               \
  } while (0)
#else
#define ODF_TRACE(name, ...) ((void)0)
#endif

#endif  // ODF_SRC_TRACE_TRACE_H_
