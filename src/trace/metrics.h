// odf::trace metrics — the /proc/vmstat analog: a fixed catalog of kernel-wide monotonic
// counters bumped from the hot paths (always on), plus a MetricsRegistry where subsystems
// register named latency histograms dynamically. Exporters render the combined view as
// vmstat text or JSON.
//
// Built-in counters use a fixed enum + per-thread shards (the kernel's per-CPU
// vm_event_states pattern): each thread bumps its own cache-line-aligned array with a
// relaxed load and store — no locked instruction, no shared cache line — and a read sums
// the live shards plus the totals of threads that have exited (a lock plus O(threads)
// work, for the cold readers: vmstat, sidecars, tests). Dynamic registration is for
// colder, subsystem-specific latency histograms where a map lookup at registration time
// is fine.
#ifndef ODF_SRC_TRACE_METRICS_H_
#define ODF_SRC_TRACE_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/util/histogram.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace odf {

// The vmstat counter catalog (names mirror /proc/vmstat where an analog exists).
#define ODF_VM_COUNTER_LIST(X)   \
  X(pgfault_demand_zero)         \
  X(pgfault_file)                \
  X(pgfault_cow_page)            \
  X(pgfault_cow_huge)            \
  X(pgfault_cow_reuse)           \
  X(pgfault_segv)                \
  X(pgfault_swap_in)             \
  X(pte_table_cow)               \
  X(pte_table_fixup)             \
  X(pmd_table_cow)               \
  X(pmd_table_fixup)             \
  X(pte_tables_shared)           \
  X(pmd_tables_shared)           \
  X(fork_classic)                \
  X(fork_on_demand)              \
  X(fork_pte_entries_copied)     \
  X(fork_huge_entries_copied)    \
  X(frames_allocated)            \
  X(frames_freed)                \
  X(pgswapout)                   \
  X(swap_writes)                 \
  X(swap_reads)                  \
  X(tlb_flushes)                 \
  X(tlb_shootdowns)              \
  X(proc_created)                \
  X(proc_exited)                 \
  X(oom_kills)                   \
  X(fi_injected)                 \
  X(fork_rollback)               \
  X(fork_degrade_classic)        \
  X(pgfault_oom)                 \
  X(pgfault_retry_exhausted)     \
  X(swap_io_errors)              \
  X(pcp_hit)                     \
  X(pcp_miss)                    \
  X(pcp_refill)                  \
  X(pcp_drain)                   \
  X(batch_free)                  \
  X(pgscan)                      \
  X(pgsteal)                     \
  X(pgrefault)                   \
  X(pgactivate)                  \
  X(pgdeactivate)                \
  X(kswapd_wake)                 \
  X(direct_reclaim)              \
  X(trace_ring_overwrite)        \
  X(replay_ops_recorded)         \
  X(replay_events_recorded)      \
  X(replay_events_dropped)       \
  X(replay_record_bytes)         \
  X(mf_hard_offline)             \
  X(mf_soft_offline)             \
  X(mf_offline_failed)           \
  X(mf_migrated_pages)           \
  X(mf_sigbus)                   \
  X(mf_huge_splits)              \
  X(lock_contended)              \
  X(tlb_hits)                    \
  X(tlb_misses)                  \
  X(tlb_l1_hits)                 \
  X(tlb_pin_retries)             \
  X(pgswapin_pending)            \
  X(mm_gate_hold_ns)             \
  X(pgrefill)                    \
  X(fork_upper_entries)          \
  X(mm_gate_wait_ns)             \
  X(as_gate_wait_ns)             \
  X(pt_quicklist_hit)            \
  X(pt_quicklist_miss)

enum class VmCounter : uint32_t {
#define ODF_VM_ENUM_MEMBER(name) k_##name,
  ODF_VM_COUNTER_LIST(ODF_VM_ENUM_MEMBER)
#undef ODF_VM_ENUM_MEMBER
      kCount,
};

constexpr size_t kVmCounterCount = static_cast<size_t>(VmCounter::kCount);

// Stable lowercase name, e.g. "pgfault_cow_page".
const char* VmCounterName(VmCounter counter);

namespace vm_internal {

// One thread's built-in counters. Only the owning thread writes them; readers load them
// relaxed under the shard registry lock.
struct alignas(64) Shard {
  std::array<std::atomic<uint64_t>, kVmCounterCount> values{};
};

// The calling thread's shard; nullptr before its first bump and again after thread exit
// folded the shard into the retired totals.
inline thread_local Shard* t_shard = nullptr;

// Registers the calling thread's shard and counts into it — or, once the thread's shard
// has been folded at exit, adds straight to the retired totals (thread_local destructors
// that run after the fold, e.g. the per-thread frame cache drain, still count).
void CountSlow(VmCounter counter, uint64_t n);

}  // namespace vm_internal

inline void CountVm(VmCounter counter, uint64_t n = 1) {
  vm_internal::Shard* shard = vm_internal::t_shard;
  if (shard == nullptr) [[unlikely]] {
    vm_internal::CountSlow(counter, n);
    return;
  }
  std::atomic<uint64_t>& value = shard->values[static_cast<size_t>(counter)];
  value.store(value.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}

// Every built-in counter in catalog order: the sum over every live thread's shard plus the
// retired totals, taken in one hold of the shard registry lock.
std::array<uint64_t, kVmCounterCount> ReadAllVm();

// One counter, read the same way (cold path: a lock plus O(threads) work).
uint64_t ReadVm(VmCounter counter);

// Registry of named histograms. Registration returns a stable reference (the
// object lives for the registry's lifetime; ResetForTest zeroes values but never removes
// registrations, so cached references at instrumentation sites stay valid).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // The process-wide registry every kernel subsystem reports into (vmstat is machine-global).
  static MetricsRegistry& Global();

  // Returns the existing histogram under `name`, registering it first if needed.
  LatencyHistogram& RegisterHistogram(const std::string& name);

  // The built-in vmstat counters, in catalog order, as (name, value) pairs.
  std::vector<std::pair<std::string, uint64_t>> SnapshotCounters() const;

  // Value of one built-in counter by name; 0 when unknown.
  uint64_t CounterValue(std::string_view name) const;

  // Registered histograms as (name, histogram*) pairs in name order.
  std::vector<std::pair<std::string, const LatencyHistogram*>> Histograms() const;

  // `/proc/vmstat`-style text: one "name value" line per counter, histograms appended as
  // "name_p50_us" / "name_p99_us" / "name_count" summary lines.
  std::string FormatVmstat() const;

  // Zeroes built-in counters (every live thread shard and the retired totals) and resets
  // histograms (registrations survive). Like
  // Tracer::Clear, only meaningful while the hot paths are quiescent: a concurrent bump
  // can write its thread's pre-reset value back.
  void ResetForTest();

 private:
  mutable util::Mutex mutex_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_ ODF_GUARDED_BY(mutex_);
};

}  // namespace odf

#endif  // ODF_SRC_TRACE_METRICS_H_
