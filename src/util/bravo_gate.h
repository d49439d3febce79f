// BRAVO-style distributed reader-writer gate (Dice & Kogan, USENIX ATC'19).
//
// Readers on the fast path touch only a per-thread-hashed, cache-line-padded
// counter slot plus one load of the writer-pending word, so concurrent readers
// on different cores never bounce a shared cache line the way a
// std::shared_mutex reader count does. Writers flip the pending word (which
// diverts new readers to the underlying shared_mutex), take the mutex, then
// wait for in-flight fast readers to drain from the slots this gate's readers
// have ever used: a reader marks its slot in a per-gate mask before its first
// count on it, so a gate that only ever saw a few threads costs its writer a
// few loads, not one per slot.
//
// This is deliberately a bare synchronization primitive with no repo
// dependencies: it lives in src/util (below the mm lock graph) and the mm-layer
// wrappers (reclaim::MmGate, mm::MmLockTable) layer lockdep registration and
// contention metrics on top of the wait times it reports.
#ifndef ODF_SRC_UTIL_BRAVO_GATE_H_
#define ODF_SRC_UTIL_BRAVO_GATE_H_

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <shared_mutex>
#include <thread>

#include "src/util/thread_annotations.h"

namespace odf::util {

// A capability to the thread-safety analysis, but its token-passing methods are
// deliberately NOT annotated: the analysis cannot follow a ReadToken from LockShared to
// UnlockShared (it tracks lexical scopes, not values), so BravoGate sits below the
// analysis like std::atomic does. The annotated contract lives entirely in the scoped
// wrappers that own the tokens — reclaim::MmGate::{Shared,Exclusive}Scope and
// MmLockTable::{Read,Write}Scope declare ACQUIRE/RELEASE on the wrapper capability —
// which also keeps the conditional fallback protocol here free of opt-outs.
class ODF_CAPABILITY("bravo_gate") BravoGate {
 public:
  static constexpr int kSlots = 64;  // One bit each in used_slots_.

  BravoGate() = default;
  BravoGate(const BravoGate&) = delete;
  BravoGate& operator=(const BravoGate&) = delete;

  struct ReadToken {
    int slot = -1;         // >= 0: fast-path slot index; -1: shared_mutex fallback.
    uint64_t wait_ns = 0;  // Time spent blocked (always 0 on the fast path).
  };

  // Shared acquisition. Fast path: one fetch_add on a private slot plus a load
  // of writers_pending_ (the seq_cst pair forms the store-buffering / Dekker
  // handshake with LockExclusive). If a writer is pending, the increment is
  // undone and the reader falls back to the shared_mutex, reporting its wait.
  // Before its first count on a slot the reader sets the slot's bit in
  // used_slots_; the bit is never cleared, so afterwards the check is one load
  // of the line that holds writers_pending_.
  ReadToken LockShared() {
    ReadToken token;
    int slot = SlotIndex();
    uint64_t bit = uint64_t{1} << slot;
    // seq_cst, not relaxed: when another thread set the bit, this load must order
    // that fetch_or before this reader's count in the single total order, or a
    // writer's mask load could still miss it.
    if ((used_slots_.load(std::memory_order_seq_cst) & bit) == 0) {
      used_slots_.fetch_or(bit, std::memory_order_seq_cst);
    }
    slots_[slot].count.fetch_add(1, std::memory_order_seq_cst);
    if (writers_pending_.load(std::memory_order_seq_cst) == 0) {
      token.slot = slot;
      return token;
    }
    slots_[slot].count.fetch_sub(1, std::memory_order_seq_cst);
    auto start = std::chrono::steady_clock::now();
    mu_.lock_shared();
    token.wait_ns = ElapsedNs(start);
    return token;
  }

  void UnlockShared(const ReadToken& token) {
    if (token.slot >= 0) {
      slots_[token.slot].count.fetch_sub(1, std::memory_order_seq_cst);
    } else {
      mu_.unlock_shared();
    }
  }

  // Exclusive acquisition: publish the pending writer (diverting new readers to
  // the mutex), take the mutex (excludes fallback readers and other writers),
  // then spin until every used fast-path reader slot drains. A slot missing
  // from the mask is safe to skip: its reader sets the bit before counting and
  // loads writers_pending_ after, so in the total order either the mask load
  // below sees the bit, or that reader sees the pending writer and backs off.
  // Returns nanoseconds spent blocked, for the caller's contention metrics.
  uint64_t LockExclusive() {
    auto start = std::chrono::steady_clock::now();
    writers_pending_.fetch_add(1, std::memory_order_seq_cst);
    mu_.lock();
    for (uint64_t used = used_slots_.load(std::memory_order_seq_cst); used != 0;
         used &= used - 1) {
      const Slot& slot = slots_[std::countr_zero(used)];
      while (slot.count.load(std::memory_order_seq_cst) != 0) {
        std::this_thread::yield();
      }
    }
    return ElapsedNs(start);
  }

  void UnlockExclusive() {
    mu_.unlock();
    writers_pending_.fetch_sub(1, std::memory_order_seq_cst);
  }

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> count{0};
  };

  // Threads hash to a fixed slot for their lifetime; collisions only cost some
  // sharing on that one line, never correctness.
  static int SlotIndex() {
    static std::atomic<uint32_t> next{0};
    thread_local const int slot =
        static_cast<int>(next.fetch_add(1, std::memory_order_relaxed) *
                         2654435761u >> 26) & (kSlots - 1);
    return slot;
  }

  static uint64_t ElapsedNs(std::chrono::steady_clock::time_point start) {
    return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                     std::chrono::steady_clock::now() - start)
                                     .count());
  }

  // Read by every reader: after its first use of a slot, a fast-path reader
  // only loads this line; writers and fallback readers (mu_) write it.
  std::atomic<int> writers_pending_{0};
  std::atomic<uint64_t> used_slots_{0};  // Bit i: some reader has counted on slot i.
  std::shared_mutex mu_;
  Slot slots_[kSlots];
};

}  // namespace odf::util

#endif  // ODF_SRC_UTIL_BRAVO_GATE_H_
