#include "src/pt/mm_locks.h"

#include <algorithm>
#include <thread>

#include "src/debug/debug.h"
#include "src/trace/metrics.h"
#include "src/trace/trace.h"

namespace odf {

namespace {

debug::LockClass g_as_shard_lock_class("mm::AsShard");
debug::LockClass g_pt_epoch_retire_lock_class("mm::PtEpochRetire");

LatencyHistogram& MmLockWaitHistogram() {
  static LatencyHistogram& histogram =
      MetricsRegistry::Global().RegisterHistogram("mm_lock_wait");
  return histogram;
}

// TLS write-reentrancy frames for MmLockTable::WriteScope: AddressSpace ops nest
// (Remap -> Unmap) on the same gate, and BravoGate's exclusive side is not reentrant.
struct WriteHold {
  const MmLockTable* table = nullptr;
  int depth = 0;
};
constexpr int kMaxWriteHolds = 8;
thread_local WriteHold t_write_holds[kMaxWriteHolds];

}  // namespace

debug::LockClass& AsShardLockClass() { return g_as_shard_lock_class; }

void NoteMmLockWait(uint64_t kind, uint64_t wait_ns) {
  CountVm(VmCounter::k_lock_contended);
  CountVm(kind <= 1 ? VmCounter::k_mm_gate_wait_ns : VmCounter::k_as_gate_wait_ns, wait_ns);
  ODF_TRACE(lock_contended, /*pid=*/0, kind, wait_ns);
  ODF_TRACE(lock_wait, /*pid=*/0, kind, wait_ns);
  MmLockWaitHistogram().RecordNanos(wait_ns);
}

MmLockTable::MmLockTable() {
  static std::atomic<uint64_t> next_as_id{1};
  as_id_ = next_as_id.fetch_add(1, std::memory_order_relaxed);
  // Eager registration: the mm_lock_wait histogram must appear in FormatVmstat and the
  // BENCH_*.json sidecars even for runs that never contend (count 0 is the data point).
  MmLockWaitHistogram();
}

void MmLockTable::InvalidateRange(Vaddr start, Vaddr end) {
  if (end <= start) {
    return;
  }
  CountVm(VmCounter::k_tlb_shootdowns, (end - PageAlignDown(start) + kPageSize - 1) / kPageSize);
  // Chunks map to shards modulo kShards, so kShards consecutive chunks cover every shard:
  // a range that wide invalidates as much as a full flush and costs one bump like it.
  uint64_t first = start >> (kPageShift + kHugePageOrder);
  uint64_t last = (end - 1) >> (kPageShift + kHugePageOrder);
  if (last - first + 1 >= static_cast<uint64_t>(kShards)) {
    flush_gen_.fetch_add(1, std::memory_order_seq_cst);
    return;
  }
  for (uint64_t chunk = first; chunk <= last; ++chunk) {
    shards_[chunk & (kShards - 1)].gen.fetch_add(1, std::memory_order_seq_cst);
  }
}

void MmLockTable::FlushAll() {
  CountVm(VmCounter::k_tlb_flushes);
  ODF_TRACE(tlb_flush, /*pid=*/0, as_id_);
  flush_gen_.fetch_add(1, std::memory_order_seq_cst);
}

MmLockTable::WriteScope::WriteScope(MmLockTable& table) : table_(table) {
  WriteHold* free_hold = nullptr;
  for (WriteHold& hold : t_write_holds) {
    if (hold.table == &table) {
      ++hold.depth;
      return;  // Reentrant nesting; the outer scope owns the gate.
    }
    if (hold.table == nullptr && free_hold == nullptr) {
      free_hold = &hold;
    }
  }
  ODF_CHECK(free_hold != nullptr) << "AS write-gate TLS hold stack exhausted";
  uint64_t wait_ns = table.gate_.LockExclusive();
  free_hold->table = &table;
  free_hold->depth = 1;
  owner_ = true;
  if (wait_ns > 1000) {
    NoteMmLockWait(/*kind=*/3, wait_ns);
  }
}

MmLockTable::WriteScope::~WriteScope() {
  for (WriteHold& hold : t_write_holds) {
    if (hold.table == &table_) {
      if (--hold.depth == 0) {
        hold.table = nullptr;
        ODF_DCHECK(owner_);
        table_.gate_.UnlockExclusive();
      }
      return;
    }
  }
  ODF_CHECK(false) << "AS write-gate release without a matching TLS hold";
}

PtEpoch& PtEpoch::Global() {
  static PtEpoch epoch;
  return epoch;
}

std::atomic<uint64_t>* PtEpoch::ClaimThreadSlot() {
  struct ThreadSlot {
    std::atomic<uint64_t>* epoch = nullptr;
    std::atomic<bool>* claimed = nullptr;
    ~ThreadSlot() {
      if (claimed != nullptr) {
        epoch->store(0, std::memory_order_release);
        claimed->store(false, std::memory_order_release);
      }
    }
  };
  thread_local ThreadSlot t_slot = [this] {
    ThreadSlot slot;
    for (ReaderSlot& candidate : slots_) {
      bool expected = false;
      if (candidate.claimed.compare_exchange_strong(expected, true,
                                                    std::memory_order_acq_rel)) {
        slot.epoch = &candidate.epoch;
        slot.claimed = &candidate.claimed;
        break;
      }
    }
    return slot;  // epoch == nullptr when all slots are taken: caller uses the slow path.
  }();
  return t_slot.epoch;
}

PtEpoch::ReadGuard::ReadGuard() : slot_(Global().ClaimThreadSlot()) {
  if (slot_ == nullptr) {
    return;
  }
  // Publish the entry epoch, then revalidate: if the global epoch advanced between the
  // load and the publication, a concurrent Drain may already have scanned this slot as
  // idle, so re-publish at the newer epoch (at which point any table retired under the
  // older epoch is guaranteed unreachable from a fresh walk).
  PtEpoch& global = Global();
  uint64_t entered = global.epoch_.load(std::memory_order_seq_cst);
  for (;;) {
    slot_->store(entered, std::memory_order_seq_cst);
    uint64_t now = global.epoch_.load(std::memory_order_seq_cst);
    if (now == entered) {
      break;
    }
    entered = now;
  }
}

PtEpoch::ReadGuard::~ReadGuard() {
  if (slot_ != nullptr) {
    slot_->store(0, std::memory_order_release);
  }
}

void PtEpoch::Retire(FrameAllocator* allocator, FrameId table) {
  uint64_t tag;
  {
    debug::MutexGuard guard(retire_mu_, g_pt_epoch_retire_lock_class);
    tag = epoch_.load(std::memory_order_relaxed);
    retired_.push_back({allocator, table, tag});
  }
  // Bump AFTER linking the entry: readers that entered at `tag` or earlier hold the grace
  // period open; readers entering at tag+1 can no longer reach the (already unlinked) table.
  epoch_.fetch_add(1, std::memory_order_seq_cst);
}

void PtEpoch::Drain() {
  {
    debug::MutexGuard guard(retire_mu_, g_pt_epoch_retire_lock_class);
    if (retired_.empty()) {
      return;
    }
  }
  for (;;) {
    uint64_t min_active = UINT64_MAX;
    for (ReaderSlot& slot : slots_) {
      uint64_t e = slot.epoch.load(std::memory_order_seq_cst);
      if (e != 0) {
        min_active = std::min(min_active, e);
      }
    }
    std::vector<RetiredTable> free_now;
    {
      debug::MutexGuard guard(retire_mu_, g_pt_epoch_retire_lock_class);
      auto keep = retired_.begin();
      for (auto it = retired_.begin(); it != retired_.end(); ++it) {
        if (it->tag < min_active) {
          free_now.push_back(*it);
        } else {
          *keep++ = *it;
        }
      }
      retired_.erase(keep, retired_.end());
    }
    for (const RetiredTable& entry : free_now) {
      entry.allocator->DecRef(entry.table);
    }
    {
      debug::MutexGuard guard(retire_mu_, g_pt_epoch_retire_lock_class);
      if (retired_.empty()) {
        return;
      }
    }
    // A reader that entered before the oldest retire is still inside its (lock-free,
    // bounded) section; epoch sections never block, so this terminates.
    std::this_thread::yield();
  }
}

}  // namespace odf
