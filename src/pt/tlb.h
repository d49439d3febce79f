// Software TLB: a small direct-mapped translation cache per address space.
//
// The simulator needs a TLB for two reasons. First, realism: fork and the PTE-table COW path
// must invalidate stale translations exactly where the kernel would flush the hardware TLB,
// and tests assert those flushes happen (a missing flush shows up as a stale-write bug).
// Second, throughput: application workloads stream through the software MMU, and the TLB
// keeps their common case at hash-lookup cost like real hardware would.
//
// Concurrency: with sharded MM locking, faulting threads in disjoint 2 MiB shards hit this
// structure at once, and a direct-mapped slot can be shared by pages from different shards.
// Each slot is therefore a tiny seqlock — writers CAS the sequence odd, store the fields,
// publish even; readers snapshot and retry-free reject torn slots as misses. Stats are
// relaxed atomics.
//
// The TLB is also where the *batched TLB-shootdown generations* land: every invalidation
// API, besides dropping the software-TLB slots, bumps the covering MmLockTable shard
// generation(s) — one bump per shard per range op, not one per PTE. Those generations are
// what invalidate the per-thread TranslationCache and gate the lock-free read protocol, so
// every mutator must call InvalidatePage/InvalidateRange/FlushAll AFTER rewriting entries
// and BEFORE dropping the frame references they held (gen-before-free; see mm_locks.h).
#ifndef ODF_SRC_PT_TLB_H_
#define ODF_SRC_PT_TLB_H_

#include <array>
#include <atomic>
#include <cstdint>

#include "src/pt/geometry.h"
#include "src/pt/mm_locks.h"
#include "src/trace/metrics.h"
#include "src/trace/trace.h"
#include "src/util/relaxed_counter.h"

namespace odf {

struct TlbStats {
  util::RelaxedCounter hits;
  util::RelaxedCounter misses;
  util::RelaxedCounter flushes;
  util::RelaxedCounter single_invalidations;
};

class Tlb {
 public:
  static constexpr size_t kEntries = 1024;  // Power of two.
  // Ranges of more pages than this drop the slots with one generation bump instead of
  // page by page (Linux's default tlb_single_page_flush_ceiling is 33).
  static constexpr uint64_t kRangeFlushCeiling = 33;

  // `locks` receives the shard-generation bumps for every invalidation; it outlives the
  // Tlb (both are AddressSpace members, locks declared first). nullptr detaches the TLB
  // from the generation plane — for standalone unit tests only.
  explicit Tlb(MmLockTable* locks = nullptr) : locks_(locks) {}

  // Looks up `va`; returns true and fills outputs on a hit that satisfies `want_write`.
  bool Lookup(Vaddr va, bool want_write, FrameId* frame_out) {
    Slot& slot = slots_[Index(va)];
    uint64_t vpn = va >> kPageShift;
    uint32_t seq_before = slot.seq.load(std::memory_order_acquire);
    if ((seq_before & 1) == 0) {
      uint64_t entry_vpn = slot.vpn.load(std::memory_order_relaxed);
      uint64_t entry_generation = slot.generation.load(std::memory_order_relaxed);
      FrameId entry_frame = slot.frame.load(std::memory_order_relaxed);
      uint32_t entry_flags = slot.flags.load(std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_acquire);
      if (slot.seq.load(std::memory_order_relaxed) == seq_before &&
          (entry_flags & kSlotValid) != 0 &&
          entry_generation == generation_.load(std::memory_order_relaxed) &&
          entry_vpn == vpn && (!want_write || (entry_flags & kSlotWritable) != 0)) {
        ++stats_.hits;
        *frame_out = entry_frame;
        return true;
      }
    }
    ++stats_.misses;
    return false;
  }

  void Insert(Vaddr va, FrameId frame, bool writable) {
    Slot& slot = slots_[Index(va)];
    uint32_t seq = slot.seq.load(std::memory_order_relaxed);
    if ((seq & 1) != 0 ||
        !slot.seq.compare_exchange_strong(seq, seq + 1, std::memory_order_acquire)) {
      return;  // Another thread owns the slot right now; dropping an insert is benign.
    }
    slot.vpn.store(va >> kPageShift, std::memory_order_relaxed);
    slot.generation.store(generation_.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
    slot.frame.store(frame, std::memory_order_relaxed);
    slot.flags.store(kSlotValid | (writable ? kSlotWritable : 0u), std::memory_order_relaxed);
    slot.seq.store(seq + 2, std::memory_order_release);
  }

  // Fast-path hit accounting for the per-thread TranslationCache / lock-free walk (which
  // bypass Lookup but are logically translation-cache hits).
  void RecordHit() { ++stats_.hits; }

  // Invalidates the translation for one page (invlpg analog) and bumps the covering shard
  // generation. Call AFTER rewriting the entry, BEFORE dropping its frame reference.
  void InvalidatePage(Vaddr va) {
    DropSlot(va);
    CountInvalidations(1);
    if (locks_ != nullptr) {
      locks_->BumpShard(va);
    }
  }

  // Invalidates a virtual range. Up to kRangeFlushCeiling pages the software-TLB slots are
  // dropped page by page; above it one slot-generation bump drops them all (Linux's
  // tlb_single_page_flush_ceiling), and past kEntries pages the range becomes a FlushAll.
  // The shard generations are bumped ONCE per covered shard regardless of the page count
  // — the batched shootdown. Either way every page counts as one shootdown.
  void InvalidateRange(Vaddr start, Vaddr end) {
    if ((end - start) / kPageSize > kEntries) {
      FlushAll();
      return;
    }
    Vaddr first = PageAlignDown(start);
    uint64_t pages = end > first ? (end - first + kPageSize - 1) / kPageSize : 0;
    if (pages > kRangeFlushCeiling) {
      generation_.fetch_add(1, std::memory_order_relaxed);
    } else {
      for (Vaddr va = first; va < end; va += kPageSize) {
        DropSlot(va);
      }
    }
    CountInvalidations(pages);
    if (locks_ != nullptr) {
      locks_->BumpRange(start, end);
    }
  }

  // Full flush (CR3 reload analog) — O(1) via generation bump; invalidates every shard.
  void FlushAll() {
    [[maybe_unused]] uint64_t generation =
        generation_.fetch_add(1, std::memory_order_relaxed) + 1;
    ++stats_.flushes;
    CountVm(VmCounter::k_tlb_flushes);
    ODF_TRACE(tlb_flush, /*pid=*/0, generation);
    if (locks_ != nullptr) {
      locks_->BumpAll();
    }
  }

  // By reference — callers hold it across operations and watch the counters move (the
  // fields are individually atomic, so concurrent bumps are well-defined).
  const TlbStats& stats() const { return stats_; }

 private:
  enum SlotFlag : uint32_t {
    kSlotValid = 1u << 0,
    kSlotWritable = 1u << 1,
  };

  struct Slot {
    std::atomic<uint32_t> seq{0};
    std::atomic<uint32_t> flags{0};
    std::atomic<uint64_t> vpn{0};
    std::atomic<uint64_t> generation{0};
    std::atomic<FrameId> frame{kInvalidFrame};
  };

  static size_t Index(Vaddr va) { return (va >> kPageShift) & (kEntries - 1); }

  // Drops the slot caching `va`, if any; no counters, no shard-generation bump.
  void DropSlot(Vaddr va) {
    Slot& slot = slots_[Index(va)];
    uint32_t seq = slot.seq.load(std::memory_order_relaxed);
    if ((seq & 1) == 0 &&
        slot.seq.compare_exchange_strong(seq, seq + 1, std::memory_order_acquire)) {
      if (slot.vpn.load(std::memory_order_relaxed) == (va >> kPageShift)) {
        slot.flags.store(0, std::memory_order_relaxed);
      }
      slot.seq.store(seq + 2, std::memory_order_release);
    }
  }

  void CountInvalidations(uint64_t pages) {
    stats_.single_invalidations += pages;
    CountVm(VmCounter::k_tlb_shootdowns, pages);
  }

  std::array<Slot, kEntries> slots_{};
  std::atomic<uint64_t> generation_{1};
  TlbStats stats_;
  MmLockTable* locks_;
};

}  // namespace odf

#endif  // ODF_SRC_PT_TLB_H_
