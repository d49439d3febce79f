// Sharded address-space locking, page-table QSBR, and the per-thread translation cache.
//
// This is the lock plane behind the "shatter the global MM locks" refactor (ROADMAP item 1):
//
//   MmLockTable   one per AddressSpace — a BRAVO reader/writer gate for whole-AS operations
//                 (range ops, fork, teardown take it exclusive; fault slow paths take it
//                 shared) plus 64 range shards, each a 2 MiB-granular mutex and a shard
//                 *generation* counter, and one address-space *flush generation*. A
//                 translation's generation is the sum of its shard's and the flush
//                 generation. Faults in disjoint shards never contend; a range op bumps
//                 each covered shard generation ONCE (InvalidateRange, the batched TLB
//                 shootdown) instead of flushing per PTE, and a full flush (or a range
//                 that covers every shard) bumps the flush generation once.
//
//   PtEpoch       a quiescent-state epoch (QSBR) for page-table frames. Lock-free readers
//                 enter a read section around a table walk; mutators that free a PUBLISHED
//                 table Retire() it instead of DecRef'ing directly, and Drain() at the end
//                 of the range op waits for the grace period and performs the deferred
//                 frees. Unpublished spares (Dedicate* losers) still DecRef directly.
//
//   TranslationCache  a per-thread map of (as id, vpn) -> frame, validated by the covering
//                 generation (ShardGen). The hit path is entirely lock-free: probe, pin
//                 the frame's refcount, recheck the generation, copy.
//
// Lock order (documented in docs/debugging.md): MutationScope -> AS gate -> shard mutex
// (fault path only, exactly one) -> reclaim::MmGate shared -> split locks / rmap /
// allocator / LRU. The generation protocol's one load-bearing invariant: a mutator bumps
// a generation covering the rewritten range (its shards' or the flush generation) AFTER
// rewriting entries and BEFORE dropping the frame references those entries held ("gen
// before free"), so a reader whose pin precedes its successful generation recheck can
// never hold a stale frame.
#ifndef ODF_SRC_PT_MM_LOCKS_H_
#define ODF_SRC_PT_MM_LOCKS_H_

#include <atomic>
#include <cstdint>
#include <source_location>
#include <vector>

#include "src/debug/lockdep.h"
#include "src/phys/frame_allocator.h"
#include "src/pt/geometry.h"
#include "src/trace/metrics.h"
#include "src/util/bravo_gate.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace odf {

// Lockdep class shared by all 64 shard mutexes of every address space. Exposed so the
// lockdep death test can drive a shard-vs-shard inversion without building two real ASes.
debug::LockClass& AsShardLockClass();

// Records a blocked MM-lock acquisition in the contention observability surface:
// the `lock_contended` vmstat counter, the wait's nanoseconds in `mm_gate_wait_ns`
// (kinds 0, 1) or `as_gate_wait_ns` (kinds 2, 3), the `lock_contended`/`lock_wait`
// tracepoints, and the `mm_lock_wait` latency histogram (all of which land in
// FormatVmstat and the BENCH_*.json sidecars). `kind` is a small site discriminator, also
// carried in the trace args: 0 = MmGate reader, 1 = MmGate writer, 2 = AS-gate reader,
// 3 = AS-gate writer.
void NoteMmLockWait(uint64_t kind, uint64_t wait_ns);

// The whole-AS gate is itself a capability ("as_gate"): ReadScope/WriteScope below carry
// the acquire/release contracts, and mutation entry points declare ODF_REQUIRES(table) /
// ODF_REQUIRES_SHARED(table) so that calling them without the right scope in sight is a
// compile error under -Wthread-safety.
class ODF_CAPABILITY("as_gate") MmLockTable {
 public:
  static constexpr int kShards = 64;

  // The static stand-in for the 64 shard mutexes. The analysis cannot model a
  // dynamically-indexed lock array, so all shards of a table are ONE fictional
  // capability: ShardScope acquires `shard_cap`, and functions that assume "the covering
  // shard is held" declare ODF_REQUIRES(table.shard_cap). The fiction is *stricter* than
  // the runtime in exactly one way — holding two shards at once becomes a compile-time
  // double-acquire — which matches the discipline (and lockdep's same-class-nesting
  // abort): the fault path holds exactly one shard, ever.
  class ODF_CAPABILITY("shard") ShardCapability {};

  MmLockTable();
  MmLockTable(const MmLockTable&) = delete;
  MmLockTable& operator=(const MmLockTable&) = delete;

  // Monotonic, never-reused id for this address space; keys the per-thread translation
  // cache so entries from a destroyed AS can never validate.
  uint64_t as_id() const { return as_id_; }

  static int ShardOf(Vaddr va) {
    return static_cast<int>((va >> (kPageShift + kHugePageOrder)) & (kShards - 1));
  }

  // The generation that validates a translation of `va`: its shard's generation plus the
  // address-space flush generation. Both only grow, so the sum changes whenever either is
  // bumped: a cached or in-flight translation whose generation still matches was made
  // after the last invalidation that covered it. Two seq_cst loads; a reader compares
  // the sum it read before its walk with the sum it reads after its pin.
  uint64_t ShardGen(Vaddr va) const {
    return shards_[ShardOf(va)].gen.load(std::memory_order_seq_cst) +
           flush_gen_.load(std::memory_order_seq_cst);
  }

  // The TLB-shootdown plane. A mutator invalidates the translations it rewrote by bumping
  // a generation that covers them: that is what invalidates every thread's
  // TranslationCache entry and fails in-flight lock-free readers' rechecks. Callers must
  // respect gen-before-free: entries already rewritten, frame references not yet dropped.

  // One page (invlpg analog): bumps the covering shard; counts one tlb_shootdowns entry.
  void InvalidatePage(Vaddr va) {
    CountVm(VmCounter::k_tlb_shootdowns);
    shards_[ShardOf(va)].gen.fetch_add(1, std::memory_order_seq_cst);
  }
  // A range (the batched shootdown): one bump per covered shard, however many pages the
  // range spans; a range of kShards or more 2 MiB chunks covers every shard and bumps the
  // flush generation once instead. Every covered page counts as one tlb_shootdowns entry,
  // whatever the range's width.
  void InvalidateRange(Vaddr start, Vaddr end);
  // Full flush (CR3 reload analog): one bump of the flush generation; counts one
  // tlb_flushes entry.
  void FlushAll();

  // Whole-AS reader (fault slow path). Fast-path cost: one padded fetch_add + one load.
  // The BravoGate token protocol underneath is below the analysis (like std::atomic);
  // this scope carries the shared-capability contract for it.
  class ODF_SCOPED_CAPABILITY ReadScope {
   public:
    explicit ReadScope(MmLockTable& table) ODF_ACQUIRE_SHARED(table)
        : table_(table), token_(table.gate_.LockShared()) {
      if (token_.wait_ns != 0) {
        NoteMmLockWait(/*kind=*/2, token_.wait_ns);
      }
    }
    ReadScope(const ReadScope&) = delete;
    ReadScope& operator=(const ReadScope&) = delete;
    ~ReadScope() ODF_RELEASE_GENERIC() { table_.gate_.UnlockShared(token_); }

   private:
    MmLockTable& table_;
    util::BravoGate::ReadToken token_;
  };

  // Whole-AS writer (range ops, fork source, mapping changes). Reentrant on the same
  // thread for the same table (Remap -> Unmap), tracked in a small TLS frame stack; the
  // reentrancy is cross-function (Remap holds, calls Unmap which opens its own scope),
  // which the intraprocedural analysis never sees, so no opt-out is needed here.
  class ODF_SCOPED_CAPABILITY WriteScope {
   public:
    explicit WriteScope(MmLockTable& table) ODF_ACQUIRE(table);
    WriteScope(const WriteScope&) = delete;
    WriteScope& operator=(const WriteScope&) = delete;
    ~WriteScope() ODF_RELEASE();

   private:
    MmLockTable& table_;
    bool owner_ = false;  // False when this scope is a reentrant nesting.
  };

  // One shard's mutex, lockdep-tracked. The fault slow path holds exactly one. Runtime
  // locks shards_[ShardOf(va)].mu; the analysis is told about the `shard_cap` fiction
  // instead (see ShardCapability), so the ctor/dtor bodies are necessarily opted out —
  // allowlist entries 1+2 of ≤5 (docs/debugging.md).
  class ODF_SCOPED_CAPABILITY ShardScope {
   public:
    ShardScope(MmLockTable& table, Vaddr va,
               const std::source_location& loc = std::source_location::current())
        ODF_ACQUIRE(table.shard_cap) ODF_NO_THREAD_SAFETY_ANALYSIS
        : mu_(table.shards_[ShardOf(va)].mu) {
      debug::LockAcquired(AsShardLockClass(), loc.file_name(), loc.line());
      mu_.lock();  // odf-lint: allow(naked-lock) — this IS the scoped guard.
    }
    ShardScope(const ShardScope&) = delete;
    ShardScope& operator=(const ShardScope&) = delete;
    ~ShardScope() ODF_RELEASE() ODF_NO_THREAD_SAFETY_ANALYSIS {
      mu_.unlock();  // odf-lint: allow(naked-lock) — this IS the scoped guard.
      debug::LockReleased(AsShardLockClass());
    }

   private:
    util::Mutex& mu_;
  };

  // All 64 shard mutexes as one static capability — see ShardCapability.
  ShardCapability shard_cap;

 private:
  struct alignas(64) Shard {
    util::Mutex mu;
    std::atomic<uint64_t> gen{1};
  };

  util::BravoGate gate_;
  // The access path reads both words of this line on every translation; only a full
  // flush writes it. (The gate's slots before it and the shards after it are line-aligned.)
  uint64_t as_id_;
  std::atomic<uint64_t> flush_gen_{0};
  Shard shards_[kShards];
};

// Quiescent-state epoch reclamation for published page-table frames. Global: shared ODF
// tables are reachable from several address spaces, and one retire list is simplest.
//
// The epoch is a capability ("epoch", always via PtEpoch::Global() in attribute
// expressions): ReadGuard acquires it shared, Walker::TranslateLockFree requires it
// shared, and Drain() excludes it — "lock-free walk outside a read section" and "drain
// from inside a read section" are both compile errors under -Wthread-safety.
class ODF_CAPABILITY("epoch") PtEpoch {
 public:
  static PtEpoch& Global();

  // A lock-free read section. The section must stay lock-free (walk + refcount pin only,
  // no blocking) so Drain()'s grace wait terminates. `ok()` is false when the thread-slot
  // table is exhausted (hundreds of concurrent reader threads) — callers then skip the
  // lock-free path and fault through the locked slow path instead. (The analysis treats
  // the section as entered either way — slot exhaustion only *widens* the guard, it never
  // lets a walk escape it; the odf_lint lockfree-walk-guard rule covers the scoping.)
  class ODF_SCOPED_CAPABILITY ReadGuard {
   public:
    ReadGuard() ODF_ACQUIRE_SHARED(Global());
    ReadGuard(const ReadGuard&) = delete;
    ReadGuard& operator=(const ReadGuard&) = delete;
    ~ReadGuard() ODF_RELEASE_GENERIC();

    bool ok() const { return slot_ != nullptr; }

   private:
    std::atomic<uint64_t>* slot_;
  };

  // True when the calling thread's ReadGuards are ok(): it holds a reader slot or can
  // claim one.
  bool ThreadCanRead() { return ClaimThreadSlot() != nullptr; }

  // Defers `allocator->DecRef(table)` until every reader that might have entered before
  // now has exited. Only for tables that were PUBLISHED (linked into a live tree).
  void Retire(FrameAllocator* allocator, FrameId table);

  // Waits out the grace period and performs all deferred frees. Called at the end of every
  // operation that retired tables, while the caller still excludes new structural mutators;
  // afterwards FrameAllocator::AllFree()-style accounting is exact again. Must not be
  // called from inside a ReadGuard (statically enforced: excludes the epoch capability).
  void Drain() ODF_EXCLUDES(Global());

 private:
  static constexpr int kMaxReaderSlots = 256;

  struct RetiredTable {
    FrameAllocator* allocator;
    FrameId table;
    uint64_t tag;
  };

  struct alignas(64) ReaderSlot {
    std::atomic<uint64_t> epoch{0};  // 0 = idle.
    std::atomic<bool> claimed{false};
  };

  friend class ReadGuard;
  std::atomic<uint64_t>* ClaimThreadSlot();

  std::atomic<uint64_t> epoch_{1};
  ReaderSlot slots_[kMaxReaderSlots];
  util::Mutex retire_mu_;
  std::vector<RetiredTable> retired_ ODF_GUARDED_BY(retire_mu_);
};

// Per-thread translation cache: the L0 of the access path, in front of the lock-free walk
// (L1) and the locked walk (L2). It is the simulator's only translation cache. Entries are
// validated by (as id, vpn, generation); a hit costs a probe, a refcount pin, and a
// generation recheck — no locks, no shared cache lines.
struct TransCacheEntry {
  uint64_t as_id = 0;  // 0 = empty slot.
  uint64_t vpn = 0;
  uint64_t gen = 0;            // Covering generation (ShardGen) when inserted.
  FrameId frame = kInvalidFrame;  // Leaf data frame (tail-resolved for huge mappings).
  FrameId pin = kInvalidFrame;    // Frame carrying the refcount (compound head).
  bool write_ok = false;  // True only when inserted by a WRITE access (dirty bit already set).
};

class TranslationCache {
 public:
  static constexpr size_t kEntries = 256;

  // Returns this thread's slot for (as_id, vpn); the caller checks the tags.
  static TransCacheEntry& SlotFor(uint64_t as_id, uint64_t vpn) {
    thread_local TransCacheEntry entries[kEntries];
    size_t index = (vpn ^ (as_id * 0x9E3779B97F4A7C15ull)) & (kEntries - 1);
    return entries[index];
  }
};

}  // namespace odf

#endif  // ODF_SRC_PT_MM_LOCKS_H_
