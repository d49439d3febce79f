// MmGate — the kernel-wide mutator/evictor gate (docs/reclaim.md "Locking").
//
// Reclaim rewrites leaf PTEs behind the backs of every process — including PTEs in tables
// shared across address spaces by on-demand-fork — and then frees the frames those entries
// referenced. The split-lock protocol (range_ops.h) orders *structural* mutation of one
// table, but a frame's mappings span many tables, and a mutator mid-fault carries PTE
// values in locals between translate and the data copy. The gate makes eviction sound the
// same way try_to_unmap relies on the rmap locks plus TLB shootdown IPIs: mutators hold
// the gate SHARED for the duration of one memory operation, the evictor takes it
// EXCLUSIVE, so an eviction batch observes page tables no mutator is rewriting and can
// flush TLBs before any mutator runs again.
//
// Rules (lock order: debug::MutationScope -> per-AS gate -> shard mutex -> MmGate ->
// Kernel::table_mutex_ -> Rmap walk lock -> PageLru lock -> the rest; see the table in
// docs/debugging.md):
//   - Mutator paths (AccessMemory's write hits and L2 path, the mmap family, fork, exit)
//     take SharedScope — INSIDE any per-AS gate or shard lock they hold, never outside.
//     Shared holds are reentrant per thread and no-ops while the thread holds the gate
//     exclusively (the OOM killer calls Kernel::Exit from inside an eviction).
//   - Read hits (AccessMemory's L0 translation-cache hits and L1 lock-free walks) take NO
//     gate, like a hardware TLB hit. A read is protected by its refcount pin and the
//     shard-generation recheck alone, and an exclusive hold does not stop it: it may pin a
//     frame the evictor is about to take (the evictor's refcount == mappings + 1 test then
//     fails, or the pin outlives the eviction and its unpin frees the frame) and copy
//     bytes the evictor is writing out (both only read them).
//   - So a read hit's unpin can drop a frame's LAST reference, and free it, during an
//     exclusive hold. An exclusive holder pins every frame it examines before it reads the
//     frame's flags, stamp or mappings: the shrinker through its LRU isolation
//     (PageLru::Take*, which pins with TryGetRef and skips a frame whose count already
//     reached zero), mf offline with TryGetRef on the holder. Never IncRef a frame found
//     by lookup rather than held: it would revive a count that reached zero.
//   - Aging (reclaim::AgeActiveList) is a SHARED holder: it only harvests accessed bits,
//     beside the mutators, and the shared hold keeps it out of every exclusive holder's
//     way (the shrinker, VerifyKernel, mf offline). It pins what it examines through its
//     isolation like the shrinker, walks each frame's mappings under the Rmap walk lock
//     (held shared per batch; every change to a family or a member's VMA map holds it
//     exclusively) and a PtEpoch::ReadGuard (a mutator may retire a table on the walked
//     path), and clears each accessed bit with a CAS that re-checks the entry still maps
//     the frame. A thread with no epoch reader slot ages under its exclusive hold instead.
//   - Eviction (kswapd balance rounds and direct reclaim through ReclaimPages, mf offline)
//     takes ExclusiveScope. ExclusiveScope UPGRADES: it releases the calling thread's
//     shared holds first and restores them afterwards, so a mutator blocked at the
//     allocation quota can run direct reclaim without deadlocking against its own shared
//     hold.
//   - The evictor's exclusive hold covers drain -> shrink -> unmap -> flush only: it
//     drains the LRU add batches, isolates and pins inactive frames, walks their rmap,
//     checks evictability and second chance, reserves swap slots, writes the swap entries
//     and flushes the TLBs — including for the accessed bits the round's aging cleared
//     (reclaim::UnmapPages). Aging comes before it, under the shared hold. Copying the
//     frames into their slots and dropping the frames' references (the pageout,
//     reclaim::FinishPageout) come after ExclusiveScope::Unlock, alongside the mutators;
//     the caller's shared holds come back only after that, at scope exit.
//   - The evictor drops the frame references of the mappings it cleared, and its isolation
//     pin, only AFTER its TLB flush and the commit of the frame's write-out (the pageout;
//     mf offline holds its pin across its drops and the flush the same way): gen before
//     free holds for it as for every other mutator. The exclusive hold is no substitute:
//     a read hit's late unpin could free the frame before the flush, and an allocator that
//     runs without the gate (fork's child PGD, MemFile::GetPage) could reuse it under a
//     stale translation whose generation was not yet bumped.
//   - A pageout in flight leaves frames unmapped but still allocated, and swap slots whose
//     content is still in those frames. Whoever needs neither holds the gate exclusively
//     and calls WaitForPageouts: VerifyKernel and the rmap queries (Rmap::TotalLocations
//     etc.), and an eviction round that found nothing to evict. A pageout takes no gate,
//     so that wait always ends. The same way, a round that found nothing at all to age or
//     shrink calls WaitForReclaimPasses, outside its exclusive hold, before it reports a
//     stall: another reclaimer's aging pass may have held the frames isolated.
//   - VerifyKernel takes ExclusiveScope to stop table rewrites, but read pins still come
//     and go, so its refcount == mappings checks are exact only at a quiescent point (no
//     thread mid-access). Every caller runs there: tests and odf-replay after joining
//     their threads, and AutoVerifyKernel only when no MutationScope is open (AccessMemory
//     opens one, and kswapd keeps one open across its pageout).
//   - No other lock may be held at a quota-wait allocation point (TryWaitForQuota): a
//     mutator blocked there has dropped the gate, and any lock it still held could be
//     needed by the eviction that must run to unblock it. DedicatePteTable /
//     DedicatePmdTable (range_ops.cc) and MemFile::GetPage (mem_fs.cc) pre-allocate
//     outside their locks for exactly this reason; the walk lock's exclusive holds cover
//     only the VMA-map or family change itself.
#ifndef ODF_SRC_RECLAIM_MM_GATE_H_
#define ODF_SRC_RECLAIM_MM_GATE_H_

#include <cstdint>

#include "src/util/bravo_gate.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace odf {
namespace reclaim {

// Capability "mm_gate", always named MmGate::Global() in attribute expressions:
// SharedScope/ExclusiveScope carry the acquire/release contracts, and evictor-only
// machinery (rmap::Snapshot, LRU eviction walks) declares ODF_REQUIRES(Global()) so a
// call without an exclusive scope in sight is a compile error. The reentrant/upgrade
// protocol lives in TLS + the unannotated BravoGate underneath, and is cross-function
// (the nested scope is opened in a callee), so the intraprocedural analysis never sees
// a same-function double acquire and no opt-outs are needed.
class ODF_CAPABILITY("mm_gate") MmGate {
 public:
  static MmGate& Global();

  MmGate(const MmGate&) = delete;
  MmGate& operator=(const MmGate&) = delete;

  // True while the calling thread holds the gate exclusively.
  static bool ThreadHoldsExclusive();

  // Mutator side: shared hold for the duration of one memory operation. Reentrant per
  // thread; a no-op while the calling thread holds the gate exclusively.
  class ODF_SCOPED_CAPABILITY SharedScope {
   public:
    SharedScope() ODF_ACQUIRE_SHARED(Global());
    ~SharedScope() ODF_RELEASE_GENERIC();
    SharedScope(const SharedScope&) = delete;
    SharedScope& operator=(const SharedScope&) = delete;
  };

  // Evictor side: exclusive hold with upgrade semantics. If the calling thread holds
  // shared (a mutator entering direct reclaim from the allocation quota wait), the shared
  // holds are released before blocking for exclusive and re-taken on scope exit — the
  // caller must re-validate any state derived under the dropped shared hold. Reentrant.
  // Every outermost hold adds its length to vmstat mm_gate_hold_ns and the mm_gate_hold
  // histogram.
  class ODF_SCOPED_CAPABILITY ExclusiveScope {
   public:
    ExclusiveScope() ODF_ACQUIRE(Global());
    ~ExclusiveScope() ODF_RELEASE();
    ExclusiveScope(const ExclusiveScope&) = delete;
    ExclusiveScope& operator=(const ExclusiveScope&) = delete;

    // Ends the exclusive hold before the scope ends. Shared holds released on entry come
    // back only at scope exit, so the code in between runs with no gate at all (the
    // evictor's pageout, which a verifier holding the gate may be waiting for).
    void Unlock() ODF_RELEASE();

   private:
    void Release();

    int restored_shared_ = 0;
    bool outermost_ = false;
    bool held_ = true;
    uint64_t acquired_ns_ = 0;
  };

  // Pageout in flight: an evictor that unmapped frames under its exclusive hold writes them
  // to swap and drops their references after releasing it (reclaim::ReclaimPages). It
  // opens the pageout while still holding the gate and ends it when the last reference is
  // dropped; WaitForPageouts, called with the gate held exclusively, returns once none is
  // in flight, so no frame is left owing its write-out or its references (VerifyKernel,
  // the rmap queries). Never wait while this thread's own pageout is open.
  static void BeginPageout() ODF_REQUIRES(Global());
  static void EndPageout();
  static void WaitForPageouts() ODF_REQUIRES(Global());

  // Reclaim passes beside a round: a reclaim round ages under the shared gate and unmaps
  // under the exclusive one, so other reclaimers' passes interleave with its phases. An
  // aging pass (reclaim::AgeActiveList) keeps its current batch isolated off the active
  // list while it walks it, and another round's unmap phase may move every frame between
  // the lists between this round's aging and its unmap. A round that finds nothing at all
  // to age or shrink may be seeing only that: before it gives up it calls
  // WaitForReclaimPasses, which waits for one aging pass in flight to end and returns true
  // when another thread's pass took frames off the lists since `mark` (the round then
  // retries). The aging analog of WaitForPageouts. An aging pass in flight holds the gate shared and
  // never waits for it, so the wait always ends (and under an exclusive hold none is in
  // flight).
  struct ReclaimMark {
    uint64_t passes = 0;       // Passes ended that took frames off the lists, all threads.
    uint64_t passes_here = 0;  // The same, this thread's own.
  };
  static ReclaimMark MarkReclaim();
  static void BeginAging();
  // `isolated`: the pass isolated at least one frame.
  static void EndAging(bool isolated);
  // An unmap phase (reclaim::UnmapPages) that drained or scanned frames.
  static void NoteUnmap();
  [[nodiscard]] static bool WaitForReclaimPasses(const ReclaimMark& mark);

 private:
  MmGate();

  // BRAVO distributed reader/writer gate (util/bravo_gate.h): the shared side is taken on
  // every write access and every fault by every thread, so the reader fast path must not
  // bounce a shared cache line — a plain shared_mutex reader count caps multi-thread fault
  // scaling long before the shard locks do.
  util::BravoGate gate_;
  // Guards the pageout and aging counts; cv_ signals both ending.
  util::Mutex mu_;
  util::CondVar cv_;
  int pageouts_ ODF_GUARDED_BY(mu_) = 0;
  int agings_ ODF_GUARDED_BY(mu_) = 0;
  uint64_t passes_ ODF_GUARDED_BY(mu_) = 0;
  static thread_local int tls_pageouts_;
  static thread_local int tls_agings_;
  static thread_local uint64_t tls_passes_;
  static thread_local int tls_shared_depth_;
  static thread_local int tls_exclusive_depth_;
  static thread_local util::BravoGate::ReadToken tls_token_;
};

}  // namespace reclaim
}  // namespace odf

#endif  // ODF_SRC_RECLAIM_MM_GATE_H_
