// Kswapd — the background reclaim daemon (one per Kernel, like one kswapd per node).
//
// The FrameAllocator's pressure callback (SetPressureCallback) calls Wake() whenever an
// allocation finds free frames below the LOW watermark; the daemon then runs balance
// rounds — each one a ReclaimPages call, which holds the MmGate exclusively for its unmap
// phase and writes the evicted pages to swap after releasing it — until free
// frames recover to the HIGH watermark, naps for kNap, balances again if free frames sank
// below HIGH during the nap, and goes back to sleep. Mutators never wait for
// kswapd: a quota-blocked allocation falls into direct reclaim (Kernel::ReclaimMemory)
// regardless, exactly like the kernel's direct-reclaim-vs-kswapd split. Wake() is cheap
// and callable from any allocation context (an atomic flag plus a condvar notify).
//
// Lifecycle: not started automatically — Kernel::StartKswapd() arms it (tests that want
// deterministic, synchronous reclaim simply never start it); Stop()/the destructor join
// the thread. docs/reclaim.md covers watermark tuning.
#ifndef ODF_SRC_RECLAIM_KSWAPD_H_
#define ODF_SRC_RECLAIM_KSWAPD_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#include "src/reclaim/shrink.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace odf {
namespace reclaim {

class Kswapd {
 public:
  struct Stats {
    // Finished wake cycles: bumped once the daemon goes back to sleep, after the cycle's
    // balance_rounds and pages_freed (vmstat kswapd_wake counts the wakes themselves).
    std::atomic<uint64_t> wakeups{0};
    std::atomic<uint64_t> balance_rounds{0};
    std::atomic<uint64_t> pages_freed{0};
  };

  explicit Kswapd(ShrinkContext ctx);
  ~Kswapd();

  Kswapd(const Kswapd&) = delete;
  Kswapd& operator=(const Kswapd&) = delete;

  void Start();
  void Stop();
  bool Running() const { return running_.load(std::memory_order_relaxed); }

  // Wakes the daemon (idempotent while a wake is already pending). Safe from any thread,
  // including inside an allocation's quota path — no locks beyond the daemon's own.
  void Wake();

  const Stats& stats() const { return stats_; }

 private:
  // Linux naps HZ/10 before kswapd's full sleep.
  static constexpr std::chrono::milliseconds kNap{100};

  void Loop();
  // Runs balance rounds; returns true when free frames reached HIGH, false when there is
  // no limit or nothing more could be reclaimed.
  bool Balance();
  // Naps for kNap (a Wake() or Stop() ends it early). Returns true when the nap ran out
  // with free frames below HIGH, i.e. the daemon should balance again before sleeping.
  bool NapEndsBelowHigh();

  ShrinkContext ctx_;
  std::thread thread_;
  util::Mutex mu_;
  util::CondVar cv_;
  bool stop_ ODF_GUARDED_BY(mu_) = false;
  bool pending_ ODF_GUARDED_BY(mu_) = false;
  std::atomic<bool> running_{false};
  Stats stats_;
};

}  // namespace reclaim
}  // namespace odf

#endif  // ODF_SRC_RECLAIM_KSWAPD_H_
