#include "src/reclaim/mm_gate.h"

#include "src/debug/debug.h"
#include "src/pt/mm_locks.h"
#include "src/trace/metrics.h"
#include "src/trace/trace.h"

namespace odf {
namespace reclaim {

namespace {

LatencyHistogram& MmGateHoldHistogram() {
  static LatencyHistogram& histogram =
      MetricsRegistry::Global().RegisterHistogram("mm_gate_hold");
  return histogram;
}

}  // namespace

thread_local int MmGate::tls_pageouts_ = 0;
thread_local int MmGate::tls_agings_ = 0;
thread_local uint64_t MmGate::tls_passes_ = 0;
thread_local int MmGate::tls_shared_depth_ = 0;
thread_local int MmGate::tls_exclusive_depth_ = 0;
thread_local util::BravoGate::ReadToken MmGate::tls_token_;

MmGate::MmGate() {
  // Eager registration: the histogram shows in FormatVmstat and the sidecars even when
  // nothing ever holds the gate exclusively (count 0 is the data point).
  MmGateHoldHistogram();
}

MmGate& MmGate::Global() {
  static MmGate gate;
  return gate;
}

bool MmGate::ThreadHoldsExclusive() { return tls_exclusive_depth_ > 0; }

MmGate::SharedScope::SharedScope() {
  if (tls_exclusive_depth_ > 0) {
    // The evictor re-entering a mutator path (OOM kill -> Exit): exclusive subsumes
    // shared. Counted as a shared hold so the destructor stays symmetric, but the
    // gate itself is untouched — acquiring shared here would self-deadlock.
    ++tls_shared_depth_;
    return;
  }
  if (tls_shared_depth_++ == 0) {
    tls_token_ = Global().gate_.LockShared();
    if (tls_token_.wait_ns != 0) {
      NoteMmLockWait(/*kind=*/0, tls_token_.wait_ns);
    }
  }
}

MmGate::SharedScope::~SharedScope() {
  ODF_DCHECK(tls_shared_depth_ > 0) << "unbalanced MmGate::SharedScope";
  if (--tls_shared_depth_ == 0 && tls_exclusive_depth_ == 0) {
    Global().gate_.UnlockShared(tls_token_);
  }
}

MmGate::ExclusiveScope::ExclusiveScope() {
  if (tls_exclusive_depth_++ > 0) {
    return;  // Reentrant: already exclusive.
  }
  outermost_ = true;
  // Upgrade: drop this thread's shared holds so the exclusive acquisition cannot deadlock
  // against itself. Other threads' shared holds still gate us, which is the point.
  restored_shared_ = tls_shared_depth_;
  if (restored_shared_ > 0) {
    tls_shared_depth_ = 0;
    Global().gate_.UnlockShared(tls_token_);
  }
  uint64_t wait_ns = Global().gate_.LockExclusive();
  if (wait_ns > 1000) {
    NoteMmLockWait(/*kind=*/1, wait_ns);
  }
  acquired_ns_ = trace::NowNanos();
}

void MmGate::ExclusiveScope::Release() {
  ODF_DCHECK(tls_exclusive_depth_ > 0) << "unbalanced MmGate::ExclusiveScope";
  --tls_exclusive_depth_;
  if (!outermost_) {
    return;
  }
  uint64_t held_ns = trace::NowNanos() - acquired_ns_;
  CountVm(VmCounter::k_mm_gate_hold_ns, held_ns);
  MmGateHoldHistogram().RecordNanos(held_ns);
  Global().gate_.UnlockExclusive();
}

void MmGate::ExclusiveScope::Unlock() {
  ODF_DCHECK(held_) << "MmGate::ExclusiveScope unlocked twice";
  ODF_DCHECK(!outermost_ || tls_exclusive_depth_ == 1)
      << "early unlock of an exclusive scope with nested scopes open";
  held_ = false;
  Release();
}

MmGate::ExclusiveScope::~ExclusiveScope() {
  if (held_) {
    Release();
  }
  if (restored_shared_ > 0) {
    // Restore the caller's shared holds after the upgrade.
    tls_token_ = Global().gate_.LockShared();
    tls_shared_depth_ = restored_shared_;
  }
}

void MmGate::BeginPageout() {
  ODF_DCHECK(ThreadHoldsExclusive()) << "pageout opened without the MmGate held exclusive";
  MmGate& gate = Global();
  util::MutexLock lock(gate.mu_);
  ++gate.pageouts_;
  ++tls_pageouts_;
}

void MmGate::EndPageout() {
  MmGate& gate = Global();
  {
    util::MutexLock lock(gate.mu_);
    ODF_DCHECK(gate.pageouts_ > 0 && tls_pageouts_ > 0) << "unbalanced MmGate::EndPageout";
    --tls_pageouts_;
    if (--gate.pageouts_ > 0) {
      return;
    }
  }
  gate.cv_.NotifyAll();
}

void MmGate::WaitForPageouts() {
  ODF_DCHECK(ThreadHoldsExclusive()) << "pageout wait without the MmGate held exclusive";
  ODF_CHECK(tls_pageouts_ == 0) << "waiting for this thread's own pageout would never end";
  MmGate& gate = Global();
  util::MutexLock lock(gate.mu_);
  while (gate.pageouts_ > 0) {
    gate.cv_.Wait(gate.mu_);
  }
}

MmGate::ReclaimMark MmGate::MarkReclaim() {
  MmGate& gate = Global();
  util::MutexLock lock(gate.mu_);
  return ReclaimMark{gate.passes_, tls_passes_};
}

void MmGate::BeginAging() {
  MmGate& gate = Global();
  util::MutexLock lock(gate.mu_);
  ++gate.agings_;
  ++tls_agings_;
}

void MmGate::EndAging(bool isolated) {
  MmGate& gate = Global();
  {
    util::MutexLock lock(gate.mu_);
    ODF_DCHECK(gate.agings_ > 0 && tls_agings_ > 0) << "unbalanced MmGate::EndAging";
    --gate.agings_;
    --tls_agings_;
    if (isolated) {
      ++gate.passes_;
      ++tls_passes_;
    }
  }
  gate.cv_.NotifyAll();
}

void MmGate::NoteUnmap() {
  MmGate& gate = Global();
  util::MutexLock lock(gate.mu_);
  ++gate.passes_;
  ++tls_passes_;
}

bool MmGate::WaitForReclaimPasses(const ReclaimMark& mark) {
  ODF_CHECK(tls_agings_ == 0) << "waiting for this thread's own aging pass would never end";
  MmGate& gate = Global();
  util::MutexLock lock(gate.mu_);
  const uint64_t seen = gate.passes_;
  while (gate.agings_ > 0 && gate.passes_ == seen) {
    gate.cv_.Wait(gate.mu_);
  }
  return gate.passes_ - mark.passes > tls_passes_ - mark.passes_here;
}

}  // namespace reclaim
}  // namespace odf
