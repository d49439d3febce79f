// Lint fixture: every directory-scoped odf_lint rule fires at least once here.
// NEVER compiled — tests/lint_selftest.py lints this file explicitly and asserts
// the exact rule ids below. The default tree scan skips tests/lint_fixtures/.
//
// Line numbers matter to the selftest: add new cases at the END of the file.

#include <mutex>

namespace odf_fixture {

void RawRefcount(Meta& meta) {
  meta.refcount.fetch_add(1);  // raw-refcount
}

void NakedLock(std::mutex& mu) {
  mu.lock();  // naked-lock (and the std::mutex parameter above is raw-std-mutex)
}

void RawStdMutex() {
  std::lock_guard<std::mutex> guard(g_mutex);  // raw-std-mutex (+ naked-lock)
}

void LockFreeWalkNoGuard(Walker& walker) {
  auto t = walker.TranslateLockFree(pgd, va);  // lockfree-walk-guard
  (void)t;
}

void GenBeforeFreeViolation(Allocator& allocator, uint64_t* slot) {
  StoreEntry(slot, Pte());
  allocator.DecRef(frame);  // gen-before-free: rewrite above, no bump between
}

void TraceOutsideGuard() {
  trace::Emit(TraceEventId::k_fault, 0, 0);  // trace-outside-guard
}

void DirectWriteback(SwapSpace& swap, FrameId frame, const std::byte* data) {
  swap.TryReserveWriteOut(frame, data, 1);  // direct-writeback
}

void TableMutex(Kernel& kernel) {
  kernel.table_mutex_.lock();  // table-mutex (+ naked-lock)
}

void HwPoison(Allocator& allocator) {
  allocator.MarkHwPoison(frame);  // hwpoison-flag
}

void ThreadFence() {
  std::atomic_thread_fence(std::memory_order_seq_cst);  // thread-fence
}

void RmapWalkNoGuard(Rmap& rmap, std::vector<RmapLocation>* out) {
  rmap.Walk(frame, out);  // lockfree-walk-guard
}

void* ReserveRam(size_t bytes) {
  return mmap(nullptr, bytes, 3, 0x22, -1, 0);  // raw-mmap
}

}  // namespace odf_fixture
