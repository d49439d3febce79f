// Lint fixture: the same violations as dirty.cc, each suppressed with an
// `// odf-lint: allow(<rule>)` comment (on the line or the line above).
// tests/lint_selftest.py asserts this file lints CLEAN — proving the allow
// mechanism works for every rule. Never compiled.

#include <mutex>  // odf-lint: allow(raw-std-mutex) — fixture exercises suppression

namespace odf_fixture {

void RawRefcount(Meta& meta) {
  meta.refcount.fetch_add(1);  // odf-lint: allow(raw-refcount)
}

void NakedLock(RawMutex& mu) {
  // odf-lint: allow(naked-lock)
  mu.lock();
}

void RawStdMutex() {
  // odf-lint: allow(raw-std-mutex)
  std::mutex mu;
  // odf-lint: allow(naked-lock)
  mu.lock();  // odf-lint: allow(raw-std-mutex)
}

void LockFreeWalkGuarded(Walker& walker) {
  PtEpoch::ReadGuard guard;
  auto t = walker.TranslateLockFree(pgd, va);  // guard above: no finding
  (void)t;
}

void LockFreeWalkAllowed(Walker& walker) {
  // odf-lint: allow(lockfree-walk-guard)
  auto t = walker.TranslateLockFree(pgd, va);
  (void)t;
}

void GenBeforeFreeOrdered(Allocator& allocator, MmLockTable& locks, uint64_t* slot) {
  StoreEntry(slot, Pte());
  locks.InvalidatePage(va);  // bump between rewrite and free: no finding
  allocator.DecRef(frame);
}

void GenBeforeFreeAllowed(Allocator& allocator, uint64_t* slot) {
  StoreEntry(slot, Pte());
  // odf-lint: allow(gen-before-free)
  allocator.DecRef(frame);
}

void TraceOutsideGuard() {
  trace::Emit(TraceEventId::k_fault, 0, 0);  // odf-lint: allow(trace-outside-guard)
}

void DirectWriteback(SwapSpace& swap, FrameId frame, const std::byte* data) {
  // odf-lint: allow(direct-writeback)
  swap.TryReserveWriteOut(frame, data, 1);
}

void TableMutex(Kernel& kernel) {
  // odf-lint: allow(naked-lock)
  kernel.table_mutex_.lock();  // odf-lint: allow(table-mutex)
}

void HwPoison(Allocator& allocator) {
  allocator.MarkHwPoison(frame);  // odf-lint: allow(hwpoison-flag)
}

void ThreadFence() {
  std::atomic_thread_fence(std::memory_order_seq_cst);  // odf-lint: allow(thread-fence)
}

void RmapWalkGuarded(ShrinkContext& ctx, std::vector<RmapLocation>* out) {
  PtEpoch::ReadGuard epoch;
  ctx.rmap->Walk(frame, out);  // guard above: no finding
}

void* ReserveRam(size_t bytes) {
  return mmap(nullptr, bytes, 3, 0x22, -1, 0);  // odf-lint: allow(raw-mmap)
}

}  // namespace odf_fixture
