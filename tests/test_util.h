// Shared helpers for the odfork test suite.
#ifndef ODF_TESTS_TEST_UTIL_H_
#define ODF_TESTS_TEST_UTIL_H_

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/proc/kernel.h"
#include "src/proc/process.h"
#include "src/reclaim/mm_gate.h"
#include "src/reclaim/shrink.h"
#include "src/trace/metrics.h"
#include "src/util/rng.h"

namespace odf {

// Fills `length` bytes at `va` with a deterministic pattern derived from `seed` and the
// address, via the process memory API.
inline void FillPattern(Process& p, Vaddr va, uint64_t length, uint64_t seed) {
  std::vector<std::byte> buffer(length);
  for (uint64_t i = 0; i < length; ++i) {
    buffer[i] = static_cast<std::byte>((seed * 1099511628211ULL + va + i) >> 5);
  }
  ASSERT_TRUE(p.WriteMemory(va, buffer));
}

// Verifies the pattern previously written by FillPattern.
inline void ExpectPattern(Process& p, Vaddr va, uint64_t length, uint64_t seed) {
  std::vector<std::byte> buffer(length);
  ASSERT_TRUE(p.ReadMemory(va, buffer));
  for (uint64_t i = 0; i < length; ++i) {
    auto expected = static_cast<std::byte>((seed * 1099511628211ULL + va + i) >> 5);
    ASSERT_EQ(buffer[i], expected) << "mismatch at offset " << i << " (va " << va + i << ")";
  }
}

inline std::byte ReadByte(Process& p, Vaddr va) {
  std::byte value{0};
  EXPECT_TRUE(p.ReadMemory(va, std::span(&value, 1)));
  return value;
}

inline void WriteByte(Process& p, Vaddr va, std::byte value) {
  EXPECT_TRUE(p.WriteMemory(va, std::span(&value, 1)));
}

// Brackets an operation with vmstat reads: construct it just before the access or fork a
// test attributes counts to; Of(counter) is then how far `counter` has moved since.
// vmstat is machine-global, so the bracket is what makes a count per access.
class VmDeltas {
 public:
  VmDeltas() : before_(ReadAllVm()) {}
  uint64_t Of(VmCounter counter) const {
    return ReadVm(counter) - before_[static_cast<size_t>(counter)];
  }

 private:
  std::array<uint64_t, kVmCounterCount> before_;
};

// A reclaim context over `kernel` whose flush invalidates every running process's TLB, as
// the kernel's own (private) context does.
inline reclaim::ShrinkContext KernelShrinkContext(Kernel& kernel) {
  reclaim::ShrinkContext ctx;
  ctx.allocator = &kernel.allocator();
  ctx.swap = &kernel.swap_space();
  ctx.rmap = &kernel.rmap();
  ctx.lru = &kernel.lru();
  ctx.flush_tlbs = [&kernel] {
    for (const std::shared_ptr<Process>& process : kernel.RunningProcesses()) {
      process->address_space().locks().FlushAll();
    }
  };
  return ctx;
}

// Runs one unmap pass that evicts nothing: every freshly faulted page on the LRU gets its
// second chance — its accessed bit cleared, the page moved to the active list — as in the
// first round of a reclaim (reclaim::ReclaimPages).
inline void RotateLruToActive(Kernel& kernel) {
  reclaim::ShrinkContext ctx = KernelShrinkContext(kernel);
  reclaim::MmGate::ExclusiveScope gate;
  reclaim::Pageout none;
  EXPECT_EQ(reclaim::UnmapPages(ctx, kernel.lru().Size(), &none), 0u)
      << "a page on the LRU had no accessed bit to give it a second chance";
}

// Ages every page on the LRU cold, the way a reclaim round ages before its unmap phase:
// after RotateLruToActive, an aging pass beside the mutators demotes them all to the
// inactive list. Tests that drive reclaim::UnmapPages directly call it first. It flushes
// through its own hook, so the hooks of a test's own ShrinkContext see only the unmap
// phase under test.
inline void AgeLruCold(Kernel& kernel) {
  RotateLruToActive(kernel);
  reclaim::ShrinkContext ctx = KernelShrinkContext(kernel);
  reclaim::MmGate::SharedScope gate;
  const uint64_t active = kernel.lru().ActiveSize();
  bool tlb_dirty = false;
  EXPECT_EQ(reclaim::AgeActiveList(ctx, active, &tlb_dirty), active);
  EXPECT_FALSE(tlb_dirty) << "a page was touched between the two passes";
}

}  // namespace odf

#endif  // ODF_TESTS_TEST_UTIL_H_
