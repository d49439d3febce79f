// Shared helpers for the odfork test suite.
#ifndef ODF_TESTS_TEST_UTIL_H_
#define ODF_TESTS_TEST_UTIL_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "src/proc/kernel.h"
#include "src/proc/process.h"
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

}  // namespace odf

#endif  // ODF_TESTS_TEST_UTIL_H_
