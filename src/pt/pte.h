// Page-table entry encoding, bit-compatible in spirit with x86-64 (present / writable / user /
// accessed / dirty / PS bits, frame number in the address bits). Entries are plain uint64_t in
// the table frames; this header provides a typed value wrapper.
#ifndef ODF_SRC_PT_PTE_H_
#define ODF_SRC_PT_PTE_H_

#include <atomic>
#include <cstdint>

#include "src/phys/page_meta.h"

namespace odf {

// Entry bit layout (matching x86-64 semantics where it matters to the design):
//   bit 0  present
//   bit 1  writable      — the hierarchical attribute ODF clears at the PMD level (§3.2)
//   bit 2  user
//   bit 5  accessed      — set by the "CPU" (walker) on translation
//   bit 6  dirty         — set by the walker on write translation
//   bit 7  huge (PS)     — on PMD entries: entry maps a 2 MiB compound page directly
//   bits 12..43 frame id (we use dense FrameIds rather than physical addresses)
enum PteBit : uint64_t {
  kPtePresent = 1ULL << 0,
  kPteWritable = 1ULL << 1,
  kPteUser = 1ULL << 2,
  kPteAccessed = 1ULL << 5,
  kPteDirty = 1ULL << 6,
  kPteHuge = 1ULL << 7,
  // Software bit (ignored by the "hardware" walker because present=0): the entry is a swap
  // entry; the frame field holds the swap-slot id instead of a frame id.
  kPteSwap = 1ULL << 9,
  // Software bit (present=0): hwpoison marker, the is_hwpoison_entry() swap-entry analog.
  // The frame field keeps the poisoned frame id for diagnostics, but the marker carries NO
  // reference on it — the quarantine pin is the allocator's (src/mf, docs/memory-failure.md).
  // Any access faults with FaultResult::kHwPoison (the SIGBUS analog).
  kPteHwPoison = 1ULL << 10,
};

inline constexpr uint64_t kPteFrameShift = 12;
inline constexpr uint64_t kPteFlagsMask = (1ULL << kPteFrameShift) - 1;

class Pte {
 public:
  constexpr Pte() = default;
  constexpr explicit Pte(uint64_t raw) : raw_(raw) {}

  static constexpr Pte Make(FrameId frame, uint64_t flags) {
    return Pte((static_cast<uint64_t>(frame) << kPteFrameShift) | (flags & kPteFlagsMask));
  }

  constexpr uint64_t raw() const { return raw_; }
  constexpr bool IsPresent() const { return (raw_ & kPtePresent) != 0; }
  constexpr bool IsWritable() const { return (raw_ & kPteWritable) != 0; }
  constexpr bool IsUser() const { return (raw_ & kPteUser) != 0; }
  constexpr bool IsAccessed() const { return (raw_ & kPteAccessed) != 0; }
  constexpr bool IsDirty() const { return (raw_ & kPteDirty) != 0; }
  constexpr bool IsHuge() const { return (raw_ & kPteHuge) != 0; }
  constexpr bool IsSwap() const { return !IsPresent() && (raw_ & kPteSwap) != 0; }
  constexpr bool IsHwPoison() const { return !IsPresent() && (raw_ & kPteHwPoison) != 0; }
  constexpr bool IsNone() const { return raw_ == 0; }

  // For swap entries, the frame field carries the swap-slot id.
  constexpr uint64_t swap_slot() const { return raw_ >> kPteFrameShift; }
  static constexpr Pte MakeSwap(uint64_t slot) {
    return Pte((slot << kPteFrameShift) | kPteSwap);
  }

  // Poison marker: non-present, refcount-free tombstone remembering which frame died here.
  static constexpr Pte MakeHwPoison(FrameId frame) {
    return Pte((static_cast<uint64_t>(frame) << kPteFrameShift) | kPteHwPoison);
  }

  constexpr FrameId frame() const { return static_cast<FrameId>(raw_ >> kPteFrameShift); }
  constexpr uint64_t flags() const { return raw_ & kPteFlagsMask; }

  constexpr Pte WithFlag(uint64_t flag) const { return Pte(raw_ | flag); }
  constexpr Pte WithoutFlag(uint64_t flag) const { return Pte(raw_ & ~flag); }
  constexpr Pte WithFrame(FrameId frame) const {
    return Pte((raw_ & kPteFlagsMask) | (static_cast<uint64_t>(frame) << kPteFrameShift));
  }

  constexpr bool operator==(const Pte&) const = default;

 private:
  uint64_t raw_ = 0;
};

// Entry words live in table frames and can be read by one sharing process while another
// modifies them under the table's split lock (exactly the situation hardware handles with
// cache coherence). atomic_ref makes this well-defined C++ at zero cost on x86.
//
// Ordering: stores are release and loads are acquire so that a lock-free reader (the
// epoch-guarded walk in Process::AccessMemory) that observes a present entry also observes
// the initialized contents of the table or data frame it points to. On x86 both compile to
// the same plain MOVs the previous relaxed pair did.
inline Pte LoadEntry(const uint64_t* slot) {
  return Pte(std::atomic_ref<const uint64_t>(*slot).load(std::memory_order_acquire));
}

inline void StoreEntry(uint64_t* slot, Pte value) {
  std::atomic_ref<uint64_t>(*slot).store(value.raw(), std::memory_order_release);
}

// Compare-and-swap publication for racy install points (intermediate-table links, where two
// faulting threads in disjoint shards of the same address space may race to populate one
// shared PGD/PUD slot). On success `expected` is untouched; on failure it receives the
// entry the slot actually holds.
inline bool CasEntry(uint64_t* slot, Pte& expected, Pte desired) {
  uint64_t raw = expected.raw();
  bool won = std::atomic_ref<uint64_t>(*slot).compare_exchange_strong(
      raw, desired.raw(), std::memory_order_acq_rel, std::memory_order_acquire);
  if (!won) {
    expected = Pte(raw);
  }
  return won;
}

// Monotonic flag set (accessed/dirty harvesting by the walker). A blind store of a stale
// snapshot could revert a concurrent COW install; fetch_or only ever adds the bit.
inline Pte SetEntryFlags(uint64_t* slot, uint64_t flags) {
  uint64_t previous =
      std::atomic_ref<uint64_t>(*slot).fetch_or(flags, std::memory_order_acq_rel);
  return Pte(previous | flags);
}

// Accessed-bit harvest for page aging (the test-and-clear of PTE.A that second-chance /
// LRU scanning is built on). Clears the bit only while the slot still holds a present
// entry mapping `frame`, in one CAS: aging walks beside the mutators, so the slot it found
// may since have been zapped, turned into a swap entry or reused for another frame, and
// none of those may lose a bit. Atomic against the walker re-setting the bit concurrently;
// returns true when the bit was set and cleared. Clearing A on a present entry is NOT a
// structural mutation — sharers at worst take a spurious TLB-miss re-walk.
inline bool TestAndClearAccessed(uint64_t* slot, FrameId frame) {
  std::atomic_ref<uint64_t> word(*slot);
  uint64_t current = word.load(std::memory_order_relaxed);
  for (;;) {
    Pte entry(current);
    if (!entry.IsPresent() || entry.frame() != frame || (current & kPteAccessed) == 0) {
      return false;
    }
    if (word.compare_exchange_weak(current, current & ~static_cast<uint64_t>(kPteAccessed),
                                   std::memory_order_relaxed)) {
      return true;
    }
  }
}

}  // namespace odf

#endif  // ODF_SRC_PT_PTE_H_
