#include "src/mm/swap.h"

#include <cstring>

#include "src/debug/lockdep.h"
#include "src/fi/fault_inject.h"
#include "src/trace/metrics.h"
#include "src/trace/trace.h"
#include "src/util/log.h"

namespace odf {

namespace {

// Swap-device lock class. Taken from the reclaimer and the swap-in fault path; never held
// while acquiring another mm lock (callers copy in/out under it and return; the commit of
// a reservation copies without it).
debug::LockClass g_swap_lock_class("SwapSpace::mutex_");

}  // namespace

SwapSlot SwapSpace::AllocSlotLocked() {
  SwapSlot slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = slots_.size();
    slots_.emplace_back();
    ++stats_.total_slots;
  }
  ODF_DCHECK(slots_[slot].refs == 0 && slots_[slot].pending == nullptr);
  ++stats_.slots_in_use;
  ++stats_.writes;
  CountVm(VmCounter::k_swap_writes);
  return slot;
}

void SwapSpace::ReleaseSlotLocked(SwapSlot slot) {
  free_slots_.push_back(slot);
  --stats_.slots_in_use;
  // Keep the buffer for recycling; a zeroing WriteOut replaces content anyway.
}

SwapSlot SwapSpace::WriteOut(const std::byte* src) {
  debug::MutexGuard guard(mutex_, g_swap_lock_class);
  SwapSlot slot = AllocSlotLocked();
  Slot& entry = slots_[slot];
  if (src != nullptr) {
    if (entry.data == nullptr) {
      entry.data = std::make_unique<std::byte[]>(kPageSize);
    }
    std::memcpy(entry.data.get(), src, kPageSize);
  } else {
    entry.data.reset();  // Logical zero; no device storage needed.
  }
  entry.refs = 1;
  return slot;
}

SwapSlot SwapSpace::TryReserveWriteOut(FrameId frame, const std::byte* src, uint32_t refs) {
  ODF_DCHECK(src != nullptr && refs > 0);
  if (fi::ShouldInject(FiSite::k_swap_out)) {
    ODF_TRACE(swap_io_error, 0, /*is_write=*/1);
    CountVm(VmCounter::k_swap_io_errors);
    debug::MutexGuard guard(mutex_, g_swap_lock_class);
    ++stats_.io_errors;
    return kInvalidSwapSlot;
  }
  debug::MutexGuard guard(mutex_, g_swap_lock_class);
  SwapSlot slot = AllocSlotLocked();
  Slot& entry = slots_[slot];
  if (entry.data == nullptr) {
    // The commit copies into this buffer without the mutex; it stays put until then.
    entry.data = std::make_unique<std::byte[]>(kPageSize);
  }
  entry.pending = src;
  entry.pending_frame = frame;
  entry.refs = refs;
  pending_.push_back(slot);
  return slot;
}

void SwapSpace::CommitWriteOuts(std::span<const SwapSlot> slots) {
  if (slots.empty()) {
    return;
  }
  struct Copy {
    std::byte* dst;
    const std::byte* src;
  };
  std::vector<Copy> copies;
  copies.reserve(slots.size());
  {
    debug::MutexGuard guard(mutex_, g_swap_lock_class);
    for (SwapSlot slot : slots) {
      const Slot& entry = slots_[slot];
      ODF_DCHECK(entry.pending != nullptr) << "commit of unreserved slot " << slot;
      if (entry.refs > 0) {
        copies.push_back(Copy{entry.data.get(), entry.pending});
      }
    }
  }
  // Without the mutex: until the reservation ends below, no one else touches the buffer
  // (ReadIn and PeekSlot serve the frame, and the slot cannot be recycled), and the frame
  // is pinned and unmapped, so its bytes hold still.
  for (const Copy& copy : copies) {
    std::memcpy(copy.dst, copy.src, kPageSize);
  }
  debug::MutexGuard guard(mutex_, g_swap_lock_class);
  for (SwapSlot slot : slots) {
    Slot& entry = slots_[slot];
    entry.pending = nullptr;
    entry.pending_frame = kInvalidFrame;
    if (entry.refs == 0) {
      ReleaseSlotLocked(slot);  // Its last reference dropped while the write-out was pending.
    }
  }
  size_t kept = 0;
  for (SwapSlot slot : pending_) {
    if (slots_[slot].pending != nullptr) {
      pending_[kept++] = slot;  // Another evictor's reservation.
    }
  }
  pending_.resize(kept);
}

bool SwapSpace::WriteOutPending(FrameId frame) const {
  debug::MutexGuard guard(mutex_, g_swap_lock_class);
  for (SwapSlot slot : pending_) {
    if (slots_[slot].pending_frame == frame) {
      return true;
    }
  }
  return false;
}

void SwapSpace::ReadIn(SwapSlot slot, std::byte* dst) {
  debug::MutexGuard guard(mutex_, g_swap_lock_class);
  ODF_CHECK(slot < slots_.size() && slots_[slot].refs > 0) << "read of free swap slot " << slot;
  const Slot& entry = slots_[slot];
  if (entry.pending != nullptr) {
    // Reserved: the frame still holds the content, and the commit, which must take the
    // mutex before the frame can be freed, has not ended the reservation.
    std::memcpy(dst, entry.pending, kPageSize);
    CountVm(VmCounter::k_pgswapin_pending);
  } else if (entry.data == nullptr) {
    std::memset(dst, 0, kPageSize);
  } else {
    std::memcpy(dst, entry.data.get(), kPageSize);
  }
  ++stats_.reads;
  CountVm(VmCounter::k_swap_reads);
}

bool SwapSpace::TryReadIn(SwapSlot slot, std::byte* dst) {
  if (fi::ShouldInject(FiSite::k_swap_in)) {
    ODF_TRACE(swap_io_error, 0, /*is_write=*/0, slot);
    CountVm(VmCounter::k_swap_io_errors);
    debug::MutexGuard guard(mutex_, g_swap_lock_class);
    ++stats_.io_errors;
    return false;
  }
  ReadIn(slot, dst);
  return true;
}

void SwapSpace::IncRef(SwapSlot slot) {
  debug::MutexGuard guard(mutex_, g_swap_lock_class);
  ODF_CHECK(slot < slots_.size() && slots_[slot].refs > 0) << "incref of free slot " << slot;
  ++slots_[slot].refs;
}

void SwapSpace::DecRef(SwapSlot slot) {
  debug::MutexGuard guard(mutex_, g_swap_lock_class);
  ODF_CHECK(slot < slots_.size() && slots_[slot].refs > 0) << "decref of free slot " << slot;
  if (--slots_[slot].refs == 0 && slots_[slot].pending == nullptr) {
    ReleaseSlotLocked(slot);  // A reserved slot is recycled by its commit instead.
  }
}

uint32_t SwapSpace::RefCount(SwapSlot slot) const {
  debug::MutexGuard guard(mutex_, g_swap_lock_class);
  return slot < slots_.size() ? slots_[slot].refs : 0;
}

SwapStats SwapSpace::Stats() const {
  debug::MutexGuard guard(mutex_, g_swap_lock_class);
  return stats_;
}

const std::byte* SwapSpace::PeekSlot(SwapSlot slot) const {
  debug::MutexGuard guard(mutex_, g_swap_lock_class);
  if (slot >= slots_.size()) {
    return nullptr;
  }
  const Slot& entry = slots_[slot];
  return entry.pending != nullptr ? entry.pending : entry.data.get();
}

bool SwapSpace::AllFree() const {
  debug::MutexGuard guard(mutex_, g_swap_lock_class);
  return stats_.slots_in_use == 0;
}

}  // namespace odf
