// SwapSpace: the simulated swap device.
//
// The paper's robustness story (§4) relies on the kernel's usual low-memory machinery: when
// PTE tables (or data pages) cannot be allocated, pages are swapped out or the OOM killer
// runs. This module provides the swap half: reference-counted 4 KiB slots on a "device"
// outside simulated RAM (host memory — the analog of a disk), written by the reclaimer and
// read back by the swap-in fault path.
//
// Slot reference counting mirrors Linux's swap_map: classic fork copies a swap PTE and takes
// a slot reference; every swap-in or unmap drops one; the slot is recycled at zero. A slot's
// content is immutable while referenced, which is what makes post-fork COW of swapped pages
// trivially correct — each process faults in its own private copy.
//
// The reclaimer writes in two steps, the swap-cache analog (docs/reclaim.md "Pageout"):
// TryReserveWriteOut, under the evictor's exclusive MmGate, hands out a slot that points at
// the frame being evicted — pinned and unmapped, so its bytes hold still — and
// CommitWriteOuts, after the gate is released, copies those bytes into the slot. Until its
// commit a slot's content IS its frame's bytes: ReadIn and PeekSlot serve them from the frame,
// and a slot whose last reference drops meanwhile is recycled only by the commit.
#ifndef ODF_SRC_MM_SWAP_H_
#define ODF_SRC_MM_SWAP_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/phys/page_meta.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace odf {

using SwapSlot = uint64_t;

// Returned by TryReserveWriteOut when the device I/O "fails" (injected swap_out error).
inline constexpr SwapSlot kInvalidSwapSlot = ~SwapSlot{0};

struct SwapStats {
  uint64_t slots_in_use = 0;
  uint64_t total_slots = 0;      // High-water mark of device size.
  uint64_t writes = 0;           // Pages swapped out.
  uint64_t reads = 0;            // Pages swapped in.
  uint64_t io_errors = 0;        // Injected swap_out / swap_in failures.
};

class SwapSpace {
 public:
  SwapSpace() = default;
  SwapSpace(const SwapSpace&) = delete;
  SwapSpace& operator=(const SwapSpace&) = delete;

  // Allocates a slot with refcount 1 and stores the page content. `src` may be null for a
  // logically-zero page (the slot then reads back as zeros without storing a buffer).
  // NOFAIL: never consults fault injection.
  SwapSlot WriteOut(const std::byte* src);

  // Reserves a slot with `refs` references for `frame`, whose bytes `src` the slot serves
  // until CommitWriteOuts copies them in. The caller keeps the frame pinned and unmapped (no
  // writer can reach it) until that commit. kInvalidSwapSlot when fault injection (site
  // swap_out) fails the device write: the caller keeps the page resident and retries later.
  [[nodiscard]] SwapSlot TryReserveWriteOut(FrameId frame, const std::byte* src,
                                            uint32_t refs);

  // Copies each reserved slot's frame bytes into the slot, outside the mutex, and then ends
  // the reservations: from here on the slots serve their own copies and the frames may be
  // freed. A slot whose references all dropped meanwhile is recycled here, uncopied.
  void CommitWriteOuts(std::span<const SwapSlot> slots);

  // True while a reservation of `frame`'s bytes awaits its commit (memory failure must not
  // retire a frame whose bytes are still on their way to the device).
  bool WriteOutPending(FrameId frame) const;

  // Copies the slot's content into `dst` (exactly kPageSize bytes); a reserved slot's
  // content comes from its frame (pgswapin_pending). NOFAIL.
  void ReadIn(SwapSlot slot, std::byte* dst);

  // Fallible ReadIn: false when fault injection (site swap_in) fails the device read; `dst`
  // is untouched and the slot keeps its reference so a later retry can succeed.
  [[nodiscard]] bool TryReadIn(SwapSlot slot, std::byte* dst);

  // Slot reference management (fork copies a swap entry -> IncRef; unmap/swap-in -> DecRef).
  void IncRef(SwapSlot slot);
  void DecRef(SwapSlot slot);

  uint32_t RefCount(SwapSlot slot) const;
  SwapStats Stats() const;
  bool AllFree() const;

  // Content view for the replay digest (src/replay): the slot's buffer (kPageSize bytes),
  // its frame's bytes while the slot is reserved, or nullptr when its logical content is
  // all-zero. No device-read accounting. The pointer stays valid while the slot keeps a
  // reference and no commit runs; callers run quiescently.
  const std::byte* PeekSlot(SwapSlot slot) const;

 private:
  struct Slot {
    std::unique_ptr<std::byte[]> data;  // Null == all-zero content.
    const std::byte* pending = nullptr;  // Reserved: the frame bytes served until commit.
    FrameId pending_frame = kInvalidFrame;
    uint32_t refs = 0;
  };

  // Pops a free slot or grows the device; the caller fills it in.
  SwapSlot AllocSlotLocked() ODF_REQUIRES(mutex_);
  void ReleaseSlotLocked(SwapSlot slot) ODF_REQUIRES(mutex_);

  mutable util::Mutex mutex_;
  std::vector<Slot> slots_ ODF_GUARDED_BY(mutex_);
  std::vector<SwapSlot> free_slots_ ODF_GUARDED_BY(mutex_);
  std::vector<SwapSlot> pending_ ODF_GUARDED_BY(mutex_);  // Reserved, not yet committed.
  SwapStats stats_ ODF_GUARDED_BY(mutex_);
};

}  // namespace odf

#endif  // ODF_SRC_MM_SWAP_H_
