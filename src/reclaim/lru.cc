#include "src/reclaim/lru.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <thread>

#include "src/debug/debug.h"
#include "src/debug/lockdep.h"
#include "src/trace/metrics.h"
#include "src/trace/trace.h"

namespace odf {
namespace reclaim {

namespace lru_internal {

// One thread's pending admissions (the folio_batch). The owner appends without the LRU
// lock: it writes the slot, then publishes it with a release store of `count`, so a
// lock holder that loads `count` with acquire sees every slot below it. Slots are atomics
// because Release may null one (a freed frame) while the owner appends past `count`.
struct AddBatch {
  static constexpr uint32_t kSize = 31;  // Linux's folio_batch capacity.

  std::thread::id owner;
  std::atomic<uint32_t> count{0};
  std::array<std::atomic<FrameId>, kSize> frames;
};

}  // namespace lru_internal

namespace {

using lru_internal::AddBatch;

// Shadow entries for slots that never refault (the page was unmapped instead) would
// otherwise accumulate forever; past this many the table is dropped wholesale. Losing old
// shadows only costs refault *detection*, never correctness.
constexpr size_t kMaxShadows = 1u << 18;

debug::LockClass g_lru_lock_class("PageLru::mu_");
debug::LockClass g_shadow_lock_class("PageLru::shadow_mu_");

std::atomic<uint64_t> g_next_lru_id{1};

// The calling thread's batch for the LRU it used last. Keyed by the never-reused LRU id,
// so switching kernels (or a kernel dying) only costs one locked lookup.
struct ThreadBatch {
  uint64_t lru_id = 0;
  AddBatch* batch = nullptr;
};
thread_local ThreadBatch tls_batch;

LruState StateOf(const PageMeta& meta) {
  return static_cast<LruState>(meta.lru_state.load(std::memory_order_relaxed));
}

void SetState(PageMeta& meta, LruState state) {
  meta.lru_state.store(static_cast<uint8_t>(state), std::memory_order_relaxed);
}

bool IsBatched(LruState state) {
  return state == LruState::kBatched || state == LruState::kBatchedActive;
}

}  // namespace

PageLru::PageLru(FrameAllocator* allocator)
    : allocator_(allocator), id_(g_next_lru_id.fetch_add(1, std::memory_order_relaxed)) {}

PageLru::~PageLru() = default;

AddBatch& PageLru::BatchForThread() {
  if (tls_batch.lru_id == id_) {
    return *tls_batch.batch;
  }
  std::thread::id self = std::this_thread::get_id();
  debug::MutexGuard guard(mu_, g_lru_lock_class);
  AddBatch* batch = nullptr;
  for (const std::unique_ptr<AddBatch>& candidate : batches_) {
    if (candidate->owner == self) {
      batch = candidate.get();
      break;
    }
  }
  if (batch == nullptr) {
    batches_.push_back(std::make_unique<AddBatch>());
    batch = batches_.back().get();
    batch->owner = self;
  }
  tls_batch = ThreadBatch{id_, batch};
  return *batch;
}

void PageLru::Add(FrameId frame, bool active) {
  PageMeta& meta = Meta(frame);
  ODF_DCHECK(StateOf(meta) == LruState::kNone) << "frame " << frame << " admitted twice";
  SetState(meta, active ? LruState::kBatchedActive : LruState::kBatched);
  AddBatch& batch = BatchForThread();
  uint32_t n = batch.count.load(std::memory_order_relaxed);
  batch.frames[n].store(frame, std::memory_order_relaxed);
  batch.count.store(n + 1, std::memory_order_release);
  if (n + 1 == AddBatch::kSize) {
    debug::MutexGuard guard(mu_, g_lru_lock_class);
    DrainLocked(batch);
  }
}

size_t PageLru::DrainLocked(AddBatch& batch) {
  uint32_t n = batch.count.load(std::memory_order_acquire);
  size_t linked = 0;
  for (uint32_t i = 0; i < n; ++i) {
    FrameId frame = batch.frames[i].load(std::memory_order_relaxed);
    if (frame == kInvalidFrame) {
      continue;  // Freed while batched; Release already purged it.
    }
    LruState state = StateOf(Meta(frame));
    ODF_DCHECK(IsBatched(state)) << "add batch holds frame " << frame << " in state "
                                 << static_cast<int>(state);
    LinkLocked(frame, state == LruState::kBatchedActive);
    ++linked;
  }
  batch.count.store(0, std::memory_order_release);
  return linked;
}

size_t PageLru::DrainAddBatches() {
  debug::MutexGuard guard(mu_, g_lru_lock_class);
  size_t linked = 0;
  for (const std::unique_ptr<AddBatch>& batch : batches_) {
    linked += DrainLocked(*batch);
  }
  return linked;
}

void PageLru::PurgeFromBatchesLocked(FrameId frame) {
  for (const std::unique_ptr<AddBatch>& batch : batches_) {
    uint32_t n = batch->count.load(std::memory_order_acquire);
    for (uint32_t i = 0; i < n; ++i) {
      if (batch->frames[i].load(std::memory_order_relaxed) == frame) {
        batch->frames[i].store(kInvalidFrame, std::memory_order_relaxed);
        return;
      }
    }
  }
  ODF_DCHECK(false) << "batched frame " << frame << " is in no add batch";
}

size_t PageLru::BatchedLocked(LruState state) const {
  size_t count = 0;
  for (const std::unique_ptr<AddBatch>& batch : batches_) {
    uint32_t n = batch->count.load(std::memory_order_acquire);
    for (uint32_t i = 0; i < n; ++i) {
      FrameId frame = batch->frames[i].load(std::memory_order_relaxed);
      if (frame != kInvalidFrame && StateOf(Meta(frame)) == state) {
        ++count;
      }
    }
  }
  return count;
}

void PageLru::LinkLocked(FrameId frame, bool active) {
  List& list = active ? active_ : inactive_;
  PageMeta& meta = Meta(frame);
  meta.lru_prev = kInvalidFrame;
  meta.lru_next = list.head;
  if (list.head != kInvalidFrame) {
    Meta(list.head).lru_prev = frame;
  } else {
    list.tail = frame;
  }
  list.head = frame;
  ++list.size;
  listed_.store(listed_.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  SetState(meta, active ? LruState::kActive : LruState::kInactive);
}

void PageLru::UnlinkLocked(FrameId frame, List& list) {
  PageMeta& meta = Meta(frame);
  if (meta.lru_prev != kInvalidFrame) {
    Meta(meta.lru_prev).lru_next = meta.lru_next;
  } else {
    list.head = meta.lru_next;
  }
  if (meta.lru_next != kInvalidFrame) {
    Meta(meta.lru_next).lru_prev = meta.lru_prev;
  } else {
    list.tail = meta.lru_prev;
  }
  meta.lru_prev = kInvalidFrame;
  meta.lru_next = kInvalidFrame;
  --list.size;
  listed_.store(listed_.load(std::memory_order_relaxed) - 1, std::memory_order_relaxed);
  SetState(meta, LruState::kNone);
}

void PageLru::Release(std::span<const FrameId> frames) {
  debug::MutexGuard guard(mu_, g_lru_lock_class);
  for (FrameId frame : frames) {
    PageMeta& meta = Meta(frame);
    switch (StateOf(meta)) {
      case LruState::kNone:
      case LruState::kIsolated:
        break;
      case LruState::kBatched:
      case LruState::kBatchedActive:
        PurgeFromBatchesLocked(frame);
        break;
      case LruState::kInactive:
        UnlinkLocked(frame, inactive_);
        break;
      case LruState::kActive:
        UnlinkLocked(frame, active_);
        break;
    }
    SetState(meta, LruState::kNone);
  }
}

void PageLru::Insert(FrameId frame, bool active) {
  debug::MutexGuard guard(mu_, g_lru_lock_class);
  if (StateOf(Meta(frame)) == LruState::kNone) {
    LinkLocked(frame, active);
  }
}

size_t PageLru::TakeLocked(List& list, size_t max, std::vector<FrameId>* out) {
  size_t taken = 0;
  while (taken < max && list.tail != kInvalidFrame) {
    FrameId frame = list.tail;
    // Pin first, unlink second: while the frame is listed, a last DecRef's free sees its
    // LRU state and detaches it through Release, which waits for our lock. Unlinking
    // first would let that free skip the release hook, and the frame be reallocated
    // before our pin — which would then take a stranger's frame.
    const bool pinned = allocator_->TryGetRef(frame);
    UnlinkLocked(frame, list);
    if (!pinned) {
      // The last reference is dropping right now (a read hit's unpin, or a mutator's zap
      // or COW beside aging); the free's Release, blocked on our lock, finds the frame
      // already unlinked.
      continue;
    }
    SetState(Meta(frame), LruState::kIsolated);
    out->push_back(frame);
    ++taken;
  }
  return taken;
}

size_t PageLru::TakeInactive(size_t max, std::vector<FrameId>* out) {
  debug::MutexGuard guard(mu_, g_lru_lock_class);
  return TakeLocked(inactive_, max, out);
}

size_t PageLru::TakeActive(size_t max, std::vector<FrameId>* out) {
  debug::MutexGuard guard(mu_, g_lru_lock_class);
  return TakeLocked(active_, max, out);
}

void PageLru::PutBack(std::span<const FrameId> frames, bool active) {
  if (frames.empty()) {
    return;
  }
  debug::MutexGuard guard(mu_, g_lru_lock_class);
  for (FrameId frame : frames) {
    ODF_DCHECK(StateOf(Meta(frame)) == LruState::kIsolated)
        << "PutBack of frame " << frame << " that was not isolated";
    LinkLocked(frame, active);
  }
}

size_t PageLru::ActiveSize() const {
  debug::MutexGuard guard(mu_, g_lru_lock_class);
  return active_.size + BatchedLocked(LruState::kBatchedActive);
}

size_t PageLru::InactiveSize() const {
  debug::MutexGuard guard(mu_, g_lru_lock_class);
  return inactive_.size + BatchedLocked(LruState::kBatched);
}

size_t PageLru::Size() const {
  debug::MutexGuard guard(mu_, g_lru_lock_class);
  return active_.size + inactive_.size + BatchedLocked(LruState::kBatched) +
         BatchedLocked(LruState::kBatchedActive);
}

bool PageLru::Contains(FrameId frame) const {
  debug::MutexGuard guard(mu_, g_lru_lock_class);
  LruState state = StateOf(Meta(frame));
  return state != LruState::kNone && state != LruState::kIsolated;
}

std::string PageLru::ForEachTracked(
    const std::function<void(FrameId, LruState)>& fn) const {
  debug::MutexGuard guard(mu_, g_lru_lock_class);
  for (const List* list : {&active_, &inactive_}) {
    const size_t size = list->size;
    size_t walked = 0;
    FrameId previous = kInvalidFrame;
    for (FrameId frame = list->head; frame != kInvalidFrame; frame = Meta(frame).lru_next) {
      if (++walked > size) {
        return "LRU list is longer than its size " + std::to_string(size) +
               " (cycle or stray link at frame " + std::to_string(frame) + ")";
      }
      if (Meta(frame).lru_prev != previous) {
        return "LRU back link of frame " + std::to_string(frame) + " is broken";
      }
      fn(frame, StateOf(Meta(frame)));
      previous = frame;
    }
    if (walked != size || list->tail != previous) {
      return "LRU list size " + std::to_string(size) + " or tail disagrees with its " +
             std::to_string(walked) + " linked frames";
    }
  }
  for (const std::unique_ptr<AddBatch>& batch : batches_) {
    uint32_t n = batch->count.load(std::memory_order_acquire);
    for (uint32_t i = 0; i < n; ++i) {
      FrameId frame = batch->frames[i].load(std::memory_order_relaxed);
      if (frame != kInvalidFrame) {
        fn(frame, StateOf(Meta(frame)));
      }
    }
  }
  return "";
}

void PageLru::RecordEvictions(std::span<const uint64_t> slots) {
  if (slots.empty()) {
    return;
  }
  debug::MutexGuard guard(shadow_mu_, g_shadow_lock_class);
  for (uint64_t slot : slots) {
    if (shadows_.size() >= kMaxShadows) {
      shadows_.clear();
    }
    shadows_[slot] = ++eviction_epoch_;
  }
}

bool PageLru::NoteRefault(uint64_t slot) {
  debug::MutexGuard guard(shadow_mu_, g_shadow_lock_class);
  auto it = shadows_.find(slot);
  if (it == shadows_.end()) {
    return false;
  }
  uint64_t distance = eviction_epoch_ - it->second;
  shadows_.erase(it);
  // The workingset test: fewer evictions since this page left than the LRU can hold means
  // the page would still have been resident with a perfect-LRU — it was evicted out of its
  // workingset. The floor keeps detection alive when the lists are nearly empty.
  uint64_t horizon = std::max<uint64_t>(listed_.load(std::memory_order_relaxed), 64);
  if (distance > horizon) {
    return false;
  }
  CountVm(VmCounter::k_pgrefault);
  ODF_TRACE(workingset_refault, 0, slot, distance);
  return true;
}

uint64_t PageLru::ShadowCount() const {
  debug::MutexGuard guard(shadow_mu_, g_shadow_lock_class);
  return shadows_.size();
}

}  // namespace reclaim
}  // namespace odf
