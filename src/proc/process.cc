#include "src/proc/process.h"

#include "src/proc/kernel.h"

#include <algorithm>
#include <cstring>

#include "src/debug/verify.h"
#include "src/fi/fault_inject.h"
#include "src/pt/mm_locks.h"
#include "src/reclaim/mm_gate.h"
#include "src/replay/recorder.h"
#include "src/trace/metrics.h"
#include "src/util/log.h"

namespace odf {

Process::Process(Kernel* kernel, Pid pid, Pid parent, std::unique_ptr<AddressSpace> as)
    : kernel_(kernel), pid_(pid), parent_pid_(parent), as_(std::move(as)) {
  as_->set_owner_pid(pid);
}

bool Process::AccessMemory(Vaddr va, std::byte* buffer, uint64_t length, AccessType access,
                           bool set_memory, std::byte memset_value) {
  ODF_CHECK(state_ == ProcessState::kRunning) << "memory access on exited process " << pid_;
  debug::MutationScope mutation;  // Faults allocate frames and rewrite page tables.
  Kernel::ActiveProcessScope immune(this);  // OOM mid-access must pick another victim.
  AddressSpace& as = *as_;
  FrameAllocator& allocator = as.allocator();
  MmLockTable& locks = as.locks();
  const uint64_t as_id = locks.as_id();
  const bool want_write = access == AccessType::kWrite;
  uint64_t done = 0;
  while (done < length) {
    Vaddr current = va + done;
    uint64_t in_page = current & (kPageSize - 1);
    uint64_t chunk = std::min<uint64_t>(length - done, kPageSize - in_page);
    const uint64_t vpn = current >> kPageShift;

    // Copies one page-chunk to/from `frame`. Always runs with the frame kept alive: a
    // refcount pin on the L0/L1 hit paths, the shard+gate locks on the L2 path. A write
    // also holds the MmGate shared (the evictor must not swap a page out mid-write); a
    // read hit needs only its pin, since the bytes it copies stay intact until the frame
    // is freed and the evictor frees nothing before its flush (mm_gate.h).
    auto copy_chunk = [&](FrameId frame) {
      if (want_write) {
        std::byte* dest = allocator.MaterializeData(frame) + in_page;
        if (set_memory) {
          std::memset(dest, static_cast<int>(memset_value), chunk);
        } else {
          std::memcpy(dest, buffer + done, chunk);
        }
      } else if (buffer != nullptr) {
        const std::byte* src = allocator.PeekData(frame);
        if (src == nullptr) {
          std::memset(buffer + done, 0, chunk);
        } else {
          std::memcpy(buffer + done, src + in_page, chunk);
        }
      }
    };

#if ODF_MEMORY_FAILURE_COMPILED
    // The injected machine check (fi site mf_ecc): the "hardware" reports an uncorrectable
    // ECC error on the very frame this access resolved to. Consulted exactly once per
    // resolved page on EVERY path (fast, lock-free, slow), so the recorded decision stream
    // is identical no matter which path a replay happens to take. MemoryFailure takes the
    // gate exclusive (upgrading any shared hold; mm_gate.h) for the containment work, and
    // the access that consumed the poison is the one that fails — BUS_MCEERR_AR delivery.
    auto ecc_trips = [&](FrameId frame) {
      if (!fi::ShouldInject(FiSite::k_mf_ecc)) {
        return false;
      }
      kernel_->MemoryFailure(frame);
      last_fault_result_ = FaultResult::kHwPoison;
      return true;
    };
#else
    auto ecc_trips = [&](FrameId) { return false; };
#endif

    // An L0/L1 hit: pin `pin`, recheck the covering shard generation against `gen`, copy,
    // unpin. The pin is speculative (the frame may have been freed and reused since the
    // translation was made); the recheck is what rejects that, because every mutator that
    // unmaps a page bumps the shard before it drops the frame (gen before free). A failed
    // pin or recheck falls through to the next tier (tlb_pin_retries).
    enum class Hit { kMiss, kServed, kPoisoned };
    auto serve_pinned = [&](FrameId frame, FrameId pin, uint64_t gen) {
      if (!allocator.TryGetRef(pin)) {
        CountVm(VmCounter::k_tlb_pin_retries);
        return Hit::kMiss;
      }
      if (locks.ShardGen(current) != gen) {
        allocator.DecRef(pin);
        CountVm(VmCounter::k_tlb_pin_retries);
        return Hit::kMiss;
      }
      CountVm(VmCounter::k_tlb_hits);
      if (ecc_trips(frame)) {
        allocator.DecRef(pin);
        return Hit::kPoisoned;
      }
      copy_chunk(frame);
      allocator.DecRef(pin);
      return Hit::kServed;
    };

    // L0 — per-thread translation cache (mm_locks.h): tag probe, then a pinned hit. Writes
    // hit only entries that a WRITE inserted (dirty bit already set at insert time).
    TransCacheEntry& cached = TranslationCache::SlotFor(as_id, vpn);
    if (cached.as_id == as_id && cached.vpn == vpn && (!want_write || cached.write_ok) &&
        cached.gen == locks.ShardGen(current)) {
      Hit hit;
      if (want_write) {
        reclaim::MmGate::SharedScope gate;
        hit = serve_pinned(cached.frame, cached.pin, cached.gen);
      } else {
        hit = serve_pinned(cached.frame, cached.pin, cached.gen);
      }
      if (hit == Hit::kPoisoned) {
        return false;
      }
      if (hit == Hit::kServed) {
        done += chunk;
        continue;
      }
    }

    // L1 — lock-free read-side walk (reads only; writes need A/D maintenance and COW
    // checks). Generation first, then the walk under a PtEpoch guard (retired tables on
    // the path are still backed memory), then a pinned hit outside the guard.
    if (!want_write) {
      uint64_t g0 = locks.ShardGen(current);
      Translation t;
      bool walked = false;
      {
        PtEpoch::ReadGuard guard;
        if (guard.ok()) {
          t = as.walker().TranslateLockFree(as.pgd(), current);
          walked = true;
        }
      }
      if (walked && t.status == TranslateStatus::kOk) {
        // Pin target: the PMD-entry head for huge mappings (its tails carry no refcount);
        // the leaf frame itself for 4 KiB. A split-compound tail mapped as a 4 KiB PTE
        // has refcount 0 — the pin fails and the slow path (which may resolve the head
        // under locks) serves it instead.
        FrameId pin =
            t.huge ? t.frame - static_cast<FrameId>((current >> kPageShift) &
                                                    ((1ULL << kHugePageOrder) - 1))
                   : t.frame;
        Hit hit = serve_pinned(t.frame, pin, g0);
        if (hit == Hit::kPoisoned) {
          return false;
        }
        if (hit == Hit::kServed) {
          CountVm(VmCounter::k_tlb_l1_hits);
          cached = TransCacheEntry{as_id, vpn, g0, t.frame, pin, /*write_ok=*/false};
          done += chunk;
          continue;
        }
      }
    }

    // L2 — locked slow path: AS gate shared (excludes layout mutators and fork), exactly
    // one 2 MiB-shard mutex (serializes faults on this range only — disjoint-range faults
    // proceed in parallel), MmGate shared (excludes the evictor). Lock order per
    // docs/debugging.md: AS gate -> shard -> MmGate.
    CountVm(VmCounter::k_tlb_misses);
    {
      MmLockTable::ReadScope rs(locks);
      MmLockTable::ShardScope shard(locks, current);
      reclaim::MmGate::SharedScope gate;
      FrameId frame = kInvalidFrame;
      Translation t = as.walker().Translate(as.pgd(), current, access);
      if (t.status == TranslateStatus::kOk) {
        frame = t.frame;
      } else {
        FaultResult result = HandleFault(as, current, access, &frame);
        if (result != FaultResult::kHandled) {
          last_fault_result_ = result;
          return false;
        }
      }
      if (ecc_trips(frame)) {
        return false;
      }
      copy_chunk(frame);
      // Refill the per-thread cache. The generation is read AFTER the fault resolved:
      // under the shard mutex no other thread can bump this shard (range ops hold the AS
      // gate exclusively, the evictor holds the MmGate exclusively), so the value is
      // stable and covers every invalidation the fault itself performed.
      FrameId pin = ResolveCompoundHead(allocator.GetMeta(frame), frame);
      cached = TransCacheEntry{as_id,         vpn, locks.ShardGen(current),
                               frame,         pin, want_write};
    }
    done += chunk;
  }
  last_fault_result_ = FaultResult::kHandled;
  return true;
}

bool Process::WriteMemory(Vaddr va, std::span<const std::byte> data) {
  replay::OpScope op(OpKind::k_write, pid_);
  op.Arg(va).Arg(data.size()).Payload(data);
  // The buffer is only read on the write path; the const_cast never results in mutation.
  bool ok = AccessMemory(va, const_cast<std::byte*>(data.data()), data.size(),
                         AccessType::kWrite, /*set_memory=*/false, std::byte{0});
  op.Status(static_cast<uint64_t>(last_fault_result())).Result(ok ? 1 : 0);
  return ok;
}

bool Process::ReadMemory(Vaddr va, std::span<std::byte> out) {
  replay::OpScope op(OpKind::k_read, pid_);
  op.Arg(va).Arg(out.size());
  bool ok = AccessMemory(va, out.data(), out.size(), AccessType::kRead, /*set_memory=*/false,
                         std::byte{0});
  op.Status(static_cast<uint64_t>(last_fault_result()));
  if (op.active()) {
    // The recorded outcome of a read is a digest of the bytes it returned: replay verifies
    // the replayed kernel serves the same data, not just the same verdict.
    op.Result(ok ? replay::Fnv1aBytes(out.data(), out.size()) : 0);
  }
  return ok;
}

bool Process::MemsetMemory(Vaddr va, std::byte value, uint64_t length) {
  replay::OpScope op(OpKind::k_memset, pid_);
  op.Arg(va).Arg(static_cast<uint64_t>(value)).Arg(length);
  bool ok = AccessMemory(va, nullptr, length, AccessType::kWrite, /*set_memory=*/true, value);
  op.Status(static_cast<uint64_t>(last_fault_result())).Result(ok ? 1 : 0);
  return ok;
}

void Process::set_fork_mode(ForkMode mode) {
  replay::OpScope op(OpKind::k_set_fork_mode, pid_);
  op.Arg(static_cast<uint64_t>(mode));
  fork_mode_ = mode;
}

uint64_t Process::LoadU64(Vaddr va) {
  uint64_t value = 0;
  ODF_CHECK(ReadMemory(va, std::as_writable_bytes(std::span(&value, 1))))
      << "SEGV reading u64 at " << va;
  return value;
}

void Process::StoreU64(Vaddr va, uint64_t value) {
  ODF_CHECK(WriteMemory(va, std::as_bytes(std::span(&value, 1))))
      << "SEGV writing u64 at " << va;
}

uint32_t Process::LoadU32(Vaddr va) {
  uint32_t value = 0;
  ODF_CHECK(ReadMemory(va, std::as_writable_bytes(std::span(&value, 1))))
      << "SEGV reading u32 at " << va;
  return value;
}

void Process::StoreU32(Vaddr va, uint32_t value) {
  ODF_CHECK(WriteMemory(va, std::as_bytes(std::span(&value, 1))))
      << "SEGV writing u32 at " << va;
}

std::string Process::ReadString(Vaddr va, uint64_t max_length) {
  std::string out;
  out.reserve(max_length);
  for (uint64_t i = 0; i < max_length; ++i) {
    char c = 0;
    if (!ReadMemory(va + i, std::as_writable_bytes(std::span(&c, 1)))) {
      break;
    }
    if (c == '\0') {
      break;
    }
    out.push_back(c);
  }
  return out;
}

Vaddr Process::Mmap(uint64_t length, uint32_t prot, bool huge) {
  replay::OpScope op(OpKind::k_mmap, pid_);
  op.Arg(length).Arg(prot).Arg(huge ? 1 : 0);
  // Gating (AS-gate exclusive + MmGate shared) lives inside AddressSpace now.
  debug::MutationScope mutation;
  Vaddr va = as_->MapAnonymous(length, prot, huge);
  op.Result(va);
  return va;
}

void Process::Munmap(Vaddr start, uint64_t length) {
  replay::OpScope op(OpKind::k_munmap, pid_);
  op.Arg(start).Arg(length);
  {
    debug::MutationScope mutation;
    as_->Unmap(start, length);
  }
  // Zap is where stale-PTE and table-refcount bugs surface; verify the whole kernel after
  // every top-level unmap in debug-vm builds.
  debug::AutoVerifyKernel(*kernel_, "zap");
}

Vaddr Process::Mremap(Vaddr old_start, uint64_t old_length, uint64_t new_length) {
  replay::OpScope op(OpKind::k_mremap, pid_);
  op.Arg(old_start).Arg(old_length).Arg(new_length);
  debug::MutationScope mutation;
  Vaddr va = as_->Remap(old_start, old_length, new_length);
  op.Result(va);
  return va;
}

void Process::MadviseDontNeed(Vaddr start, uint64_t length) {
  replay::OpScope op(OpKind::k_madvise_dontneed, pid_);
  op.Arg(start).Arg(length);
  debug::MutationScope mutation;
  as_->AdviseDontNeed(start, length);
}

bool Process::TouchRange(Vaddr va, uint64_t length, AccessType access) {
  replay::OpScope op(OpKind::k_touch, pid_);
  op.Arg(va).Arg(length).Arg(static_cast<uint64_t>(access));
  for (Vaddr current = PageAlignDown(va); current < va + length; current += kPageSize) {
    std::byte scratch{1};
    bool ok = access == AccessType::kWrite
                  ? WriteMemory(current, std::span(&scratch, 1))
                  : ReadMemory(current, std::span(&scratch, 1));
    if (!ok) {
      op.Status(static_cast<uint64_t>(last_fault_result()));
      return false;
    }
  }
  op.Result(1);
  return true;
}

}  // namespace odf
