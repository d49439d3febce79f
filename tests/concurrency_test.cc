// Thread-safety (paper §4 "Thread Safety"): concurrent fork/fault/exit activity from
// multiple threads, both across independent lineages (the Fig. 2 concurrent setup) and
// within one sharing lineage where threads race on the same shared PTE tables through the
// split locks and atomic share counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "src/debug/verify.h"
#include "src/pt/mm_locks.h"
#include "src/reclaim/mm_gate.h"
#include "src/replay/recorder.h"
#include "src/replay/replayer.h"
#include "src/trace/metrics.h"
#include "src/util/bravo_gate.h"
#include "tests/test_util.h"

namespace odf {
namespace {

TEST(ConcurrencyTest, IndependentLineagesForkInParallel) {
  Kernel kernel;
  constexpr int kThreads = 4;
  constexpr int kRounds = 25;
  std::atomic<int> failures{0};

  std::vector<Process*> parents;
  for (int t = 0; t < kThreads; ++t) {
    Process& parent = kernel.CreateProcess();
    Vaddr va = parent.Mmap(8 << 20, kProtRead | kProtWrite);
    FillPattern(parent, va, 8 << 20, static_cast<uint64_t>(t));
    parents.push_back(&parent);
  }

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Process& parent = *parents[static_cast<size_t>(t)];
      Vaddr va = parent.address_space().vmas().begin()->second.start;
      for (int round = 0; round < kRounds; ++round) {
        ForkMode mode = round % 2 == 0 ? ForkMode::kClassic : ForkMode::kOnDemand;
        Process& child = kernel.Fork(parent, mode);
        std::byte value{static_cast<uint8_t>(round)};
        if (!child.WriteMemory(va + static_cast<uint64_t>(round) * kPageSize,
                               std::span(&value, 1))) {
          ++failures;
        }
        std::byte read_back{0};
        if (!child.ReadMemory(va + static_cast<uint64_t>(round) * kPageSize,
                              std::span(&read_back, 1)) ||
            read_back != value) {
          ++failures;
        }
        kernel.Exit(child, 0);
        kernel.Wait(parent);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0);

  // Every parent's memory must be untouched by all that COW traffic.
  for (int t = 0; t < kThreads; ++t) {
    Vaddr va = parents[static_cast<size_t>(t)]->address_space().vmas().begin()->second.start;
    ExpectPattern(*parents[static_cast<size_t>(t)], va, 8 << 20, static_cast<uint64_t>(t));
  }
  for (Process* parent : parents) {
    kernel.Exit(*parent, 0);
  }
  EXPECT_TRUE(kernel.allocator().AllFree());
}

TEST(ConcurrencyTest, SharingLineageFaultsInParallel) {
  // One parent, N on-demand children sharing its PTE tables; each child's driver thread
  // writes/reads its own clone concurrently. Dedications race on the same shared tables
  // through PtSplitLock and the atomic share counts.
  Kernel kernel;
  Process& parent = kernel.CreateProcess();
  Vaddr va = parent.Mmap(16 << 20, kProtRead | kProtWrite);
  FillPattern(parent, va, 16 << 20, 99);

  constexpr int kChildren = 6;
  std::vector<Process*> children;
  for (int c = 0; c < kChildren; ++c) {
    children.push_back(&kernel.Fork(parent, ForkMode::kOnDemand));
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kChildren; ++c) {
    threads.emplace_back([&, c] {
      Process& child = *children[static_cast<size_t>(c)];
      Rng rng(static_cast<uint64_t>(c) + 1000);
      for (int i = 0; i < 200; ++i) {
        Vaddr address = va + rng.NextBelow(16 << 20);
        std::byte value{static_cast<uint8_t>(c * 16 + (i & 0xf))};
        if (rng.NextBool(0.7)) {
          if (!child.WriteMemory(address, std::span(&value, 1))) {
            ++failures;
          }
          std::byte back{0};
          if (!child.ReadMemory(address, std::span(&back, 1)) || back != value) {
            ++failures;
          }
        } else {
          std::byte back{0};
          if (!child.ReadMemory(address, std::span(&back, 1))) {
            ++failures;
          }
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0);
  ExpectPattern(parent, va, 16 << 20, 99);  // The template never changes.

  for (Process* child : children) {
    kernel.Exit(*child, 0);
  }
  kernel.Exit(parent, 0);
  EXPECT_TRUE(kernel.allocator().AllFree());
}

TEST(ConcurrencyTest, DisjointFaultsOverlappingForksUnderReclaim) {
  // The sharded-locking stress mix (docs/performance.md "Lock sharding & TLB
  // generations"): N faulter threads hammer DISJOINT 2 MiB-aligned slices of ONE address
  // space (they should ride the shard locks and lock-free read path, almost never
  // contending), while a forker thread repeatedly forks that same process — a whole-AS
  // exclusive operation overlapping every faulter's range — and kswapd plus a direct
  // reclaimer run the evictor side against the mutators. No memory limit is set, so free
  // frames stay plentiful and the OOM killer is structurally unreachable (it only runs
  // when reclaim fails AND free frames are short) — no driven process can be killed.
  Kernel kernel;
  Process& target = kernel.CreateProcess();
  constexpr int kFaulters = 4;
  constexpr uint64_t kRegion = 4ull << 20;  // One 2 MiB-shard multiple per thread.
  Vaddr base = target.Mmap(kFaulters * kRegion, kProtRead | kProtWrite);
  kernel.StartKswapd();

  std::atomic<int> failures{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kFaulters; ++t) {
    threads.emplace_back([&, t] {
      Vaddr lo = base + static_cast<uint64_t>(t) * kRegion;
      Rng rng(static_cast<uint64_t>(t) + 7);
      for (int i = 0; i < 400; ++i) {
        Vaddr address = lo + (rng.NextBelow(kRegion) & ~(kPageSize - 1));
        std::byte value{static_cast<uint8_t>(t * 32 + (i & 0x1f))};
        if (rng.NextBool(0.5)) {
          if (!target.WriteMemory(address, std::span(&value, 1))) {
            ++failures;
          }
          std::byte back{0};
          if (!target.ReadMemory(address, std::span(&back, 1)) || back != value) {
            ++failures;
          }
        } else {
          std::byte back{0};
          if (!target.ReadMemory(address, std::span(&back, 1))) {
            ++failures;
          }
        }
      }
    });
  }
  // Overlapping-range forks: every fork write-protects the whole AS the faulters are
  // faulting into, serialized against them by the per-AS gate.
  threads.emplace_back([&] {
    for (int i = 0; i < 25 && !stop.load(std::memory_order_relaxed); ++i) {
      Process* child = kernel.TryFork(target, ForkMode::kOnDemand);
      if (child == nullptr) {
        ++failures;
        continue;
      }
      std::byte probe{0};
      if (!child->ReadMemory(base, std::span(&probe, 1))) {
        ++failures;
      }
      kernel.Exit(*child, 0);
      kernel.Wait(target);
    }
  });
  // Evictor pressure: explicit direct-reclaim rounds (MmGate exclusive, rmap unmapping)
  // and kswapd wakes racing the fault storm above.
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      kernel.ReclaimMemory(16);
      if (kernel.kswapd() != nullptr) {
        kernel.kswapd()->Wake();
      }
      std::this_thread::yield();
    }
  });
  for (int t = 0; t < kFaulters + 1; ++t) {
    threads[static_cast<size_t>(t)].join();
  }
  stop.store(true, std::memory_order_relaxed);
  threads.back().join();
  kernel.StopKswapd();

  EXPECT_EQ(failures.load(), 0);
  // Last-writer-wins per page within one thread's slice: every page a faulter wrote must
  // read back SOME value that thread wrote (its 5-bit lane tags the byte). Cheaper and
  // race-free: just verify the kernel invariants and that teardown balances.
  debug::VerifyResult verify = debug::VerifyKernel(kernel);
  EXPECT_TRUE(verify.ok()) << verify.Describe();
  kernel.Exit(target, 0);
  EXPECT_TRUE(kernel.allocator().AllFree());
}

TEST(ConcurrencyTest, ChildExitRacingParentTableCowLeaksNothing) {
  // A parent write to a table it shares with an on-demand child copies the table
  // (DedicatePteTable) under the table's split lock, but the child's exit drops its share
  // without that lock. When the exit lands between the copier reading share_count == 2 and
  // dropping its own share, the copier holds the last reference and must release the old
  // table and the page references it carries; otherwise both leak.
  Kernel kernel;
  Process& parent = kernel.CreateProcess();
  constexpr uint64_t kTables = 8;
  constexpr uint64_t kLength = kTables * kPteTableSpan;
  Vaddr va = parent.Mmap(kLength, kProtRead | kProtWrite);
  FillPattern(parent, va, kLength, 5);
  for (int round = 0; round < 60; ++round) {
    Process& child = kernel.Fork(parent, ForkMode::kOnDemand);
    std::thread exiter([&kernel, &child] { kernel.Exit(child, 0); });
    for (uint64_t table = 0; table < kTables; ++table) {
      std::byte value{static_cast<uint8_t>(round)};
      ASSERT_TRUE(parent.WriteMemory(va + table * kPteTableSpan, std::span(&value, 1)));
    }
    exiter.join();
    kernel.Wait(parent);
  }
  debug::VerifyResult verify = debug::VerifyKernel(kernel);
  EXPECT_TRUE(verify.ok()) << verify.Describe();
  kernel.Exit(parent, 0);
  EXPECT_TRUE(kernel.allocator().AllFree());
}

// A read hit is served under its refcount pin alone: while another thread holds the MmGate
// exclusively (the evictor's or the verifier's hold), a thread whose reads hit its
// translation cache (L0) or the lock-free walk (L1) still finishes them. Writes and the
// locked L2 path keep waiting for the gate.
TEST(ConcurrencyTest, ReadHitsDoNotWaitForTheMmGate) {
  Kernel kernel;
  Process& p = kernel.CreateProcess();
  Vaddr va = p.Mmap(2 * kPageSize, kProtRead | kProtWrite);
  ASSERT_TRUE(p.MemsetMemory(va, std::byte{0x5a}, 2 * kPageSize));
  const Vaddr hot = va;               // Warmed into the reader's cache: an L0 hit.
  const Vaddr cold = va + kPageSize;  // Resident, never read by the reader: an L1 hit.

  std::atomic<int> stage{0};  // 1: hot page warmed, 2: gate held, 3: reads done.
  uint64_t hits = 0;
  uint64_t l1_hits = 0;
  uint64_t misses = 0;
  std::byte hot_value{0};
  std::byte cold_value{0};
  std::thread reader([&] {
    ReadByte(p, hot);
    stage.store(1);
    while (stage.load() != 2) {
      std::this_thread::yield();
    }
    VmDeltas deltas;
    hot_value = ReadByte(p, hot);
    cold_value = ReadByte(p, cold);
    hits = deltas.Of(VmCounter::k_tlb_hits);
    l1_hits = deltas.Of(VmCounter::k_tlb_l1_hits);
    misses = deltas.Of(VmCounter::k_tlb_misses);
    stage.store(3);
  });
  while (stage.load() != 1) {
    std::this_thread::yield();
  }
  bool finished = false;
  {
    reclaim::MmGate::ExclusiveScope gate;
    stage.store(2);
    // Bounded: a reader blocked on the gate is a failure, not a hang.
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (stage.load() != 3 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    finished = stage.load() == 3;
  }
  reader.join();
  EXPECT_TRUE(finished) << "read hits waited for the exclusive MmGate";
  EXPECT_EQ(hot_value, std::byte{0x5a});
  EXPECT_EQ(cold_value, std::byte{0x5a});
  EXPECT_EQ(hits, 2u);
  EXPECT_EQ(l1_hits, 1u);
  EXPECT_EQ(misses, 0u);
}

// Read hits race eviction and frame reuse. Reader threads read process A's pages (every
// byte 0xA) while process B (every byte 0xB) faults and forks under a frame limit, so
// kswapd and direct reclaim keep evicting A and handing its frames to B — including to
// fork's child page directory, which is allocated without the MmGate. The evictor drops
// an evicted frame's references only after its TLB flush; otherwise a read through a
// stale translation could pin the reused frame and return B's bytes or a page table's.
TEST(ConcurrencyTest, ReadHitsNeverSeeAnEvictedFrameReused) {
  constexpr uint64_t kPagesA = 48;
  constexpr uint64_t kPagesB = 96;
  constexpr int kReaders = 2;
  constexpr int kRounds = 24;
  Kernel kernel;
  kernel.SetMemoryLimitFrames(128);  // A and B alone need 144 data frames.
  kernel.StartKswapd();
  Process& a = kernel.CreateProcess();
  Process& b = kernel.CreateProcess();
  Vaddr va_a = a.Mmap(kPagesA * kPageSize, kProtRead | kProtWrite);
  Vaddr va_b = b.Mmap(kPagesB * kPageSize, kProtRead | kProtWrite);
  ASSERT_TRUE(a.MemsetMemory(va_a, std::byte{0xA}, kPagesA * kPageSize));
  uint64_t stolen_before = ReadVm(VmCounter::k_pgsteal);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> bad_reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      std::vector<std::byte> page(kPageSize);
      for (uint64_t i = static_cast<uint64_t>(t); !stop.load(std::memory_order_relaxed); ++i) {
        Vaddr at = va_a + (i % kPagesA) * kPageSize;
        if (!a.ReadMemory(at, page)) {
          ++bad_reads;
          continue;
        }
        for (std::byte value : page) {
          if (value != std::byte{0xA}) {
            ++bad_reads;
            break;
          }
        }
      }
    });
  }
  int failures = 0;
  for (int round = 0; round < kRounds; ++round) {
    if (!b.MemsetMemory(va_b, std::byte{0xB}, kPagesB * kPageSize)) {
      ++failures;
    }
    Process* child = kernel.TryFork(b, ForkMode::kOnDemand);
    if (child != nullptr) {  // ENOMEM under the tight pool is a legal outcome.
      kernel.Exit(*child, 0);
      kernel.Wait(b);
    }
  }
  stop.store(true);
  for (std::thread& reader : readers) {
    reader.join();
  }
  kernel.StopKswapd();
  EXPECT_EQ(failures, 0);
  EXPECT_EQ(bad_reads.load(), 0u) << "a read of A returned bytes A never wrote";
  EXPECT_GT(ReadVm(VmCounter::k_pgsteal), stolen_before) << "nothing was evicted";
  EXPECT_EQ(kernel.oom_kills(), 0u);
  debug::VerifyResult verify = debug::VerifyKernel(kernel);
  EXPECT_TRUE(verify.ok()) << verify.Describe();
  kernel.Exit(a, 0);
  kernel.Exit(b, 0);
  EXPECT_TRUE(kernel.allocator().AllFree());
}

// The read pins of the test above, with mappings zapped under them: the main thread drops
// half of A every round while readers hit it, so a reader's unpin is often a frame's last
// reference, dropped while kswapd may have that frame isolated or be walking its reverse
// map. The zapped half reads back as demand-zero frames, which the next zap drops again;
// nothing writes A meanwhile, so A holds only 0x00 and 0x0A bytes whatever interleaving
// wins. Under TSan this also checks that no unpin's free races the evictor.
TEST(ConcurrencyTest, ReadUnpinsThatFreeFramesDoNotRaceTheEvictor) {
  constexpr uint64_t kPagesA = 48;
  constexpr uint64_t kPagesZapped = kPagesA / 2;
  constexpr uint64_t kPagesB = 144;
  constexpr int kReaders = 2;
  constexpr int kRounds = 24;
  Kernel kernel;
  // B alone needs 144 data frames, so every round evicts whether or not the readers have
  // faulted A's zapped half back in.
  kernel.SetMemoryLimitFrames(128);
  kernel.StartKswapd();
  Process& a = kernel.CreateProcess();
  Process& b = kernel.CreateProcess();
  Vaddr va_a = a.Mmap(kPagesA * kPageSize, kProtRead | kProtWrite);
  Vaddr va_b = b.Mmap(kPagesB * kPageSize, kProtRead | kProtWrite);
  ASSERT_TRUE(a.MemsetMemory(va_a, std::byte{0xA}, kPagesA * kPageSize));
  uint64_t stolen_before = ReadVm(VmCounter::k_pgsteal);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> bad_reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      std::vector<std::byte> page(kPageSize);
      for (uint64_t i = static_cast<uint64_t>(t); !stop.load(std::memory_order_relaxed); ++i) {
        uint64_t index = i % kPagesA;
        if (!a.ReadMemory(va_a + index * kPageSize, page)) {
          ++bad_reads;
          continue;
        }
        std::byte want = index < kPagesZapped ? std::byte{0} : std::byte{0xA};
        for (std::byte value : page) {
          if (value != want && value != std::byte{0xA}) {
            ++bad_reads;
            break;
          }
        }
      }
    });
  }
  int failures = 0;
  for (int round = 0; round < kRounds; ++round) {
    a.MadviseDontNeed(va_a, kPagesZapped * kPageSize);
    if (!b.MemsetMemory(va_b, std::byte{0xB}, kPagesB * kPageSize)) {
      ++failures;
    }
  }
  stop.store(true);
  for (std::thread& reader : readers) {
    reader.join();
  }
  kernel.StopKswapd();
  EXPECT_EQ(failures, 0);
  EXPECT_EQ(bad_reads.load(), 0u) << "a read of A returned bytes A never held";
  EXPECT_GT(ReadVm(VmCounter::k_pgsteal), stolen_before) << "nothing was evicted";
  EXPECT_EQ(kernel.oom_kills(), 0u);
  debug::VerifyResult verify = debug::VerifyKernel(kernel);
  EXPECT_TRUE(verify.ok()) << verify.Describe();
  std::vector<std::byte> all(kPagesA * kPageSize);
  ASSERT_TRUE(a.ReadMemory(va_a, all));
  for (uint64_t i = 0; i < all.size(); ++i) {
    ASSERT_EQ(all[i], i < kPagesZapped * kPageSize ? std::byte{0} : std::byte{0xA})
        << "at offset " << i;
  }
  kernel.Exit(a, 0);
  kernel.Exit(b, 0);
  EXPECT_TRUE(kernel.allocator().AllFree());
}

// Aging harvests accessed bits beside the mutators: a thread holding the MmGate shared — a
// mutator mid-operation — does not hold up a reclaim round's aging pass, only its unmap
// phase, which needs the gate exclusively. Bounded: aging that waits for the mutator is a
// failure, not a hang.
TEST(ConcurrencyTest, AgingCompletesWhileAMutatorHoldsTheGate) {
  constexpr uint64_t kPages = 32;
  Kernel kernel;
  Process& p = kernel.CreateProcess();
  Vaddr va = p.Mmap(kPages * kPageSize, kProtRead | kProtWrite);
  FillPattern(p, va, kPages * kPageSize, 31);
  RotateLruToActive(kernel);  // Every page on the active list, inactive list empty.
  const uint64_t refill_before = ReadVm(VmCounter::k_pgrefill);

  std::atomic<bool> held{false};
  std::atomic<bool> release{false};
  std::thread mutator([&] {
    reclaim::MmGate::SharedScope gate;
    held.store(true);
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  while (!held.load()) {
    std::this_thread::yield();
  }
  uint64_t freed = 0;
  std::thread reclaimer([&] {
    reclaim::ShrinkContext ctx = KernelShrinkContext(kernel);
    freed = reclaim::ReclaimPages(ctx, 4);
  });
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (ReadVm(VmCounter::k_pgrefill) - refill_before < kPages &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const uint64_t aged_while_held = ReadVm(VmCounter::k_pgrefill) - refill_before;
  release.store(true);
  mutator.join();
  reclaimer.join();
  EXPECT_EQ(aged_while_held, kPages) << "aging waited for a mutator's shared hold";
  EXPECT_EQ(freed, 4u);
  ExpectPattern(p, va, kPages * kPageSize, 31);
  debug::VerifyResult verify = debug::VerifyKernel(kernel);
  EXPECT_TRUE(verify.ok()) << verify.Describe();
  kernel.Exit(p, 0);
  EXPECT_TRUE(kernel.allocator().AllFree());
}

// kswapd ages beside every kind of mutator in one anon family. A writer rewrites and
// re-reads the parent's pages against its shadow (after each on-demand fork its writes
// copy shared tables), while this thread churns the parent's VMA map — mmap, mremap that
// grows and moves, mprotect, partial and whole munmap — and forks children of both engines
// that write their own pages, then exit. The pool is short of the pages, so kswapd keeps
// aging and evicting throughout. Every byte must match, no process may be OOM-killed, and
// the kernel must verify afterwards. Under TSan this checks the walk lock, the epoch guard
// around each walk and the accessed-bit CAS against every VMA-map and family change.
TEST(ConcurrencyTest, KswapdAgesBesideEveryKindOfMutator) {
  constexpr uint64_t kPages = 96;
  constexpr uint64_t kScratch = 16;
  constexpr int kRounds = 16;
  Kernel kernel;
  kernel.SetMemoryLimitFrames(112);
  kernel.StartKswapd();
  Process& p = kernel.CreateProcess();
  Vaddr va = p.Mmap(kPages * kPageSize, kProtRead | kProtWrite);
  std::vector<std::byte> shadow(kPages);
  for (uint64_t i = 0; i < kPages; ++i) {
    shadow[i] = std::byte{static_cast<uint8_t>(i % 251 + 1)};
    ASSERT_TRUE(p.MemsetMemory(va + i * kPageSize, shadow[i], kPageSize));
  }
  const uint64_t refill_before = ReadVm(VmCounter::k_pgrefill);
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread writer([&] {
    uint64_t rng = 0x9e3779b97f4a7c15;
    std::vector<std::byte> page(kPageSize);
    for (int op = 0; !stop.load(std::memory_order_relaxed); ++op) {
      rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
      uint64_t index = (rng >> 33) % kPages;
      Vaddr at = va + index * kPageSize;
      if ((rng >> 20) % 2 == 0) {
        std::byte value{static_cast<uint8_t>(op % 255 + 1)};
        if (!p.MemsetMemory(at, value, kPageSize)) {
          ++failures;
          continue;
        }
        shadow[index] = value;
      } else if (!p.ReadMemory(at, page) ||
                 std::any_of(page.begin(), page.end(),
                             [&](std::byte b) { return b != shadow[index]; })) {
        ++failures;
      }
    }
  });
  for (int round = 0; round < kRounds; ++round) {
    Vaddr scratch = p.Mmap(kScratch * kPageSize, kProtRead | kProtWrite);
    if (!p.MemsetMemory(scratch, std::byte{0x5c}, kScratch * kPageSize)) {
      ++failures;
    }
    // Grow: in place when the gap allows, otherwise a move of the page-table entries.
    scratch = p.Mremap(scratch, kScratch * kPageSize, 2 * kScratch * kPageSize);
    p.address_space().Protect(scratch, kScratch * kPageSize, kProtRead);
    std::vector<std::byte> page(kPageSize);
    if (!p.ReadMemory(scratch + (kScratch - 1) * kPageSize, page) ||
        page[0] != std::byte{0x5c}) {
      ++failures;
    }
    p.address_space().Protect(scratch, kScratch * kPageSize, kProtRead | kProtWrite);
    p.Munmap(scratch + kScratch / 2 * kPageSize, kScratch / 2 * kPageSize);  // A split.
    p.Munmap(scratch, 2 * kScratch * kPageSize);
    ForkMode mode = round % 2 == 0 ? ForkMode::kOnDemand : ForkMode::kClassic;
    Process* child = kernel.TryFork(p, mode);
    if (child == nullptr) {
      continue;  // ENOMEM under the tight pool is a legal outcome.
    }
    std::byte mine{static_cast<uint8_t>(0xc0 + round)};
    for (uint64_t i = 0; i < kPages; i += 24) {
      if (!child->MemsetMemory(va + i * kPageSize, mine, kPageSize) ||
          ReadByte(*child, va + i * kPageSize + 7) != mine) {
        ++failures;
      }
    }
    kernel.Exit(*child, 0);
    kernel.Wait(p);
  }
  stop.store(true);
  writer.join();
  kernel.StopKswapd();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(kernel.oom_kills(), 0u);
  EXPECT_GT(ReadVm(VmCounter::k_pgrefill), refill_before) << "kswapd never aged";
  debug::VerifyResult verify = debug::VerifyKernel(kernel);
  EXPECT_TRUE(verify.ok()) << verify.Describe();
  std::vector<std::byte> page(kPageSize);
  for (uint64_t i = 0; i < kPages; ++i) {
    ASSERT_TRUE(p.ReadMemory(va + i * kPageSize, page));
    ASSERT_EQ(page[kPageSize - 1], shadow[i]) << "page " << i;
  }
  kernel.Exit(p, 0);
  EXPECT_TRUE(kernel.allocator().AllFree());
}

// Writers and swap-in faults race kswapd's two-phase eviction. Each thread owns a stripe
// of one process's pages and keeps a shadow of what it last wrote to each; the pages
// outnumber the pool, so kswapd keeps unmapping them and committing their write-outs after
// it releases the MmGate, while the owners rewrite pages and fault evicted ones back in —
// some of them before the write-out is committed (pgswapin_pending). Every read must match
// its shadow. Under TSan this also checks that the commit's copy, which runs with neither
// the gate nor the swap mutex, races neither a swap-in nor a frame's next owner.
TEST(ConcurrencyTest, WritersAndSwapInsRaceTheTwoPhasePageout) {
  constexpr int kThreads = 3;
  constexpr uint64_t kPagesPerThread = 56;
  constexpr uint64_t kPages = kThreads * kPagesPerThread;
  constexpr int kOps = 3000;
  Kernel kernel;
  kernel.SetMemoryLimitFrames(128);  // The data pages alone need 168 frames.
  kernel.StartKswapd();
  Process& p = kernel.CreateProcess();
  Vaddr va = p.Mmap(kPages * kPageSize, kProtRead | kProtWrite);
  uint64_t stolen_before = ReadVm(VmCounter::k_pgsteal);
  uint64_t pending_before = ReadVm(VmCounter::k_pgswapin_pending);
  std::vector<std::vector<std::byte>> shadows(kThreads,
                                              std::vector<std::byte>(kPagesPerThread));
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::byte>& shadow = shadows[static_cast<size_t>(t)];
      Vaddr stripe = va + static_cast<uint64_t>(t) * kPagesPerThread * kPageSize;
      uint64_t rng = static_cast<uint64_t>(t + 1) * uint64_t{0x9e3779b97f4a7c15};
      std::vector<std::byte> page(kPageSize);
      for (int op = 0; op < kOps; ++op) {
        rng = rng * uint64_t{6364136223846793005} + uint64_t{1442695040888963407};
        uint64_t index = (rng >> 33) % kPagesPerThread;
        Vaddr at = stripe + index * kPageSize;
        if ((rng >> 20) % 10 < 4) {
          std::byte value{static_cast<uint8_t>(op % 255 + 1)};
          if (!p.MemsetMemory(at, value, kPageSize)) {
            ++failures;
            continue;
          }
          shadow[index] = value;
        } else {
          if (!p.ReadMemory(at, page)) {
            ++failures;
            continue;
          }
          for (std::byte value : page) {
            if (value != shadow[index]) {
              ++failures;
              break;
            }
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  kernel.StopKswapd();
  EXPECT_EQ(failures.load(), 0) << "a read disagreed with its shadow (or an access failed)";
  EXPECT_GT(ReadVm(VmCounter::k_pgsteal), stolen_before) << "nothing was evicted";
  EXPECT_EQ(kernel.oom_kills(), 0u);
  // Timing decides how many swap-ins hit a pending write-out; zero is legal, just weaker.
  std::printf("[          ] swap-ins served from a pending write-out: %llu\n",
              static_cast<unsigned long long>(ReadVm(VmCounter::k_pgswapin_pending) -
                                              pending_before));
  debug::VerifyResult verify = debug::VerifyKernel(kernel);
  EXPECT_TRUE(verify.ok()) << verify.Describe();
  std::vector<std::byte> page(kPageSize);
  for (uint64_t i = 0; i < kPages; ++i) {
    ASSERT_TRUE(p.ReadMemory(va + i * kPageSize, page));
    std::byte want = shadows[i / kPagesPerThread][i % kPagesPerThread];
    ASSERT_EQ(std::count(page.begin(), page.end(), want), static_cast<long>(kPageSize))
        << "page " << i;
  }
  kernel.Exit(p, 0);
  EXPECT_TRUE(kernel.allocator().AllFree());
  EXPECT_TRUE(kernel.swap_space().AllFree());
}

// VerifyKernel is exact while kswapd evicts: its exclusive hold stops the writer, and it
// waits for any pageout in flight, whose frames are unmapped yet still allocated (they
// would read as leaked) until their write-outs commit and their references drop. Under
// debug-vm the auto-verifier runs too, between the writer's operations.
TEST(ConcurrencyTest, VerifierLoopIsExactWhileKswapdEvicts) {
  constexpr uint64_t kPages = 192;
  constexpr int kRounds = 48;
  Kernel kernel;
  kernel.SetMemoryLimitFrames(128);
  kernel.StartKswapd();
  Process& p = kernel.CreateProcess();
  Vaddr va = p.Mmap(kPages * kPageSize, kProtRead | kProtWrite);
  uint64_t stolen_before = ReadVm(VmCounter::k_pgsteal);
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::thread writer([&] {
    for (int round = 0; round < kRounds; ++round) {
      if (!p.MemsetMemory(va, std::byte{static_cast<uint8_t>(round + 1)},
                          kPages * kPageSize)) {
        ++failures;
      }
    }
    done.store(true);
  });
  int runs = 0;
  std::string first_violation;
  while (!done.load()) {
    auto start = std::chrono::steady_clock::now();
    debug::VerifyResult result = debug::VerifyKernel(kernel);
    ++runs;
    if (!result.ok() && first_violation.empty()) {
      first_violation = result.Describe();
    }
    // Back-to-back exclusive holds would starve the writer (the gate favours the evictor
    // side): leave it a quarter of the time the verification took, whatever the build.
    std::this_thread::sleep_for(std::max<std::chrono::steady_clock::duration>(
        (std::chrono::steady_clock::now() - start) / 4, std::chrono::microseconds(100)));
  }
  writer.join();
  kernel.StopKswapd();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(first_violation.empty()) << first_violation;
  EXPECT_GT(runs, 0);
  EXPECT_GT(ReadVm(VmCounter::k_pgsteal), stolen_before) << "nothing was evicted";
  std::vector<std::byte> page(kPageSize);
  for (uint64_t i = 0; i < kPages; ++i) {
    ASSERT_TRUE(p.ReadMemory(va + i * kPageSize, page));
    ASSERT_EQ(page[kPageSize - 1], static_cast<std::byte>(kRounds)) << "page " << i;
  }
  kernel.Exit(p, 0);
  EXPECT_TRUE(kernel.allocator().AllFree());
}

#if ODF_REPLAY_COMPILED
TEST(ConcurrencyTest, ConcurrentRecordedScheduleReplaysDeterministically) {
  // Records THREE driver threads concurrently, each driving its own process lineage.
  // The recorder serializes ops in arrival order, so the log captures one (arbitrary)
  // interleaving of the three schedules — and because each process is driven by a single
  // thread, replaying that interleaving single-threaded must reproduce every per-op
  // result digest and the final content digests exactly.
  replay::Recorder::Global().Stop();
  replay::RecorderOptions options;
  options.mode = replay::RecorderMode::kFull;
  ASSERT_TRUE(replay::Recorder::Global().Start(options));
  std::string path = ::testing::TempDir() + "concurrent_schedule.odflog";
  {
    Kernel kernel;
    constexpr int kDrivers = 3;
    std::vector<Process*> parents;
    for (int t = 0; t < kDrivers; ++t) {
      Process& parent = kernel.CreateProcess();
      parent.Mmap(4ull << 20, kProtRead | kProtWrite);
      parents.push_back(&parent);
    }
    std::vector<std::thread> threads;
    for (int t = 0; t < kDrivers; ++t) {
      threads.emplace_back([&, t] {
        Process& parent = *parents[static_cast<size_t>(t)];
        Vaddr va = parent.address_space().vmas().begin()->second.start;
        std::vector<std::byte> page(kPageSize, std::byte{static_cast<uint8_t>(0x40 + t)});
        for (int i = 0; i < 24; ++i) {
          ASSERT_TRUE(parent.WriteMemory(va + static_cast<uint64_t>(i) * kPageSize, page));
        }
        Process* child = kernel.TryFork(parent, ForkMode::kOnDemand);
        ASSERT_NE(child, nullptr);
        for (int i = 0; i < 24; i += 2) {
          child->MemsetMemory(va + static_cast<uint64_t>(i) * kPageSize,
                              std::byte{static_cast<uint8_t>(t)}, kPageSize);
        }
        std::vector<std::byte> back(kPageSize);
        ASSERT_TRUE(child->ReadMemory(va, back));
        kernel.Exit(*child, 0);
        kernel.Wait(parent);
      });
    }
    for (auto& thread : threads) {
      thread.join();
    }
    std::string error;
    ASSERT_TRUE(replay::StopAndWriteLog(kernel, path, &error)) << error;
  }
  replay::ReplayLog log;
  std::string error;
  ASSERT_TRUE(replay::ReadLogFile(path, &log, &error)) << error;
  EXPECT_TRUE(log.Complete());
  replay::ReplayReport report = replay::Replay(log, replay::ReplayOptions{});
  EXPECT_TRUE(report.ok()) << report.Describe();
  EXPECT_EQ(report.ops_replayed, report.ops_total);
}
#endif  // ODF_REPLAY_COMPILED

// Four driver threads, each with its own family, fault, fork (both engines) and exit while
// kswapd and direct reclaim evict under a tight pool: family links and unlinks, add-batch
// appends, drains and free-path purges all race the family walk (docs/reclaim.md).
TEST(ConcurrencyTest, RmapFamiliesFaultForkExitUnderKswapdStayConsistent) {
  constexpr int kThreads = 4;
  constexpr uint64_t kPages = 64;
  constexpr int kRounds = 12;
  Kernel kernel;
  kernel.SetMemoryLimitFrames(224);  // The four parents alone need 256 data frames.
  kernel.StartKswapd();
  uint64_t stolen_before = ReadVm(VmCounter::k_pgsteal);
  std::vector<Process*> parents;
  for (int t = 0; t < kThreads; ++t) {
    parents.push_back(&kernel.CreateProcess());
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Process& parent = *parents[static_cast<size_t>(t)];
      Kernel::ActiveProcessScope immune(&parent);
      Vaddr va = parent.Mmap(kPages * kPageSize, kProtRead | kProtWrite);
      for (int round = 0; round < kRounds; ++round) {
        uint64_t seed = static_cast<uint64_t>(t * 100 + round);
        FillPattern(parent, va, kPages * kPageSize, seed);
        ForkMode mode = round % 2 == 0 ? ForkMode::kClassic : ForkMode::kOnDemand;
        Process* child = kernel.TryFork(parent, mode);
        if (child == nullptr) {
          continue;  // ENOMEM under the tight pool is a legal outcome.
        }
        std::byte value{static_cast<uint8_t>(round)};
        for (uint64_t i = 0; i < kPages; i += 4) {
          if (!child->WriteMemory(va + i * kPageSize, std::span(&value, 1))) {
            ++failures;
          }
        }
        std::vector<std::byte> back(kPageSize);
        auto expected = static_cast<std::byte>((seed * 1099511628211ULL + va + 1) >> 5);
        if (!parent.ReadMemory(va, back) || back[1] != expected) {
          ++failures;  // The child's writes must never leak into the parent.
        }
        kernel.Exit(*child, 0);
        kernel.Wait(parent);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  kernel.StopKswapd();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(ReadVm(VmCounter::k_pgsteal), stolen_before)
      << "the pool never ran short: nothing raced the walk";
  EXPECT_EQ(kernel.oom_kills(), 0u);
  debug::VerifyResult result = debug::VerifyKernel(kernel);
  EXPECT_TRUE(result.ok()) << result.Describe();
  for (Process* parent : parents) {
    kernel.Exit(*parent, 0);
  }
  EXPECT_TRUE(kernel.allocator().AllFree());
}

TEST(ConcurrencyTest, ConcurrentForkVmCountersStayConsistent) {
  Kernel kernel;
  constexpr int kThreads = 4;
  constexpr int kForksPerThread = 50;
  std::vector<Process*> parents;
  for (int t = 0; t < kThreads; ++t) {
    Process& parent = kernel.CreateProcess();
    Vaddr va = parent.Mmap(2 << 20, kProtRead | kProtWrite);
    parent.address_space().PopulateRange(va, 2 << 20);
    parents.push_back(&parent);
  }
  uint64_t forks_before = ReadVm(VmCounter::k_fork_on_demand);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kForksPerThread; ++i) {
        Process& child = kernel.Fork(*parents[static_cast<size_t>(t)], ForkMode::kOnDemand);
        kernel.Exit(child, 0);
        kernel.Wait(*parents[static_cast<size_t>(t)]);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(ReadVm(VmCounter::k_fork_on_demand) - forks_before,
            static_cast<uint64_t>(kThreads) * kForksPerThread);
  EXPECT_EQ(kernel.ProcessCount(), static_cast<size_t>(kThreads));
}

// BravoGate's writer scans only the reader slots marked in the gate's mask. A fresh gate
// has none marked, and each round's reader is a new thread, so every round pits a writer
// against a reader's first count on its slot: the reader must either be seen by the
// writer's scan or back off to the mutex. Odd rounds start both at once; even rounds let
// the reader in first, the order in which a writer that missed the bit would not wait.
// A reader that got in stays until the writer has started its acquisition. The guarded
// value is a plain int, so a writer that skipped a live reader is a data race under TSan
// and a torn read or a counted reader otherwise.
TEST(ConcurrencyTest, BravoWriterExcludesAReaderOnItsFirstSlotUse) {
  constexpr int kRounds = 200;
  int torn_reads = 0;
  int readers_seen_by_writer = 0;
  for (int round = 0; round < kRounds; ++round) {
    util::BravoGate gate;
    int guarded = 0;  // The writer moves it 0 -> 1 -> 2; a reader must never see 1.
    std::atomic<int> readers_inside{0};
    std::atomic<bool> go{false};
    std::atomic<bool> reader_entered{false};
    std::atomic<bool> writer_started{false};
    int seen = 0;
    std::thread reader([&] {
      while (!go.load()) {
        std::this_thread::yield();
      }
      util::BravoGate::ReadToken token = gate.LockShared();
      readers_inside.fetch_add(1);
      reader_entered.store(true);
      while (!writer_started.load()) {
        std::this_thread::yield();
      }
      // Long enough for a writer that skipped this slot to be caught here.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      seen = guarded;
      readers_inside.fetch_sub(1);
      gate.UnlockShared(token);
    });
    go.store(true);
    if (round % 2 == 0) {
      while (!reader_entered.load()) {
        std::this_thread::yield();
      }
    }
    writer_started.store(true);
    gate.LockExclusive();
    readers_seen_by_writer += readers_inside.load();
    guarded = 1;
    std::this_thread::yield();
    guarded = 2;
    gate.UnlockExclusive();
    reader.join();
    torn_reads += seen == 1 ? 1 : 0;
  }
  EXPECT_EQ(readers_seen_by_writer, 0) << "a reader was inside while the writer held the gate";
  EXPECT_EQ(torn_reads, 0);
}

// PtEpoch::Drain waits for every reader in its read section, one on a slot first claimed
// after the process's last drain included. The reader here claims its slot after that
// drain and sits in its read section over a PTE table while another thread unmaps the
// table: the unmap's drain must wait for it.
TEST(ConcurrencyTest, DrainWaitsForAReaderOnANewlyClaimedSlot) {
  Kernel kernel;
  Process& p = kernel.CreateProcess();
  Vaddr va = p.Mmap(kHugePageSize, kProtRead | kProtWrite);
  WriteByte(p, va, std::byte{0x17});
  PtEpoch::Global().Drain();

  std::atomic<int> stage{0};  // 1: reader inside its section, 2: unmap returned.
  bool unmapped_while_inside = true;
  FrameId walked = kInvalidFrame;
  std::thread reader([&] {
    PtEpoch::ReadGuard guard;
    EXPECT_TRUE(guard.ok());
    Translation t = p.address_space().walker().TranslateLockFree(p.address_space().pgd(), va);
    walked = t.status == TranslateStatus::kOk ? t.frame : kInvalidFrame;
    stage.store(1);
    // Long enough for an unmap whose drain skipped this slot to finish meanwhile.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    unmapped_while_inside = stage.load() == 2;
  });
  while (stage.load() != 1) {
    std::this_thread::yield();
  }
  p.Munmap(va, kHugePageSize);  // Retires the PTE table, then drains.
  stage.store(2);
  reader.join();
  EXPECT_NE(walked, kInvalidFrame);
  EXPECT_FALSE(unmapped_while_inside) << "the drain freed a table under a live reader";
  kernel.Exit(p, 0);
  EXPECT_TRUE(kernel.allocator().AllFree());
}

// A shared acquisition that waits out an exclusive hold adds its wait to its gate's
// counter, whatever the trace setting: mm_gate_wait_ns for the MmGate, as_gate_wait_ns for
// an address-space gate, and nothing to the other one. Each hold lasts 20 ms after the
// waiter has started; the counted wait must be a real wait, not a fast-path blip.
TEST(ConcurrencyTest, GateWaitsAreCountedPerGate) {
  Kernel kernel;
  Process& p = kernel.CreateProcess();
  MmLockTable& locks = p.address_space().locks();
  constexpr uint64_t kMinCountedNs = 1'000'000;
  // Runs `acquire` on a new thread while the caller holds a gate exclusively.
  auto wait_on_held_gate = [](auto acquire) {
    std::atomic<bool> started{false};
    std::thread waiter([&started, acquire] {
      started.store(true);  // Its last use of `started`, which dies when this returns.
      acquire();
    });
    while (!started.load()) {
      std::this_thread::yield();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return waiter;
  };
  {
    VmDeltas waits;
    std::thread waiter;
    {
      reclaim::MmGate::ExclusiveScope gate;
      waiter = wait_on_held_gate([] { reclaim::MmGate::SharedScope shared; });
    }
    waiter.join();
    EXPECT_GE(waits.Of(VmCounter::k_mm_gate_wait_ns), kMinCountedNs);
    EXPECT_EQ(waits.Of(VmCounter::k_as_gate_wait_ns), 0u);
  }
  {
    VmDeltas waits;
    std::thread waiter;
    {
      MmLockTable::WriteScope gate(locks);
      waiter = wait_on_held_gate([&locks] { MmLockTable::ReadScope shared(locks); });
    }
    waiter.join();
    EXPECT_GE(waits.Of(VmCounter::k_as_gate_wait_ns), kMinCountedNs);
    EXPECT_EQ(waits.Of(VmCounter::k_mm_gate_wait_ns), 0u);
  }
}

// Built-in vmstat counters live in per-thread shards (src/trace/metrics.h); a read sums the
// live shards plus the totals folded in when threads exit.
TEST(VmCounterTest, ShardsOfJoinedThreadsSumExactly) {
  constexpr int kThreads = 4;
  constexpr uint64_t kBumps = 100'000;
  uint64_t before = ReadVm(VmCounter::k_mf_huge_splits);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (uint64_t i = 0; i < kBumps; ++i) {
        CountVm(VmCounter::k_mf_huge_splits);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(ReadVm(VmCounter::k_mf_huge_splits) - before, kThreads * kBumps);
  EXPECT_EQ(MetricsRegistry::Global().CounterValue("mf_huge_splits") - before,
            kThreads * kBumps);

  MetricsRegistry::Global().ResetForTest();
  EXPECT_EQ(ReadVm(VmCounter::k_mf_huge_splits), 0u)
      << "reset must zero the retired totals of exited threads";
}

TEST(VmCounterTest, ConcurrentReaderSeesNonDecreasingSum) {
  constexpr int kWriters = 4;
  constexpr uint64_t kBumps = 50'000;
  uint64_t before = ReadVm(VmCounter::k_mf_sigbus);
  std::atomic<int> running{kWriters};
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    // Writers exit while the reader runs, so their shards fold mid-read.
    writers.emplace_back([&running] {
      for (uint64_t i = 0; i < kBumps; ++i) {
        CountVm(VmCounter::k_mf_sigbus);
      }
      running.fetch_sub(1, std::memory_order_release);
    });
  }
  uint64_t last = before;
  uint64_t reads = 0;
  while (running.load(std::memory_order_acquire) > 0 || reads == 0) {
    uint64_t now = ReadVm(VmCounter::k_mf_sigbus);
    ASSERT_GE(now, last) << "read " << reads;
    last = now;
    ++reads;
  }
  for (std::thread& writer : writers) {
    writer.join();
  }
  EXPECT_EQ(ReadVm(VmCounter::k_mf_sigbus) - before, kWriters * kBumps);
}

}  // namespace
}  // namespace odf
