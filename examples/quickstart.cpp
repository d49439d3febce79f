// Quickstart: create a process with a large mapping, fork it both ways, and watch
// copy-on-write (of data pages AND page tables) do its job.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build && ./build/examples/quickstart
#include <cstdio>

#include "src/proc/kernel.h"
#include "src/trace/metrics.h"
#include "src/util/stopwatch.h"

int main() {
  odf::Kernel kernel;

  // 1) A process with 1 GB of populated anonymous memory.
  odf::Process& parent = kernel.CreateProcess();
  const uint64_t kSize = 1ULL << 30;
  odf::Vaddr buffer = parent.Mmap(kSize, odf::kProtRead | odf::kProtWrite);
  parent.address_space().PopulateRange(buffer, kSize);
  parent.StoreU64(buffer, 0xdeadbeef);
  std::printf("parent pid %d: mapped %llu MB at 0x%llx\n", parent.pid(),
              (unsigned long long)(kSize >> 20), (unsigned long long)buffer);

  // 2) Fork it the traditional way and with on-demand-fork; compare invocation latency.
  odf::Stopwatch sw;
  odf::Process& classic_child = kernel.Fork(parent, odf::ForkMode::kClassic);
  double classic_ms = sw.ElapsedMillis();

  sw.Restart();
  odf::Process& odf_child = kernel.Fork(parent, odf::ForkMode::kOnDemand);
  double odf_ms = sw.ElapsedMillis();

  std::printf("fork():           %8.3f ms\n", classic_ms);
  std::printf("on_demand_fork(): %8.3f ms   (%.0fx faster)\n", odf_ms, classic_ms / odf_ms);

  // 3) Copy-on-write semantics are identical: children see the parent's data...
  std::printf("children read parent's word: 0x%llx / 0x%llx\n",
              (unsigned long long)classic_child.LoadU64(buffer),
              (unsigned long long)odf_child.LoadU64(buffer));

  // ...and writes are private. The ODF child's first write in this 2 MiB region also copies
  // the shared page table, visible in the fault statistics.
  const uint64_t table_cows_before = odf::ReadVm(odf::VmCounter::k_pte_table_cow);
  odf_child.StoreU64(buffer, 1111);
  const uint64_t table_cows = odf::ReadVm(odf::VmCounter::k_pte_table_cow) - table_cows_before;
  classic_child.StoreU64(buffer, 2222);
  std::printf("after child writes: parent=0x%llx odf_child=%llu classic_child=%llu\n",
              (unsigned long long)parent.LoadU64(buffer),
              (unsigned long long)odf_child.LoadU64(buffer),
              (unsigned long long)classic_child.LoadU64(buffer));
  std::printf("odf child PTE-table COW faults: %llu (one per written 2 MiB region)\n",
              (unsigned long long)table_cows);

  // 4) Clean up.
  kernel.Exit(odf_child, 0);
  kernel.Exit(classic_child, 0);
  kernel.Wait(parent);
  kernel.Wait(parent);
  kernel.Exit(parent, 0);
  const bool all_free = kernel.allocator().AllFree();
  std::printf("all frames released: %s\n", all_free ? "yes" : "NO");
  return all_free ? 0 : 1;
}
