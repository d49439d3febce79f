// Ablation 1 — why share only the LAST level? (paper §3.1: "we do not expect significant
// performance gains for most use cases to justify a more complex design")
//
// On-demand-fork still copies the upper three levels eagerly. This ablation measures, at
// each size, how much of the ODF invocation is spent copying upper levels versus sharing
// leaf tables. If the upper-level share is small in absolute terms, extending sharing to
// PMD/PUD tables could at best save that remainder — quantifying the paper's design call.
#include "bench/bench_common.h"

namespace odf {
namespace {

void Run() {
  BenchConfig config = BenchConfig::FromEnv();
  PrintHeader("Ablation 1 — cost headroom of sharing upper page-table levels",
              "paper §3.1 design choice: last-level-only sharing is enough");

  TablePrinter table({"Size (GB)", "ODF total (ms)", "upper-level copy+share (ms)",
                      "leaf tables shared", "upper tables copied"});
  for (double gb : SizeSweepGb(config.max_gb)) {
    Kernel kernel;
    Process& parent = MakePopulatedProcess(kernel, GbToBytes(gb));

    ForkProfile profile;
    RunningStats total_ms;
    const uint64_t shared_before = ReadVm(VmCounter::k_pte_tables_shared);
    for (int r = 0; r < config.reps; ++r) {
      Stopwatch sw;
      Process& child = kernel.Fork(parent, ForkMode::kOnDemand, &profile);
      total_ms.Add(sw.ElapsedMillis());
      kernel.Exit(child, 0);
      kernel.Wait(parent);
    }
    double upper_ms = static_cast<double>(profile.upper_level_ns) / 1e6 /
                      static_cast<double>(config.reps);
    uint64_t leaf_tables = (ReadVm(VmCounter::k_pte_tables_shared) - shared_before) /
                           static_cast<uint64_t>(config.reps);
    // Upper tables = PMD + PUD + PGD tables the child needed (every 1 GiB of leaves needs
    // one PMD table; PUD/PGD are 1-2 tables at these sizes).
    uint64_t upper_tables = (leaf_tables + kEntriesPerTable - 1) / kEntriesPerTable + 2;
    table.AddRow({TablePrinter::FormatDouble(gb, 1),
                  TablePrinter::FormatDouble(total_ms.mean(), 4),
                  TablePrinter::FormatDouble(upper_ms, 4), std::to_string(leaf_tables),
                  std::to_string(upper_tables)});
  }
  table.Print();
  WriteBenchJson("abl01_share_depth", config, {{"share_depth", &table}});
  std::printf(
      "\nReading: the entire ODF invocation IS the upper-level work (leaf sharing is one\n"
      "refcount+PMD write per 2 MiB, inside the same walk). Sharing PMD tables too could\n"
      "only shave the per-leaf-entry loop, a ~512x smaller term than classic fork already\n"
      "eliminated — supporting the paper's choice to keep the design simple.\n");
}

}  // namespace
}  // namespace odf

int main() {
  odf::Run();
  return 0;
}
