// Figure 3: where does classic fork spend its time? The paper's perf profile of
// copy_one_pte() attributes ~63% to compound_head() (the first cache-missing touch of
// struct page) and ~29% to the atomic page_ref_inc(). The instrumented fork path times the
// same three sub-operations in batched passes per PTE table.
#include "bench/bench_common.h"

namespace odf {
namespace {

void Run() {
  BenchConfig config = BenchConfig::FromEnv();
  double gb = std::min(config.max_gb, 8.0);
  PrintHeader("Fig. 3 — classic fork cost attribution (copy_one_pte analog)",
              "compound_head (~63%) and page_ref_inc (~29%) dominate; table walk is minor");

  Kernel kernel;
  Process& parent = MakePopulatedProcess(kernel, GbToBytes(gb));

  // At least two forks, so the cold first fork can be shown beside the steady state.
  const int forks = std::max(config.reps, 2);
  ForkProfile profile;       // All forks.
  ForkProfile first;         // The first fork alone.
  ForkProfile steady;        // Forks 2..n.
  std::vector<double> total_ms;
  std::vector<uint64_t> minflt;
  for (int r = 0; r < forks; ++r) {
    ForkProfile one;
    uint64_t minflt_before = HostMinorFaults();
    Stopwatch sw;
    Process& child = kernel.Fork(parent, ForkMode::kClassic, &one);
    total_ms.push_back(sw.ElapsedMillis());
    minflt.push_back(HostMinorFaults() - minflt_before);
    kernel.Exit(child, 0);
    kernel.Wait(parent);
    for (ForkProfile* into : {&profile, r == 0 ? &first : &steady}) {
      into->pte_entries_copied += one.pte_entries_copied;
      into->meta_resolve_ns += one.meta_resolve_ns;
      into->refcount_ns += one.refcount_ns;
      into->entry_copy_ns += one.entry_copy_ns;
      into->table_alloc_ns += one.table_alloc_ns;
      into->upper_level_ns += one.upper_level_ns;
    }
  }

  // `ns` as a share of the time `p` attributes to its phases.
  auto share = [](const ForkProfile& p, uint64_t ns) {
    return TablePrinter::FormatPercent(
        static_cast<double>(ns) / static_cast<double>(std::max<uint64_t>(p.AttributedNs(), 1)),
        1);
  };
  auto pct = [&](uint64_t ns) { return share(profile, ns); };
  std::printf("Mapped: %.1f GB, %llu PTE entries copied across %d forks\n\n", gb,
              static_cast<unsigned long long>(profile.pte_entries_copied), forks);

  TablePrinter table({"Phase (kernel analog)", "Time (ms)", "Share"});
  table.AddRow({"page metadata lookup + compound_head()",
                TablePrinter::FormatDouble(static_cast<double>(profile.meta_resolve_ns) / 1e6, 2),
                pct(profile.meta_resolve_ns)});
  table.AddRow({"page_ref_inc() (atomic refcount)",
                TablePrinter::FormatDouble(static_cast<double>(profile.refcount_ns) / 1e6, 2),
                pct(profile.refcount_ns)});
  table.AddRow({"PTE entry write-protect + copy",
                TablePrinter::FormatDouble(static_cast<double>(profile.entry_copy_ns) / 1e6, 2),
                pct(profile.entry_copy_ns)});
  table.AddRow({"child PTE table allocation",
                TablePrinter::FormatDouble(static_cast<double>(profile.table_alloc_ns) / 1e6, 2),
                pct(profile.table_alloc_ns)});
  table.Print();

  // The same split for the first fork and for the forks after it. The first fork builds
  // child page tables in never-touched simulator memory, so the host's first-touch faults
  // land in its table-allocation phase.
  FirstVsSteady split_ms = FirstVsSteady::Of(total_ms, minflt);
  TablePrinter split({"Fork", "Time (ms)", "Host minflt", "metadata", "refcount", "entry copy",
                      "table alloc"});
  split.AddRow({"first", TablePrinter::FormatDouble(split_ms.first_ms, 2),
                std::to_string(split_ms.first_minflt), share(first, first.meta_resolve_ns),
                share(first, first.refcount_ns), share(first, first.entry_copy_ns),
                share(first, first.table_alloc_ns)});
  split.AddRow({"steady (mean of " + std::to_string(forks - 1) + ")",
                TablePrinter::FormatDouble(split_ms.steady_ms, 2),
                TablePrinter::FormatDouble(split_ms.steady_minflt, 1),
                share(steady, steady.meta_resolve_ns), share(steady, steady.refcount_ns),
                share(steady, steady.entry_copy_ns), share(steady, steady.table_alloc_ns)});
  std::printf("\nFirst fork vs the forks after it (host minor faults are first touches of\n"
              "simulator memory):\n");
  split.Print();
  WriteBenchJson("fig03_fork_profile", config,
                 {{"fork_profile", &table}, {"first_vs_steady", &split}});
  std::printf(
      "\nShape check: metadata + refcount passes should dominate (paper: ~92%% combined).\n");
}

}  // namespace
}  // namespace odf

int main() {
  odf::Run();
  return 0;
}
