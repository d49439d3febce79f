// Figure 3: where does classic fork spend its time? The paper's perf profile of
// copy_one_pte() attributes ~63% to compound_head() (the first cache-missing touch of
// struct page) and ~29% to the atomic page_ref_inc(). The instrumented fork path times the
// same three sub-operations in batched passes per PTE table.
#include "bench/bench_common.h"

namespace odf {
namespace {

// The shape gate: the steady fork's metadata + refcount share of its attributed time.
// The paper reads ~92 %; fast mode (2 GiB) on a 4-vCPU shared Xeon reads 84-91 %, with a
// rare 65 % when the host preempts the entry-copy pass. The bound catches the table walk
// or table allocation taking over the fork, not drift.
constexpr double kMinMetaRefcountShare = 0.50;

bool Run() {
  BenchConfig config = BenchConfig::FromEnv();
  double gb = std::min(config.max_gb, 8.0);
  PrintHeader("Fig. 3 — classic fork cost attribution (copy_one_pte analog)",
              "compound_head (~63%) and page_ref_inc (~29%) dominate; table walk is minor");

  Kernel kernel;
  Process& parent = MakePopulatedProcess(kernel, GbToBytes(gb));

  // Enough forks for a steady state after the second fork (FirstVsSteady).
  const int forks = std::max(config.reps, kFirstVsSteadyForks);
  ForkProfile profile;  // All forks.
  ForkProfile first;    // The first fork alone.
  ForkProfile second;   // The second fork alone.
  ForkProfile steady;   // Forks 3..n.
  std::vector<double> total_ms;
  std::vector<uint64_t> minflt;
  const uint64_t entries_before = ReadVm(VmCounter::k_fork_pte_entries_copied);
  for (int r = 0; r < forks; ++r) {
    ForkProfile one;
    uint64_t minflt_before = HostMinorFaults();
    Stopwatch sw;
    Process& child = kernel.Fork(parent, ForkMode::kClassic, &one);
    total_ms.push_back(sw.ElapsedMillis());
    minflt.push_back(HostMinorFaults() - minflt_before);
    kernel.Exit(child, 0);
    kernel.Wait(parent);
    for (ForkProfile* into : {&profile, r == 0 ? &first : r == 1 ? &second : &steady}) {
      into->meta_resolve_ns += one.meta_resolve_ns;
      into->refcount_ns += one.refcount_ns;
      into->entry_copy_ns += one.entry_copy_ns;
      into->table_alloc_ns += one.table_alloc_ns;
      into->upper_level_ns += one.upper_level_ns;
    }
  }
  const uint64_t entries_copied = ReadVm(VmCounter::k_fork_pte_entries_copied) - entries_before;

  // `ns` as a fraction of the time `p` attributes to its phases.
  auto fraction = [](const ForkProfile& p, uint64_t ns) {
    return static_cast<double>(ns) / static_cast<double>(std::max<uint64_t>(p.AttributedNs(), 1));
  };
  auto share = [&](const ForkProfile& p, uint64_t ns) {
    return TablePrinter::FormatPercent(fraction(p, ns), 1);
  };
  auto pct = [&](uint64_t ns) { return share(profile, ns); };
  std::printf("Mapped: %.1f GB, %llu PTE entries copied across %d forks\n\n", gb,
              static_cast<unsigned long long>(entries_copied), forks);

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

  // The same split for the first fork, the second and the forks after them. The first fork
  // builds child page tables in never-touched simulator memory, so the host's first-touch
  // faults land in its table-allocation phase.
  FirstVsSteady split_ms = FirstVsSteady::Of(total_ms, minflt);
  TablePrinter split({"Fork", "Time (ms)", "Host minflt", "metadata", "refcount", "entry copy",
                      "table alloc"});
  auto add_split_row = [&](const std::string& name, const ForkProfile& p, double ms,
                           const std::string& host_minflt) {
    split.AddRow({name, TablePrinter::FormatDouble(ms, 2), host_minflt,
                  share(p, p.meta_resolve_ns), share(p, p.refcount_ns),
                  share(p, p.entry_copy_ns), share(p, p.table_alloc_ns)});
  };
  add_split_row("first", first, split_ms.first_ms, std::to_string(split_ms.first_minflt));
  add_split_row("second", second, split_ms.second_ms, std::to_string(split_ms.second_minflt));
  add_split_row("steady (mean of " + std::to_string(forks - 2) + ")", steady,
                split_ms.steady_ms, TablePrinter::FormatDouble(split_ms.steady_minflt, 1));
  std::printf("\nFirst and second fork vs forks 3..n (host minor faults are first touches of\n"
              "simulator memory):\n");
  split.Print();
  WriteBenchJson("fig03_fork_profile", config,
                 {{"fork_profile", &table}, {"first_vs_steady", &split}});

  const double steady_share =
      fraction(steady, steady.meta_resolve_ns) + fraction(steady, steady.refcount_ns);
  std::printf("\nShape check: metadata + refcount passes should dominate (paper: ~92%% "
              "combined); steady fork %.1f%%, bound %.0f%%.\n",
              steady_share * 100.0, kMinMetaRefcountShare * 100.0);
  if (steady_share <= kMinMetaRefcountShare) {
    std::printf("SHAPE BROKEN: the steady fork's metadata + refcount share %.1f%% is not "
                "above %.0f%%\n",
                steady_share * 100.0, kMinMetaRefcountShare * 100.0);
    return false;
  }
  return true;
}

}  // namespace
}  // namespace odf

int main() { return odf::Run() ? 0 : 1; }
