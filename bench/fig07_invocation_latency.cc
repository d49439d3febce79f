// Figure 7 — the headline result: fork vs fork-with-huge-pages vs on-demand-fork invocation
// latency across the memory sweep. Paper: ODF is 65x faster than fork at 1 GB, 270x at
// 50 GB, and slightly faster than huge-page fork throughout.
#include "bench/bench_common.h"

namespace odf {
namespace {

// The shape gate: fork / on-demand-fork at every size. The paper's ratio is 65x at 1 GB
// and 270x at 50 GB. The band is wide on purpose: it catches the shape inverting or
// collapsing (or an ODF fork that stopped doing its work), not drift.
constexpr double kMinForkOverOdf = 5.0;
constexpr double kMaxForkOverOdf = 5000.0;

bool Run() {
  BenchConfig config = BenchConfig::FromEnv();
  PrintHeader("Fig. 7 — invocation latency: fork vs fork+huge vs on-demand-fork",
              "ODF 0.10 ms at 1 GB (65x over fork) and 0.94 ms at 50 GB (270x)");

  TablePrinter table({"Size (GB)", "fork (ms)", "fork w/ huge (ms)", "on-demand-fork (ms)",
                      "ODF speedup vs fork"});
  std::vector<std::string> split_columns = FirstVsSteadyColumns();
  split_columns.insert(split_columns.begin(), {"Size (GB)", "Engine"});
  TablePrinter split(split_columns);
  // Enough forks per engine and size for a steady state after the second fork.
  const int forks = std::max(config.reps, kFirstVsSteadyForks);
  bool ok = true;
  for (double gb : SizeSweepGb(config.max_gb)) {
    uint64_t bytes = GbToBytes(gb);
    // Mean fork time over the series; adds the first-vs-steady row for `engine`.
    auto measure = [&](const char* engine, ForkMode mode, bool huge) {
      Kernel kernel;
      Process& parent = MakePopulatedProcess(kernel, bytes, huge);
      std::vector<uint64_t> minflt;
      std::vector<double> ms = TimeForks(kernel, parent, mode, forks, &minflt);
      std::vector<std::string> row = FirstVsSteady::Of(ms, minflt).Cells(4);
      row.insert(row.begin(), {TablePrinter::FormatDouble(gb, 1), engine});
      split.AddRow(row);
      return Summarize(ms).mean;
    };
    double classic_ms = measure("fork", ForkMode::kClassic, /*huge=*/false);
    double huge_ms = measure("fork w/ huge", ForkMode::kClassic, /*huge=*/true);
    double odf_ms = measure("on-demand-fork", ForkMode::kOnDemand, /*huge=*/false);
    table.AddRow({TablePrinter::FormatDouble(gb, 1), TablePrinter::FormatDouble(classic_ms, 4),
                  TablePrinter::FormatDouble(huge_ms, 4),
                  TablePrinter::FormatDouble(odf_ms, 4),
                  TablePrinter::FormatDouble(classic_ms / odf_ms, 1) + "x"});
    const double ratio = classic_ms / odf_ms;
    if (!(ratio >= kMinForkOverOdf && ratio <= kMaxForkOverOdf)) {
      std::printf("SHAPE BROKEN at %.1f GB: fork %.4f ms is %.1fx on-demand-fork %.4f ms, "
                  "outside [%.0fx, %.0fx]\n",
                  gb, classic_ms, ratio, odf_ms, kMinForkOverOdf, kMaxForkOverOdf);
      ok = false;
    }
  }
  table.Print();
  std::printf("\nFirst and second fork vs forks 3..n, per engine (host minor faults are\n"
              "first touches of simulator memory, mostly page-table frames):\n");
  split.Print();
  WriteBenchJson("fig07_invocation_latency", config,
                 {{"invocation_latency", &table}, {"first_vs_steady", &split}});
  std::printf("\nShape check: fork / on-demand-fork within [%.0fx, %.0fx] at every size.\n",
              kMinForkOverOdf, kMaxForkOverOdf);
  return ok;
}

}  // namespace
}  // namespace odf

int main() { return odf::Run() ? 0 : 1; }
