// Tables 6 & 7: Apache-prefork request latency — the paper's negative result. The server
// maps only ~7 MB and forks workers once at startup, so on-demand-fork should make no
// meaningful difference to request latency (differences under the run-to-run noise).
#include "bench/bench_common.h"
#include "src/apps/httpd.h"

namespace odf {
namespace {

struct ApacheRun {
  std::vector<double> latency;  // Per-request latency (us).
  double startup_fork_us = 0;
};

void RunServer(ForkMode mode, uint64_t requests, ApacheRun* run) {
  Kernel kernel;
  HttpdConfig config;
  config.fork_mode = mode;
  PreforkServer server = PreforkServer::Start(kernel, config);
  run->startup_fork_us = server.startup_fork_micros();
  Rng rng(17);
  // Warm the workers (first requests pay one-time COW faults in both modes, like a fresh
  // Apache instance touching its config pages).
  for (int i = 0; i < config.worker_count * 8; ++i) {
    server.HandleRequest(rng.Next());
  }
  for (uint64_t i = 0; i < requests; ++i) {
    Stopwatch timer;
    server.HandleRequest(rng.Next());
    run->latency.push_back(timer.ElapsedMicros());
  }
  server.Shutdown();
}

void Run() {
  BenchConfig config = BenchConfig::FromEnv();
  uint64_t requests = config.fast ? 2000 : 20000;
  PrintHeader("Tables 6 & 7 — Apache prefork request latency (the no-benefit case)",
              "mean 34.3 vs 33.7 us; percentile deltas within noise — no meaningful change");

  ApacheRun classic;
  RunServer(ForkMode::kClassic, requests, &classic);
  ApacheRun odf;
  RunServer(ForkMode::kOnDemand, requests, &odf);

  StatsSummary a = Summarize(classic.latency);
  StatsSummary b = Summarize(odf.latency);
  TablePrinter table({"Metric", "Fork (us)", "On-demand-fork (us)", "Difference"});
  table.AddRow({"Mean", TablePrinter::FormatDouble(a.mean, 1),
                TablePrinter::FormatDouble(b.mean, 1),
                TablePrinter::FormatPercent((b.mean - a.mean) / a.mean, 2)});
  table.AddRow({"Max", TablePrinter::FormatDouble(a.max, 1),
                TablePrinter::FormatDouble(b.max, 1),
                TablePrinter::FormatPercent((b.max - a.max) / a.max, 2)});
  table.Print();
  std::printf("\n");

  TablePrinter pct_table({"Percentile", "Fork (us)", "On-demand-fork (us)", "Difference"});
  const double kPercentiles[] = {50.0, 75.0, 90.0, 99.0};
  std::vector<double> classic_pct = Percentiles(classic.latency, kPercentiles);
  std::vector<double> odf_pct = Percentiles(odf.latency, kPercentiles);
  for (size_t i = 0; i < std::size(kPercentiles); ++i) {
    double pa = classic_pct[i];
    double pb = odf_pct[i];
    char label[16];
    std::snprintf(label, sizeof(label), ">=%.0f%%", kPercentiles[i]);
    pct_table.AddRow({label, TablePrinter::FormatDouble(pa, 1),
                      TablePrinter::FormatDouble(pb, 1),
                      TablePrinter::FormatPercent((pb - pa) / pa, 2)});
  }
  pct_table.Print();
  WriteBenchJson("tab06_07_apache", config, {{"request_latency", &table}, {"percentiles", &pct_table}});
  std::printf(
      "\nStartup worker forking: fork %.1f us vs ODF %.1f us (off the request path).\n"
      "Shape check: request-latency differences should be small and of mixed sign.\n",
      classic.startup_fork_us, odf.startup_fork_us);
}

}  // namespace
}  // namespace odf

int main() {
  odf::Run();
  return 0;
}
