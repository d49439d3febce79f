// Figure 2: classic fork execution time vs allocated memory size, sequential and with 3
// concurrent benchmark instances. Expected shape: time grows linearly with size; concurrent
// forks are slower per call (cache-line contention on page metadata; on a 1-core container
// the concurrent series additionally reflects time-slicing — see EXPERIMENTS.md).
#include <thread>

#include "bench/bench_common.h"
#include "src/util/mutex.h"

namespace odf {
namespace {

void Run() {
  BenchConfig config = BenchConfig::FromEnv();
  PrintHeader("Fig. 2 — fork time vs allocated memory",
              "fork latency grows linearly; >1ms already at ~176MB; concurrency degrades it");

  TablePrinter table({"Size (GB)", "Sequential avg (ms)", "Sequential min (ms)",
                      "Concurrent 3x avg (ms)", "Concurrent 3x min (ms)"});
  std::vector<std::string> split_columns = FirstVsSteadyColumns();
  split_columns.insert(split_columns.begin(), "Size (GB)");
  TablePrinter split(split_columns);
  // The sequential series runs enough forks for a steady state after the second fork.
  const int seq_forks = std::max(config.reps, kFirstVsSteadyForks);
  for (double gb : SizeSweepGb(config.max_gb)) {
    uint64_t bytes = GbToBytes(gb);

    // Sequential.
    Kernel kernel;
    Process& parent = MakePopulatedProcess(kernel, bytes);
    std::vector<uint64_t> minflt;
    std::vector<double> seq_ms =
        TimeForks(kernel, parent, ForkMode::kClassic, seq_forks, &minflt);
    StatsSummary seq = Summarize(seq_ms);
    std::vector<std::string> split_row = FirstVsSteady::Of(seq_ms, minflt).Cells(3);
    split_row.insert(split_row.begin(), TablePrinter::FormatDouble(gb, 1));
    split.AddRow(split_row);

    // Concurrent: 3 instances, each forking its own process (the paper's setup).
    RunningStats concurrent;
    {
      Kernel shared_kernel;
      Process* parents[3];
      for (auto*& p : parents) {
        p = &MakePopulatedProcess(shared_kernel, bytes);
      }
      std::vector<std::thread> threads;
      odf::util::Mutex merge_mutex;
      for (auto* p : parents) {
        threads.emplace_back([&, p] {
          std::vector<double> times =
              TimeForks(shared_kernel, *p, ForkMode::kClassic, config.reps);
          odf::util::MutexLock guard(merge_mutex);
          for (double t : times) {
            concurrent.Add(t);
          }
        });
      }
      for (auto& t : threads) {
        t.join();
      }
    }

    table.AddRow({TablePrinter::FormatDouble(gb, 1), TablePrinter::FormatDouble(seq.mean, 3),
                  TablePrinter::FormatDouble(seq.min, 3),
                  TablePrinter::FormatDouble(concurrent.mean(), 3),
                  TablePrinter::FormatDouble(concurrent.min(), 3)});
  }
  table.Print();
  std::printf("\nSequential series, first and second fork vs forks 3..n (host minor faults\n"
              "are first touches of simulator memory, mostly child page-table frames):\n");
  split.Print();
  WriteBenchJson("fig02_fork_scaling", config,
                 {{"fork_scaling", &table}, {"first_vs_steady", &split}});
}

}  // namespace
}  // namespace odf

int main() {
  odf::Run();
  return 0;
}
