// Tables 4 & 5: Redis-style snapshotting under load.
//
// Table 4 — client request latency percentiles while the store periodically snapshots
// (snapshot every 10000 changed keys). Paper: p50 barely changes, tail collapses (p99.99:
// 16.255 ms -> 5.535 ms, -65.95%) because requests no longer queue behind a long fork.
//
// Table 5 — the time the server is blocked in fork per snapshot. Paper: 7.40 ms -> 0.12 ms
// (-98.38%), with a much smaller standard deviation.
//
// Like real Redis, the child does the serialization; the parent is only blocked for the
// fork call. On this 1-core simulator the child's I/O is run off the latency clock to model
// the parallelism (see EXPERIMENTS.md).
#include "bench/bench_common.h"
#include "src/apps/kvstore.h"

namespace odf {
namespace {

struct RedisRun {
  std::vector<double> latency;       // Per-request latency (us).
  RunningStats fork_ms;              // Per-snapshot fork blocking time.
  uint64_t requests = 0;
  uint64_t snapshots = 0;
};

void RunWorkload(ForkMode mode, uint64_t keys, uint64_t value_size, double seconds,
                 RedisRun* out) {
  Kernel kernel;
  Process& server = kernel.CreateProcess();
  uint64_t heap = keys * (value_size + 128) + (512ULL << 20);
  KvStore store = KvStore::Create(kernel, server, heap);
  Rng rng(3);
  store.FillSequential(keys, value_size, rng);

  const uint64_t kSnapshotEvery = 10000;  // Redis default: 10000 changed keys.
  uint64_t changed_since_snapshot = 0;
  std::string value(value_size, 'v');

  Stopwatch run_timer;
  while (run_timer.ElapsedSeconds() < seconds) {
    uint64_t key_index = rng.NextBelow(keys);
    std::string key = "key:" + std::to_string(key_index);
    Stopwatch op_timer;
    if (rng.NextBool(0.5)) {
      value[0] = static_cast<char>(rng.Next());
      store.Set(key, value);
      ++changed_since_snapshot;
    } else {
      store.Get(key);
    }
    bool snapshot_now = changed_since_snapshot >= kSnapshotEvery;
    if (snapshot_now) {
      // The server blocks in fork; the request that triggered the snapshot eats the cost.
      Stopwatch fork_timer;
      Process& child = kernel.Fork(server, mode);
      double blocked_ms = fork_timer.ElapsedMillis();
      out->fork_ms.Add(blocked_ms);
      out->latency.push_back(op_timer.ElapsedMicros());
      ++out->snapshots;
      changed_since_snapshot = 0;
      // Child-side serialization happens "in parallel" in real Redis: off the clock here.
      KvStore view = KvStore::Attach(kernel, child, store.meta_base());
      view.SaveSnapshot("/dump.rdb");
      kernel.Exit(child, 0);
      kernel.Wait(server);
    } else {
      out->latency.push_back(op_timer.ElapsedMicros());
    }
    ++out->requests;
  }
}

void Run() {
  BenchConfig config = BenchConfig::FromEnv();
  uint64_t keys = config.fast ? 50000 : 500000;
  uint64_t value_size = 1024;  // ~0.5-1 GB dataset at the default key count.
  if (const char* v = std::getenv("ODF_BENCH_TAB04_KEYS")) {
    keys = static_cast<uint64_t>(std::atoll(v));
  }
  PrintHeader("Tables 4 & 5 — Redis-style snapshot-under-load latency",
              "tail latency: p99.99 -65.95%; fork blocking time: 7.40 ms -> 0.12 ms");
  std::printf("Dataset: %llu keys x %llu B values; snapshot every 10000 changed keys\n\n",
              static_cast<unsigned long long>(keys),
              static_cast<unsigned long long>(value_size));

  RedisRun classic;
  RunWorkload(ForkMode::kClassic, keys, value_size, config.seconds, &classic);
  RedisRun odf;
  RunWorkload(ForkMode::kOnDemand, keys, value_size, config.seconds, &odf);

  TablePrinter table({"Percentile", "Fork (us)", "On-demand-fork (us)", "Reduction"});
  // The percentile ladder the paper reports for Redis.
  const double kPaperPercentiles[] = {50.0, 90.0, 95.0, 99.0, 99.9, 99.99};
  std::vector<double> classic_pct = Percentiles(classic.latency, kPaperPercentiles);
  std::vector<double> odf_pct = Percentiles(odf.latency, kPaperPercentiles);
  for (size_t i = 0; i < std::size(kPaperPercentiles); ++i) {
    double a = classic_pct[i];
    double b = odf_pct[i];
    char label[32];
    std::snprintf(label, sizeof(label), ">=%.4g%%", kPaperPercentiles[i]);
    table.AddRow({label, TablePrinter::FormatDouble(a, 1), TablePrinter::FormatDouble(b, 1),
                  TablePrinter::FormatPercent((a - b) / a, 2)});
  }
  double max_a = Summarize(classic.latency).max;
  double max_b = Summarize(odf.latency).max;
  table.AddRow({"max", TablePrinter::FormatDouble(max_a, 1),
                TablePrinter::FormatDouble(max_b, 1),
                TablePrinter::FormatPercent((max_a - max_b) / max_a, 2)});
  table.Print();
  std::printf("(requests: fork=%llu, odf=%llu; snapshots: %llu / %llu)\n\n",
              static_cast<unsigned long long>(classic.requests),
              static_cast<unsigned long long>(odf.requests),
              static_cast<unsigned long long>(classic.snapshots),
              static_cast<unsigned long long>(odf.snapshots));

  TablePrinter fork_table({"Type", "Fork (ms)", "On-demand-fork (ms)", "Reduction"});
  fork_table.AddRow({"Mean", TablePrinter::FormatDouble(classic.fork_ms.mean(), 3),
                     TablePrinter::FormatDouble(odf.fork_ms.mean(), 3),
                     TablePrinter::FormatPercent(
                         (classic.fork_ms.mean() - odf.fork_ms.mean()) / classic.fork_ms.mean(),
                         2)});
  fork_table.AddRow({"Std. Dev.", TablePrinter::FormatDouble(classic.fork_ms.stddev(), 3),
                     TablePrinter::FormatDouble(odf.fork_ms.stddev(), 3), "-"});
  fork_table.Print();
  WriteBenchJson("tab04_05_redis", config, {{"request_latency", &table}, {"fork_blocking", &fork_table}});
}

}  // namespace
}  // namespace odf

int main() {
  odf::Run();
  return 0;
}
