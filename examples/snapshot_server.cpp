// Example: a Redis-style in-memory store that snapshots itself with fork while serving
// traffic — the paper's §5.3.3 scenario as a library user would write it.
//
//   ./build/examples/snapshot_server [keys] [seconds]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/apps/kvstore.h"
#include "src/util/stats.h"
#include "src/util/stopwatch.h"

int main(int argc, char** argv) {
  uint64_t keys = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 100000;
  double seconds = argc > 2 ? std::atof(argv[2]) : 5.0;

  odf::Kernel kernel;
  odf::Process& server = kernel.CreateProcess();
  // Opt the server into on-demand-fork via the per-process config (the procfs knob):
  // the application code below never mentions the fork mechanism again.
  server.set_fork_mode(odf::ForkMode::kOnDemand);

  odf::KvStore store = odf::KvStore::Create(kernel, server, keys * 1200 + (256ULL << 20));
  odf::Rng rng(1);
  std::printf("loading %llu keys...\n", (unsigned long long)keys);
  store.FillSequential(keys, 1024, rng);
  std::printf("dataset: %llu keys, %llu MB in-heap\n", (unsigned long long)store.Count(),
              (unsigned long long)(store.Stats().bytes_in_heap >> 20));

  std::vector<double> latency;  // Per-request latency (us).
  odf::RunningStats fork_block_ms;
  uint64_t writes_since_snapshot = 0;
  uint64_t snapshots = 0;
  std::string value(1024, 'v');

  odf::Stopwatch run;
  uint64_t ops = 0;
  while (run.ElapsedSeconds() < seconds) {
    odf::Stopwatch op;
    std::string key = "key:" + std::to_string(rng.NextBelow(keys));
    if (rng.NextBool()) {
      value[0] = static_cast<char>(rng.Next());
      store.Set(key, value);
      ++writes_since_snapshot;
    } else {
      store.Get(key);
    }
    latency.push_back(op.ElapsedMicros());
    ++ops;

    if (writes_since_snapshot >= 10000) {  // Redis default save threshold.
      writes_since_snapshot = 0;
      double blocked = store.SnapshotWithFork("/dump.rdb", server.fork_mode());
      fork_block_ms.Add(blocked / 1000.0);
      ++snapshots;
    }
  }

  std::printf("\n%llu ops in %.1f s (%.0f ops/s), %llu snapshots\n",
              (unsigned long long)ops, run.ElapsedSeconds(),
              static_cast<double>(ops) / run.ElapsedSeconds(),
              (unsigned long long)snapshots);
  const double kLadder[] = {50, 99, 99.99};
  std::vector<double> pct = odf::Percentiles(latency, kLadder);
  std::printf("request latency: p50=%.1fus p99=%.1fus p99.99=%.1fus max=%.1fus\n", pct[0],
              pct[1], pct[2], odf::Summarize(latency).max);
  if (snapshots > 0) {
    std::printf("fork blocking per snapshot: mean %.3f ms (stddev %.3f)\n",
                fork_block_ms.mean(), fork_block_ms.stddev());
  }
  auto dump = kernel.fs().Lookup("/dump.rdb");
  if (dump != nullptr) {
    std::printf("last snapshot: %llu MB on \"disk\"\n",
                (unsigned long long)(dump->size() >> 20));
  }
  return 0;
}
