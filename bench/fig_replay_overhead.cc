// Flight-recorder overhead (docs/replay.md): the Fig. 2 fork-latency sweep and the Fig. 9b
// single-thread COW fault loop, each run with the recorder idle (compiled in but off — the
// state every other bench runs in, indistinguishable from compiled-out within noise: one
// relaxed load + predicted branch per op), in black-box mode, in full mode, and in full
// mode with forced tracing. The acceptance bar is <3% on the fork median and the faults/s
// rate for the default (trace-off) recording modes; the `full+trace` row prices the
// annotated event stream, which is dominated by the tracepoints themselves, not the
// recorder. The compiled-out build (-DODF_REPLAY=OFF, ci/check.sh replay-off gate) removes
// even the idle cost, and does not build this bench.
#include <memory>

#include "bench/bench_common.h"
#include "src/replay/recorder.h"

namespace odf {
namespace {

const char* kModeNames[] = {"off", "blackbox", "full", "full+trace"};
constexpr int kModeCount = 4;

// Starts the recorder per `mode_index` (0 = idle). Black-box keeps the default 8 MiB
// budget: that is the configuration a long run would actually fly with.
void StartMode(int mode_index) {
  if (mode_index == 0) {
    return;
  }
  replay::RecorderOptions options;
  options.mode =
      mode_index == 1 ? replay::RecorderMode::kBlackBox : replay::RecorderMode::kFull;
  options.force_tracing = mode_index == 3;
  ODF_CHECK(replay::Recorder::Global().Start(options));
}

void StopMode(int mode_index) {
  if (mode_index != 0) {
    replay::Recorder::Global().Stop();
  }
}

// Per-mode state for the fork sweep: one kernel + populated parent, created up front
// (before any recording) so mode rows differ only in recorder configuration.
struct ForkRig {
  std::unique_ptr<Kernel> kernel;
  Process* parent = nullptr;
};

void Run() {
  BenchConfig config = BenchConfig::FromEnv();
  const uint64_t fork_bytes = GbToBytes(std::min(config.max_gb, 2.0));
  const uint64_t fault_bytes = config.fast ? (8ULL << 20) : (32ULL << 20);
  // Interleaved rounds: every mode is measured in every round, so clock drift, cache
  // state, and scheduler noise land on all rows alike instead of biasing whichever mode
  // ran last. Microsecond-scale forks need the sample count; the medians below are over
  // rounds * reps forks per mode.
  const int rounds = config.fast ? 8 : 16;
  const int forks_per_round = config.fast ? 12 : 25;
  const double fault_seconds_per_round = (config.fast ? 0.5 : std::max(config.seconds / 8.0, 1.0)) /
                                         static_cast<double>(rounds);

  PrintHeader("Flight-recorder overhead — fork latency and fault throughput",
              "recording the full op schedule costs <3% on the paper's headline numbers");
  std::printf("Fork sweep: %llu MiB, %d rounds x %d reps; fault loop: %llu MiB, %.2f s per mode\n\n",
              static_cast<unsigned long long>(fork_bytes >> 20), rounds, forks_per_round,
              static_cast<unsigned long long>(fault_bytes >> 20),
              fault_seconds_per_round * rounds);

  // --- Fork latency (Fig. 2 shape: on-demand fork of a populated 2 GB parent) ----------
  ForkRig rigs[kModeCount];
  for (ForkRig& rig : rigs) {
    rig.kernel = std::make_unique<Kernel>();
    rig.parent = &MakePopulatedProcess(*rig.kernel, fork_bytes);
  }
  std::vector<double> fork_times[kModeCount];
  for (int round = 0; round < rounds; ++round) {
    for (int mode = 0; mode < kModeCount; ++mode) {
      StartMode(mode);
      std::vector<double> times =
          TimeForks(*rigs[mode].kernel, *rigs[mode].parent, ForkMode::kOnDemand,
                    forks_per_round);
      StopMode(mode);
      fork_times[mode].insert(fork_times[mode].end(), times.begin(), times.end());
    }
  }
  for (ForkRig& rig : rigs) {
    rig.kernel.reset();
  }

  TablePrinter fork_table({"Recorder", "Fork median (ms)", "Overhead (%)"});
  double fork_base = Percentile(fork_times[0], 50.0);
  for (int mode = 0; mode < kModeCount; ++mode) {
    double median = Percentile(fork_times[mode], 50.0);
    fork_table.AddRow({kModeNames[mode], TablePrinter::FormatDouble(median, 4),
                       TablePrinter::FormatDouble((median / fork_base - 1.0) * 100.0, 2)});
  }

  // --- Fault throughput (Fig. 9b shape: single-thread post-fork COW faulting) ----------
  struct FaultAccum {
    uint64_t faults = 0;
    double seconds = 0;
  };
  FaultAccum accum[kModeCount];
  {
    Kernel kernel;
    Process& parent =
        MakePopulatedProcess(kernel, fault_bytes, /*huge=*/false, /*materialize=*/true);
    Vaddr va = FirstVmaStart(parent);
    const uint64_t pages = fault_bytes / kPageSize;
    for (int round = 0; round < rounds; ++round) {
      for (int mode = 0; mode < kModeCount; ++mode) {
        StartMode(mode);
        while (accum[mode].seconds < fault_seconds_per_round * (round + 1)) {
          Process& child = kernel.Fork(parent, ForkMode::kOnDemand);
          Stopwatch sw;
          ODF_CHECK(child.TouchRange(va, fault_bytes, AccessType::kWrite));
          accum[mode].seconds += sw.ElapsedSeconds();
          accum[mode].faults += pages;
          kernel.Exit(child, 0);
          kernel.Wait(parent);
        }
        StopMode(mode);
      }
    }
  }

  TablePrinter fault_table({"Recorder", "Faults/s", "Overhead (%)"});
  double fault_base = static_cast<double>(accum[0].faults) / accum[0].seconds;
  for (int mode = 0; mode < kModeCount; ++mode) {
    double rate = static_cast<double>(accum[mode].faults) / accum[mode].seconds;
    fault_table.AddRow({kModeNames[mode], TablePrinter::FormatDouble(rate, 0),
                        TablePrinter::FormatDouble((1.0 - rate / fault_base) * 100.0, 2)});
  }

  fork_table.Print();
  std::printf("\n");
  fault_table.Print();
  WriteBenchJson("fig_replay_overhead", config,
                 {{"fork_latency", &fork_table}, {"fault_throughput", &fault_table}});
}

}  // namespace
}  // namespace odf

int main() {
  odf::Run();
  return 0;
}
