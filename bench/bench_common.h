// Shared configuration and helpers for the paper-reproduction benchmark binaries.
//
// Environment knobs (all optional):
//   ODF_BENCH_MAX_GB    largest simulated mapping in the Fig. 2/4/7 sweeps (default 8; the
//                       paper goes to 50 — set 50 to match, given ~4 GB of RAM headroom)
//   ODF_BENCH_REPS      repetitions per data point (default 5, like the paper)
//   ODF_BENCH_SECONDS   duration of throughput benchmarks (default 10)
//   ODF_BENCH_FAST      set to 1 for a quick smoke run (small sizes, 1 rep)
//   ODF_BENCH_JSON      set to 0 to suppress the BENCH_<name>.json sidecar
//   ODF_BENCH_JSON_DIR  directory for BENCH_<name>.json (default: current directory)
#ifndef ODF_BENCH_BENCH_COMMON_H_
#define ODF_BENCH_BENCH_COMMON_H_

#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "src/proc/kernel.h"
#include "src/trace/json.h"
#include "src/trace/metrics.h"
#include "src/trace/trace.h"
#include "src/util/host_memory.h"
#include "src/util/log.h"
#include "src/util/stats.h"
#include "src/util/stopwatch.h"
#include "src/util/table_printer.h"

namespace odf {

struct BenchConfig {
  double max_gb = 8.0;
  int reps = 5;
  double seconds = 10.0;
  bool fast = false;

  static BenchConfig FromEnv() {
    BenchConfig config;
    if (const char* v = std::getenv("ODF_BENCH_MAX_GB")) {
      config.max_gb = std::atof(v);
    }
    if (const char* v = std::getenv("ODF_BENCH_REPS")) {
      config.reps = std::atoi(v);
    }
    if (const char* v = std::getenv("ODF_BENCH_SECONDS")) {
      config.seconds = std::atof(v);
    }
    if (const char* v = std::getenv("ODF_BENCH_FAST")) {
      if (std::atoi(v) != 0) {
        config.fast = true;
        config.max_gb = std::min(config.max_gb, 2.0);
        config.reps = 1;
        config.seconds = std::min(config.seconds, 2.0);
      }
    }
    return config;
  }
};

// The paper's x-axis: 0.5, 1, 2, 4, ... GB up to max_gb (log-scale sweep; the paper samples
// every 512 MB but plots on a log axis — the doubling sweep reproduces the plotted points).
inline std::vector<double> SizeSweepGb(double max_gb) {
  std::vector<double> sizes;
  double gb = 0.5;
  for (; gb <= max_gb + 1e-9; gb *= 2) {
    sizes.push_back(gb);
  }
  // Include the ceiling itself when the doubling ladder skips it (e.g. max 50 -> ..., 32, 50).
  if (!sizes.empty() && sizes.back() < max_gb - 1e-9) {
    sizes.push_back(max_gb);
  }
  return sizes;
}

inline uint64_t GbToBytes(double gb) {
  return static_cast<uint64_t>(gb * 1024.0 * 1024.0 * 1024.0);
}

// Creates a process with `bytes` of populated private anonymous memory (every page mapped;
// data materialised only if `materialize`).
inline Process& MakePopulatedProcess(Kernel& kernel, uint64_t bytes, bool huge = false,
                                     bool materialize = false) {
  Process& p = kernel.CreateProcess();
  Vaddr va = p.Mmap(bytes, kProtRead | kProtWrite, huge);
  p.address_space().PopulateRange(va, bytes);
  if (materialize) {
    ODF_CHECK(p.MemsetMemory(va, std::byte{0x5a}, bytes));
  }
  return p;
}

inline Vaddr FirstVmaStart(Process& p) {
  return p.address_space().vmas().begin()->second.start;
}

// Host minor faults the calling thread has taken so far (getrusage RUSAGE_THREAD). Each one
// is the host mapping in a page of simulator memory on its first touch — for a fork, the
// frames of page tables it builds in chunks no fork touched before. The paper's kernel
// takes those pages from the already-mapped direct map, so this is a cost of the
// substitution, recorded beside the fork times rather than hidden in them.
inline uint64_t HostMinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_THREAD, &usage);
  return static_cast<uint64_t>(usage.ru_minflt);
}

// Times `reps` forks of `parent` (child exits immediately, as in the paper's Fig. 1 loop);
// returns per-fork milliseconds. With `host_minflt`, also appends each fork's host minor
// faults (HostMinorFaults delta across the fork alone).
inline std::vector<double> TimeForks(Kernel& kernel, Process& parent, ForkMode mode, int reps,
                                     std::vector<uint64_t>* host_minflt = nullptr) {
  std::vector<double> times_ms;
  times_ms.reserve(static_cast<size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    uint64_t minflt_before = HostMinorFaults();
    Stopwatch sw;
    Process& child = kernel.Fork(parent, mode);
    times_ms.push_back(sw.ElapsedMillis());
    if (host_minflt != nullptr) {
      host_minflt->push_back(HostMinorFaults() - minflt_before);
    }
    kernel.Exit(child, 0);
    kernel.Wait(parent);
  }
  return times_ms;
}

// A fork series read the way the host sees it: the first fork of a parent, which builds
// page tables in never-touched simulator memory; the second, which still takes a one-time
// batch of host minor faults (22-26 at 0.5-2 GiB in fast mode on a 4-vCPU Xeon, where
// forks 3..n take none); and the steady state of forks 3..n (means). Benches that report
// it run at least kFirstVsSteadyForks forks.
inline constexpr int kFirstVsSteadyForks = 3;

struct FirstVsSteady {
  double first_ms = 0;
  double second_ms = 0;
  double steady_ms = 0;
  uint64_t first_minflt = 0;
  uint64_t second_minflt = 0;
  double steady_minflt = 0;

  static FirstVsSteady Of(const std::vector<double>& ms, const std::vector<uint64_t>& minflt) {
    ODF_CHECK(ms.size() >= kFirstVsSteadyForks && minflt.size() == ms.size());
    FirstVsSteady split;
    split.first_ms = ms[0];
    split.first_minflt = minflt[0];
    split.second_ms = ms[1];
    split.second_minflt = minflt[1];
    for (size_t i = 2; i < ms.size(); ++i) {
      split.steady_ms += ms[i];
      split.steady_minflt += static_cast<double>(minflt[i]);
    }
    split.steady_ms /= static_cast<double>(ms.size() - 2);
    split.steady_minflt /= static_cast<double>(ms.size() - 2);
    return split;
  }

  // The six cells, in the column order of FirstVsSteadyColumns.
  std::vector<std::string> Cells(int ms_digits) const {
    return {TablePrinter::FormatDouble(first_ms, ms_digits),
            TablePrinter::FormatDouble(second_ms, ms_digits),
            TablePrinter::FormatDouble(steady_ms, ms_digits),
            std::to_string(first_minflt),
            std::to_string(second_minflt),
            TablePrinter::FormatDouble(steady_minflt, 1)};
  }
};

inline std::vector<std::string> FirstVsSteadyColumns() {
  return {"First fork (ms)",        "Second fork (ms)",       "Steady fork (ms)",
          "First fork host minflt", "Second fork host minflt", "Steady host minflt/fork"};
}

inline void PrintHeader(const std::string& title, const std::string& paper_ref) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("Reproduces: %s\n\n", paper_ref.c_str());
}

// One table of a benchmark's output, as (section name, printed table) for the JSON sidecar.
struct BenchSection {
  std::string name;
  const TablePrinter* table;
};

namespace bench_internal {

// Emits a table cell as a JSON number when the whole cell parses as one ("3.14", "42"),
// otherwise as a string ("on-demand-fork", "1.2 GB"). Keeps the sidecar directly loadable
// into analysis tools without per-bench schemas.
inline void WriteCell(JsonWriter& json, const std::string& cell) {
  if (!cell.empty()) {
    char* end = nullptr;
    double value = std::strtod(cell.c_str(), &end);
    if (end == cell.c_str() + cell.size()) {
      json.Value(value);
      return;
    }
  }
  json.Value(cell);
}

}  // namespace bench_internal

// Writes BENCH_<name>.json next to the benchmark (schema: docs/observability.md). Every
// fig*/tab*/abl* binary calls this after printing its tables so the bench harness can
// consume results without scraping stdout. Honors ODF_BENCH_JSON / ODF_BENCH_JSON_DIR.
inline void WriteBenchJson(const std::string& name, const BenchConfig& config,
                           const std::vector<BenchSection>& sections) {
  if (const char* v = std::getenv("ODF_BENCH_JSON")) {
    if (std::atoi(v) == 0) {
      return;
    }
  }
  std::string path = "BENCH_" + name + ".json";
  if (const char* dir = std::getenv("ODF_BENCH_JSON_DIR")) {
    path = std::string(dir) + "/" + path;
  }
  std::ofstream out(path);
  if (!out) {
    ODF_LOG(kWarn) << "cannot write " << path;
    return;
  }
  JsonWriter json(out);
  json.BeginObject();
  json.Key("schema_version").Value(1);
  json.Key("bench").Value(name);
  json.Key("config").BeginObject();
  json.Key("max_gb").Value(config.max_gb);
  json.Key("reps").Value(config.reps);
  json.Key("seconds").Value(config.seconds);
  json.Key("fast").Value(config.fast);
  json.EndObject();
  // How the host backed simulated RAM: its THP mode (frame data is advised MADV_HUGEPAGE,
  // which takes effect only under `always` or `madvise`) and this process's huge-page and
  // total resident memory at exit. A run on a host without THP reads anon_huge_pages_kb 0.
  json.Key("host").BeginObject();
  json.Key("thp_enabled").Value(HostThpMode());
  json.Key("anon_huge_pages_kb").Value(SelfSmapsRollupKb("AnonHugePages"));
  json.Key("rss_kb").Value(SelfSmapsRollupKb("Rss"));
  json.EndObject();
  json.Key("sections").BeginArray();
  for (const BenchSection& section : sections) {
    json.BeginObject();
    json.Key("name").Value(section.name);
    json.Key("columns").BeginArray();
    for (const std::string& header : section.table->headers()) {
      json.Value(header);
    }
    json.EndArray();
    json.Key("rows").BeginArray();
    for (const auto& row : section.table->rows()) {
      json.BeginArray();
      for (const std::string& cell : row) {
        bench_internal::WriteCell(json, cell);
      }
      json.EndArray();
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();
  // Counter snapshot at exit: lets the harness correlate bench results with kernel-wide
  // activity (e.g. COW fault volume behind a latency series) without a second run.
  json.Key("vmstat").BeginObject();
  for (const auto& [counter, value] : MetricsRegistry::Global().SnapshotCounters()) {
    json.Key(counter).Value(value);
  }
  json.EndObject();
  // Registered latency histograms (mm_lock_wait et al.): contention summaries so a bench
  // result can be read next to how hard the MM locks were fought over while it ran.
  json.Key("histograms").BeginObject();
  for (const auto& [hist_name, histogram] : MetricsRegistry::Global().Histograms()) {
    json.Key(hist_name).BeginObject();
    json.Key("count").Value(histogram->TotalCount());
    json.Key("p50_us").Value(histogram->PercentileMicros(50));
    json.Key("p99_us").Value(histogram->PercentileMicros(99));
    json.Key("mean_us").Value(histogram->MeanMicros());
    json.EndObject();
  }
  json.EndObject();
  // Per-ring append/overwrite accounting: a wrapped trace ring silently loses events, so
  // any trace-derived number in the sections above must be read next to these counts.
  json.Key("trace_rings").BeginArray();
  for (const auto& ring : trace::Tracer::Global().CollectRingStats()) {
    json.BeginObject();
    json.Key("tid").Value(static_cast<uint64_t>(ring.tid));
    json.Key("appended").Value(ring.appended);
    json.Key("overwritten").Value(ring.overwritten);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  out << "\n";
  std::printf("[bench] wrote %s\n", path.c_str());
}

}  // namespace odf

#endif  // ODF_BENCH_BENCH_COMMON_H_
