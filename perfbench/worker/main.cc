// perfbench_worker: runs one workload in this process and writes its raw results for
// perfbench/run.py, which turns them into metrics.
//
//   perfbench_worker --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <prefix>
//
// Flow: set-up (timed), a warm-up phase whose samples are discarded, then the measured
// phase. With --trace 1 the measured time is split into an untraced phase and a traced one
// (spans on, ForkProfile passed to every fork; at most kMaxTracedSeconds), followed by a
// timed Kernel::ReclaimMemory probe; the two phases give the tracing overhead within one
// process.
//
// Outputs: <prefix>.json (provenance, per-phase counts, vmstat deltas, gauges) plus one
// little-endian u64 file per sample series (<prefix>.<phase>.<series>.u64, nanoseconds), one
// with each sample's steady-clock timestamp (<prefix>.<phase>.<series>.at.u64) and,
// when traced, <prefix>.spans.bin (SpanRecord array).
//
// Exit codes: 0 on success (output checks may still have failed: see the JSON), 2 on bad
// arguments, 3 when an end-to-end run is refused because the build or the runtime state
// would measure a different program.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "perfbench/worker/harness.h"
#include "src/debug/debug.h"
#include "src/fi/fault_inject.h"
#include "src/replay/recorder.h"
#include "src/trace/json.h"
#include "src/trace/metrics.h"
#include "src/trace/trace.h"

#ifndef ODF_FAULT_INJECT_COMPILED
#define ODF_FAULT_INJECT_COMPILED 0
#endif
#ifndef ODF_REPLAY_COMPILED
#define ODF_REPLAY_COMPILED 0
#endif
#ifndef ODF_MEMORY_FAILURE_COMPILED
#define ODF_MEMORY_FAILURE_COMPILED 0
#endif

namespace perfbench {
namespace {

// The traced phase records every span in memory (the fastest workloads make ~800k spans a
// second), so it is capped; the untraced phase gets the rest of the run.
constexpr double kMaxTracedSeconds = 2.0;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return false;
      }
      args->trace = value == "1";
    } else if (flag == "--out") {
      args->out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && !args->workload.empty() && !args->out.empty() &&
         args->seconds > 0 && args->seconds <= 600;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, const WorkloadOptions& options) {
  if (name == "classic_fork") return MakeClassicFork(options);
  if (name == "odf_fault_storm") return MakeOdfFaultStorm(options);
  if (name == "snapshot_server") return MakeSnapshotServer(options);
  if (name == "reclaim_pressure") return MakeReclaimPressure(options);
  return nullptr;
}

bool Sanitized() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return false;
#endif
}

// Why an end-to-end run must not report numbers from this build or runtime state ("" if ok).
std::string RefusalReason() {
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Debug") == 0) return "Debug build";
  if (Sanitized()) return "sanitizer build";
  if (odf::debug::Compiled()) return "ODF_DEBUG_VM build";
  if (odf::trace::Enabled()) return "odf::trace runtime tracing is on";
  if (odf::replay::RecordingActive()) return "replay recording is active";
  if (odf::fi::g_fi_armed.load()) return "fault injection is armed";
  return "";
}

uint64_t PeakRssKib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

using CounterMap = std::map<std::string, uint64_t>;

CounterMap SnapshotVm() {
  CounterMap counters;
  for (const auto& [name, value] : odf::MetricsRegistry::Global().SnapshotCounters()) {
    counters[name] = value;
  }
  return counters;
}

struct PhaseRecord {
  std::unique_ptr<Phase> phase;
  CounterMap vm_delta;
  std::array<uint64_t, kSeriesCount> stored{};  // Samples kept, all threads.
  std::array<uint64_t, kSeriesCount> seen{};    // Samples taken, all threads.
  // Samples kept per thread, in the order the series files hold them.
  std::array<std::vector<uint64_t>, kSeriesCount> per_thread;
};

void Append(std::ofstream& out, std::span<const uint64_t> values) {
  out.write(reinterpret_cast<const char*>(values.data()),
            static_cast<std::streamsize>(values.size_bytes()));
}

// Writes each series of the phase, every thread's samples in turn, to
// <prefix>.<phase>.<series>.u64 and their timestamps to <prefix>.<phase>.<series>.at.u64,
// before the next phase reuses the sample stores. Returns false when a write fails.
bool SaveSeries(const std::string& prefix, PhaseRecord& record) {
  const Phase& phase = *record.phase;
  bool ok = true;
  for (size_t s = 0; s < kSeriesCount; ++s) {
    const std::string base = prefix + "." + phase.name() + "." + kSeriesNames[s];
    std::ofstream values(base + ".u64", std::ios::binary);
    std::ofstream at(base + ".at.u64", std::ios::binary);
    for (size_t t = 0; t < phase.sink_count(); ++t) {
      const SeriesStore& series = phase.sink(t).series(static_cast<Series>(s));
      Append(values, series.values());
      Append(at, series.at());
      record.stored[s] += series.values().size();
      record.per_thread[s].push_back(series.values().size());
      record.seen[s] += series.seen();
    }
    ok = ok && values.flush() && at.flush();
  }
  return ok;
}

void WriteEnv(odf::JsonWriter& json, const Args& args, unsigned cpus, unsigned threads) {
  json.Key("env").BeginObject();
  json.Key("build_type").Value(PERFBENCH_BUILD_TYPE);
  json.Key("compiler").Value(PERFBENCH_COMPILER);
  json.Key("nproc").Value(std::thread::hardware_concurrency());
  json.Key("cpus_allowed").Value(cpus);
  json.Key("threads").Value(threads);
  json.Key("seed").Value(args.seed);
  json.Key("compile_options").BeginObject();
  json.Key("ODF_TRACE").Value(ODF_TRACE_COMPILED != 0);
  json.Key("ODF_REPLAY").Value(ODF_REPLAY_COMPILED != 0);
  json.Key("ODF_FAULT_INJECT").Value(ODF_FAULT_INJECT_COMPILED != 0);
  json.Key("ODF_DEBUG_VM").Value(odf::debug::Compiled());
  json.Key("ODF_MEMORY_FAILURE").Value(ODF_MEMORY_FAILURE_COMPILED != 0);
  json.Key("sanitized").Value(Sanitized());
  json.EndObject();
  json.Key("runtime").BeginObject();
  json.Key("odf_trace").Value(odf::trace::Enabled());
  json.Key("replay_recording").Value(odf::replay::RecordingActive());
  json.Key("fault_injection_armed").Value(odf::fi::g_fi_armed.load());
  json.EndObject();
  json.EndObject();
}

void WritePhase(odf::JsonWriter& json, const std::string& prefix, const PhaseRecord& record) {
  const Phase& phase = *record.phase;
  json.BeginObject();
  json.Key("name").Value(phase.name());
  json.Key("traced").Value(phase.traced());
  json.Key("wall_s").Value(static_cast<double>(phase.end_ns() - phase.start_ns()) * 1e-9);
  json.Key("start_ns").Value(phase.start_ns());
  json.Key("end_ns").Value(phase.end_ns());
  uint64_t attempted = 0, failed = 0, ops = 0, writes = 0;
  std::map<std::string, uint64_t> check_failures;
  ForkProfileSums profile;
  std::vector<SpanRecord> spans;
  for (size_t t = 0; t < phase.sink_count(); ++t) {
    const ThreadSink& sink = phase.sink(t);
    attempted += sink.attempted();
    failed += sink.failed();
    ops += sink.ops();
    writes += sink.writes();
    for (const auto& [name, count] : sink.check_failures()) {
      check_failures[name] += count;
    }
    spans.insert(spans.end(), sink.spans().begin(), sink.spans().end());
    profile.Add(sink.fork_profile().ns, sink.fork_profile().forks);
  }
  json.Key("threads").Value(static_cast<uint64_t>(phase.sink_count()));
  json.Key("attempted").Value(attempted);
  json.Key("failed").Value(failed);
  json.Key("ops").Value(ops);
  json.Key("writes").Value(writes);
  json.Key("check_failures").BeginObject();
  for (const auto& [name, count] : check_failures) {
    json.Key(name).Value(count);
  }
  json.EndObject();
  json.Key("series").BeginObject();
  for (size_t s = 0; s < kSeriesCount; ++s) {
    json.Key(kSeriesNames[s]).Value(record.stored[s]);
  }
  json.EndObject();
  json.Key("series_threads").BeginObject();
  for (size_t s = 0; s < kSeriesCount; ++s) {
    json.Key(kSeriesNames[s]).BeginArray();
    for (uint64_t count : record.per_thread[s]) {
      json.Value(count);
    }
    json.EndArray();
  }
  json.EndObject();
  json.Key("series_seen").BeginObject();
  for (size_t s = 0; s < kSeriesCount; ++s) {
    json.Key(kSeriesNames[s]).Value(record.seen[s]);
  }
  json.EndObject();
  json.Key("scalars").BeginObject();
  for (const auto& [name, value] : phase.scalars()) {
    json.Key(name).Value(value);
  }
  json.EndObject();
  json.Key("vm").BeginObject();
  for (const auto& [name, value] : record.vm_delta) {
    json.Key(name).Value(value);
  }
  json.EndObject();
  if (phase.traced()) {
    json.Key("fork_profile").BeginObject();
    json.Key("forks").Value(profile.forks);
    json.Key("upper_level_ns").Value(profile.ns.upper_level_ns);
    json.Key("meta_resolve_ns").Value(profile.ns.meta_resolve_ns);
    json.Key("refcount_ns").Value(profile.ns.refcount_ns);
    json.Key("entry_copy_ns").Value(profile.ns.entry_copy_ns);
    json.Key("table_alloc_ns").Value(profile.ns.table_alloc_ns);
    json.Key("total_ns").Value(profile.ns.total_ns);
    json.EndObject();
    std::ofstream out(prefix + ".spans.bin", std::ios::binary);
    out.write(reinterpret_cast<const char*>(spans.data()),
              static_cast<std::streamsize>(spans.size() * sizeof(SpanRecord)));
    json.Key("spans").Value(static_cast<uint64_t>(spans.size()));
  }
  json.EndObject();
}

PhaseRecord RunPhase(Workload& workload, std::vector<SampleStore>& stores,
                     const std::string& name, double seconds, bool traced) {
  PhaseRecord record;
  record.phase = std::make_unique<Phase>(name, seconds, traced, stores);
  CounterMap before = SnapshotVm();
  workload.Run(*record.phase);
  CounterMap after = SnapshotVm();
  for (const auto& [counter, value] : after) {
    record.vm_delta[counter] = value - before[counter];
  }
  return record;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_worker --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --out <prefix>\n");
    return 2;
  }
  if (!args.trace) {
    std::string reason = RefusalReason();
    if (!reason.empty()) {
      std::fprintf(stderr, "perfbench_worker: refusing an end-to-end run: %s\n", reason.c_str());
      return 3;
    }
  }
  WorkloadOptions options;
  options.seed = args.seed;
  options.cpus = AvailableCpus();
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, options);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench_worker: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  // Made before set-up, so the samples' memory is resident at the same size throughout.
  std::vector<SampleStore> stores(workload->threads());

  int64_t setup_start = NowNs();
  workload->Setup();
  const double setup_s = static_cast<double>(NowNs() - setup_start) * 1e-9;

  // Warm-up: its samples are discarded.
  RunPhase(*workload, stores, "warmup", std::max(0.2, 0.1 * args.seconds), false);
  std::vector<PhaseRecord> phases;
  double lock_wait_p99_us = 0;
  uint64_t lock_wait_count = 0;
  bool saved = true;
  if (args.trace) {
    const double traced_s = std::min(args.seconds / 2, kMaxTracedSeconds);
    phases.push_back(RunPhase(*workload, stores, "untraced", args.seconds - traced_s, false));
    saved = SaveSeries(args.out, phases.back()) && saved;
    odf::LatencyHistogram& lock_wait =
        odf::MetricsRegistry::Global().RegisterHistogram("mm_lock_wait");
    lock_wait.Reset();
    phases.push_back(RunPhase(*workload, stores, "traced", traced_s, true));
    lock_wait_count = lock_wait.TotalCount();
    lock_wait_p99_us = lock_wait.PercentileMicros(99);
  } else {
    phases.push_back(RunPhase(*workload, stores, "measured", args.seconds, false));
  }
  saved = SaveSeries(args.out, phases.back()) && saved;
  odf::Kernel& kernel = workload->kernel();
  const odf::FrameAllocatorStats alloc_stats = kernel.allocator().Stats();
  const uint64_t rmap_locations = kernel.rmap().TotalLocations();
  const uint64_t lru_pages = kernel.lru().Size();
  double probe_ms = 0;
  if (args.trace) {
    // Direct-reclaim probe: one explicit ReclaimMemory call against the workload's final
    // state, timed on its own.
    int64_t start = NowNs();
    kernel.ReclaimMemory(64);
    probe_ms = static_cast<double>(NowNs() - start) * 1e-6;
  }
  const unsigned threads = workload->threads();
  const double populate_s = workload->populate_seconds();
  const bool all_free = workload->Teardown();
  workload.reset();
  const uint64_t peak_rss_kib = PeakRssKib();

  std::ofstream out(args.out + ".json");
  odf::JsonWriter json(out);
  json.BeginObject();
  json.Key("workload").Value(args.workload);
  json.Key("seed").Value(args.seed);
  json.Key("seconds").Value(args.seconds);
  json.Key("trace").Value(args.trace);
  WriteEnv(json, args, options.cpus, threads);
  json.Key("setup_s").Value(setup_s);
  json.Key("populate_s").Value(populate_s);
  json.Key("peak_rss_kib").Value(peak_rss_kib);
  json.Key("all_free_after_teardown").Value(all_free);
  json.Key("gauges").BeginObject();
  json.Key("rmap_locations").Value(rmap_locations);
  json.Key("lru_pages").Value(lru_pages);
  json.Key("page_table_frames").Value(alloc_stats.page_table_frames);
  json.Key("materialized_bytes").Value(alloc_stats.materialized_bytes);
  json.Key("mm_lock_wait_p99_us").Value(lock_wait_p99_us);
  json.Key("mm_lock_wait_count").Value(lock_wait_count);
  json.Key("direct_reclaim_probe_ms").Value(probe_ms);
  json.EndObject();
  json.Key("span_names").BeginArray();
  for (const char* name : kSpanNames) {
    json.Value(name);
  }
  json.EndArray();
  json.Key("phases").BeginArray();
  for (const PhaseRecord& record : phases) {
    WritePhase(json, args.out, record);
  }
  json.EndArray();
  json.EndObject();
  out << "\n";
  if (!out || !saved) {
    std::fprintf(stderr, "perfbench_worker: cannot write the results under %s\n",
                 args.out.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
