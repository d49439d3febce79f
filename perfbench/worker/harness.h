// Shared machinery for the perfbench worker: per-thread sinks that collect timed samples,
// operation counts, output-check failures and (in the traced phase) spans; thin wrappers that
// time each public library call the workloads make; and the Workload interface the phase runner in
// main.cc runs through its phases.
//
// Spans are recorded only from this benchmark's own code, around calls into the library, so
// a traced and an untraced phase run the same library code. A span's layer is the prefix of
// its name before the first '.', which names the repository module the call enters.
#ifndef ODF_PERFBENCH_WORKER_HARNESS_H_
#define ODF_PERFBENCH_WORKER_HARNESS_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/core/fork.h"
#include "src/proc/kernel.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Span names. The order is the id written to the spans file; kSpanNames gives the text.
enum SpanName : uint16_t {
  kBenchRound,    // One round of a closed loop, or one scheduled request: a root span.
  kIdleWait,      // Open-loop waiting for the next due time, or a worker waiting for work.
  kBenchVerify,   // Output checks that are not themselves library calls.
  kBenchRef,      // One host-speed reference unit (HostRef): a root span.
  kProcFork,      // Kernel::TryFork.
  kCoreCopy,      // The fork's CopyAddressSpace (ForkProfile::total_ns), inside kProcFork.
  kProcExit,      // Kernel::Exit.
  kProcWait,      // Kernel::Wait.
  kMmWrite,       // Process::WriteMemory.
  kMmRead,        // Process::ReadMemory.
  kMmTouch,       // Process::TouchRange.
  kAppsSet,       // KvStore::Set.
  kAppsGet,       // KvStore::Get.
  kAppsSave,      // KvStore::SaveSnapshot.
  kSpanNameCount,
};

inline constexpr std::array<const char*, kSpanNameCount> kSpanNames = {
    "bench.round", "idle.wait", "bench.verify", "bench.ref", "proc.fork",
    "core.copy",   "proc.exit", "proc.wait",    "mm.write",  "mm.read",
    "mm.touch",    "apps.set",  "apps.get",     "apps.save",
};

// Timed sample series (nanoseconds per call).
enum Series : uint16_t {
  kFork,      // TryFork call.
  kExit,      // Exit call.
  kWait,      // Wait call.
  kOp,        // The workload's unit operation (see each workload).
  kSnapshot,  // SaveSnapshot call.
  kSet,       // KvStore::Set service time.
  kGet,       // KvStore::Get service time.
  kQueue,     // Open loop: due time -> service start.
  kRef,       // One HostRef unit, run by the same thread between its operations.
  kSeriesCount,
};

inline constexpr std::array<const char*, kSeriesCount> kSeriesNames = {
    "fork", "exit", "wait", "op", "snapshot", "set", "get", "queue", "ref",
};

struct SpanRecord {
  uint16_t name = 0;
  uint16_t thread = 0;
  int32_t parent = -1;  // Index into the same thread's span list; -1 for a root.
  uint64_t round = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// Sums of ForkProfile phase times over the traced phase's forks.
struct ForkProfileSums {
  uint64_t forks = 0;
  odf::ForkProfile ns;  // Only the *_ns fields are summed.

  // Adds `profile`, itself the sum over `forks` forks.
  void Add(const odf::ForkProfile& profile, uint64_t count = 1);
};

// One series of one load thread, in a fixed-capacity store. Its buffers are allocated and
// written when the store is made, before the workload's set-up, and never grow, so the
// samples add the same resident memory to peak_rss_mb at every sample rate. A full store
// keeps every other sample and from then on records every second call (then every fourth,
// and so on), so the kept samples stay evenly spread over the phase; seen() counts calls.
class SeriesStore {
 public:
  static constexpr size_t kCapacity = size_t{1} << 16;

  SeriesStore() : values_(kCapacity, ~uint64_t{0}), at_(kCapacity, ~uint64_t{0}) {}

  void Clear() {
    size_ = 0;
    seen_ = 0;
    stride_ = 1;
  }
  // Records `value` and the time it was taken (steady clock), which places it in a
  // measurement window.
  void Add(uint64_t value) {
    if (++seen_ % stride_ != 0) {
      return;
    }
    if (size_ == kCapacity) {
      // Stored sample i is call (i + 1) * stride; keep the calls that are multiples of
      // 2 * stride, the odd i.
      for (size_t i = 1; i < size_; i += 2) {
        values_[i / 2] = values_[i];
        at_[i / 2] = at_[i];
      }
      size_ /= 2;
      stride_ *= 2;
      if (seen_ % stride_ != 0) {
        return;
      }
    }
    values_[size_] = value;
    at_[size_] = static_cast<uint64_t>(NowNs());
    ++size_;
  }

  std::span<const uint64_t> values() const { return {values_.data(), size_}; }
  std::span<const uint64_t> at() const { return {at_.data(), size_}; }
  uint64_t seen() const { return seen_; }

 private:
  std::vector<uint64_t> values_;
  std::vector<uint64_t> at_;
  size_t size_ = 0;
  uint64_t seen_ = 0;
  uint64_t stride_ = 1;
};

// A fixed unit of host-speed reference work that calls nothing in the library: scattered
// read-modify-writes over a 32 MiB array plus small heap allocations, the kind of memory
// traffic a fork or fault makes. The shared host this benchmark runs on moves each core
// between a fast and a slow state every few seconds, and the slow state makes this unit and
// the library's calls alike up to 1.6x slower, while a pure compute loop, or the same unit
// run on another core, does not notice it. Each load thread therefore runs a unit every
// kIntervalNs between its own operations, and perfbench/metrics.py scales the operations
// it timed by the units timed around them.
class HostRef {
 public:
  static constexpr int64_t kIntervalNs = 2'000'000;

  HostRef();
  // Runs one unit and returns its nanoseconds.
  uint64_t RunUnit();

 private:
  std::vector<uint64_t> words_;
  std::vector<std::unique_ptr<uint64_t[]>> ring_;
  uint64_t salt_ = 0;
};

// The sample stores and the reference state of one load thread, made before the workload's
// set-up and reused by every phase.
struct SampleStore {
  std::array<SeriesStore, kSeriesCount> series;
  HostRef ref;
};

// Everything one load thread records during one phase. Only its own thread writes it.
class ThreadSink {
 public:
  // Clears `store`, which then holds this phase's samples.
  ThreadSink(uint16_t thread, bool traced, SampleStore& store)
      : thread_(thread), traced_(traced), store_(store) {
    for (SeriesStore& series : store_.series) {
      series.Clear();
    }
  }

  bool traced() const { return traced_; }

  // Round / request id stamped on the spans that follow.
  void set_round(uint64_t round) { round_ = round; }

  void Sample(Series series, uint64_t ns) { store_.series[series].Add(ns); }
  void Attempt(bool ok) {
    ++attempted_;
    failed_ += ok ? 0 : 1;
  }
  // Counts the workload's throughput unit (rounds, pages written, requests or accesses).
  void CountOps(uint64_t n) { ops_ += n; }
  // Pages written through the memory API, the denominator of the per-1k-write fault rates.
  void CountWrites(uint64_t n) { writes_ += n; }
  // Records an output check; a false `ok` is counted under `name` and makes the run incorrect.
  void Check(bool ok, const char* name) {
    if (!ok) {
      ++check_failures_[name];
    }
  }

  // Opens a span and returns its index (or -1 when untraced); StampStart and CloseSpan
  // stamp its start and end, so the bookkeeping stays outside the timed interval.
  int32_t OpenSpan(SpanName name);
  void StampStart(int32_t index, int64_t start_ns) {
    if (index >= 0) {
      spans_[static_cast<size_t>(index)].start_ns = start_ns;
    }
  }
  void CloseSpan(int32_t index, int64_t end_ns);
  // Adds a closed span as a child of `parent` without touching the open-span stack.
  void AddChildSpan(int32_t parent, SpanName name, int64_t start_ns, int64_t end_ns);

  void AddForkProfile(const odf::ForkProfile& profile) { fork_profile_.Add(profile); }

  // Runs a HostRef unit (a kRef sample and a bench.ref span) when HostRef::kIntervalNs have
  // passed since the last one. Call between the operations the thread times.
  void Calibrate();

  const SeriesStore& series(Series s) const { return store_.series[s]; }
  const std::vector<SpanRecord>& spans() const { return spans_; }
  const std::map<std::string, uint64_t>& check_failures() const { return check_failures_; }
  const ForkProfileSums& fork_profile() const { return fork_profile_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  uint64_t ops() const { return ops_; }
  uint64_t writes() const { return writes_; }

 private:
  uint16_t thread_;
  bool traced_;
  uint64_t round_ = 0;
  SampleStore& store_;
  int64_t last_ref_ns_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<int32_t> open_;
  std::map<std::string, uint64_t> check_failures_;
  ForkProfileSums fork_profile_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t ops_ = 0;
  uint64_t writes_ = 0;
};

// RAII span that also times the enclosed work whether or not the phase is traced.
class Timed {
 public:
  Timed(ThreadSink& sink, SpanName name)
      : sink_(sink), index_(sink.OpenSpan(name)), start_ns_(NowNs()) {
    sink_.StampStart(index_, start_ns_);
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;
  ~Timed() {
    if (!ended_) {
      End();
    }
  }

  // Closes the span; returns the elapsed nanoseconds.
  uint64_t End() {
    int64_t end_ns = NowNs();
    ended_ = true;
    sink_.CloseSpan(index_, end_ns);
    return static_cast<uint64_t>(end_ns - start_ns_);
  }
  int64_t start_ns() const { return start_ns_; }
  int32_t index() const { return index_; }

 private:
  ThreadSink& sink_;
  int32_t index_;
  int64_t start_ns_;
  bool ended_ = false;
};

// One measured phase: its length, whether spans are recorded, and one sink per load thread.
// `stores` holds one sample store per load thread, Workload::threads() of them.
class Phase {
 public:
  Phase(std::string name, double seconds, bool traced, std::span<SampleStore> stores)
      : name_(std::move(name)), seconds_(seconds), traced_(traced), stores_(stores) {}

  const std::string& name() const { return name_; }
  double seconds() const { return seconds_; }
  bool traced() const { return traced_; }

  // Creates the sink for load thread `thread`. Call before starting the threads.
  ThreadSink& AddSink(uint16_t thread);
  const ThreadSink& sink(size_t thread) const { return *sinks_[thread]; }
  size_t sink_count() const { return sinks_.size(); }

  // Phase-level figures a workload reports (offered rate, generator lag, skipped snapshots).
  void SetScalar(const std::string& name, double value) { scalars_[name] = value; }
  const std::map<std::string, double>& scalars() const { return scalars_; }

  void MarkStart() { start_ns_ = NowNs(); }
  void MarkEnd() { end_ns_ = NowNs(); }
  int64_t start_ns() const { return start_ns_; }
  int64_t end_ns() const { return end_ns_; }
  // Deadline check for closed loops.
  bool Expired() const { return NowNs() - start_ns_ >= static_cast<int64_t>(seconds_ * 1e9); }

 private:
  std::string name_;
  double seconds_;
  bool traced_;
  std::span<SampleStore> stores_;
  std::vector<std::unique_ptr<ThreadSink>> sinks_;
  std::map<std::string, double> scalars_;
  int64_t start_ns_ = 0;
  int64_t end_ns_ = 0;
};

struct WorkloadOptions {
  uint64_t seed = 1;
  unsigned cpus = 1;  // CPUs this process may run on.
};

// A workload builds its state in Setup (timed as set-up), runs its loop in Run for
// phase.seconds() (calling MarkStart/MarkEnd around the measured interval), and tears the
// state down in Teardown, checking that every frame was returned.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void Setup() = 0;
  virtual void Run(Phase& phase) = 0;
  // Returns false when the allocator still holds frames after teardown (invariant 6).
  virtual bool Teardown() = 0;
  virtual odf::Kernel& kernel() = 0;
  virtual unsigned threads() const = 0;
  // Seconds spent in AddressSpace::PopulateRange during Setup (0 when not used).
  virtual double populate_seconds() const { return 0; }
};

std::unique_ptr<Workload> MakeClassicFork(const WorkloadOptions& options);
std::unique_ptr<Workload> MakeOdfFaultStorm(const WorkloadOptions& options);
std::unique_ptr<Workload> MakeSnapshotServer(const WorkloadOptions& options);
std::unique_ptr<Workload> MakeReclaimPressure(const WorkloadOptions& options);

// --- Timed wrappers around the public calls. Each records its span and counts the call as
// attempted (and failed when it fails). ---

// Kernel::TryFork. Records the kFork sample on success; in a traced phase passes a
// ForkProfile and records the copy as a core.copy child span.
odf::Process* TimedFork(ThreadSink& sink, odf::Kernel& kernel, odf::Process& parent,
                        odf::ForkMode mode);
void TimedExit(ThreadSink& sink, odf::Kernel& kernel, odf::Process& process);
// Reaps one child; counts a failure when none was reaped.
void TimedWait(ThreadSink& sink, odf::Kernel& kernel, odf::Process& parent);
// Memory API; each returns false on failure and writes the call's duration to *ns.
bool TimedWrite(ThreadSink& sink, odf::Process& process, odf::Vaddr va,
                std::span<const std::byte> data, uint64_t* ns = nullptr);
bool TimedRead(ThreadSink& sink, odf::Process& process, odf::Vaddr va, std::span<std::byte> out,
               uint64_t* ns = nullptr);
bool TimedTouch(ThreadSink& sink, odf::Process& process, odf::Vaddr va, uint64_t length);

// Reads a u64 through the memory API (counted as an attempted read).
bool ReadU64(ThreadSink& sink, odf::Process& process, odf::Vaddr va, uint64_t* value,
             uint64_t* ns = nullptr);
bool WriteU64(ThreadSink& sink, odf::Process& process, odf::Vaddr va, uint64_t value,
              uint64_t* ns = nullptr);

// Pins the calling thread to the `slot`-th CPU of the process's affinity mask (modulo its
// size), so each load thread keeps a core of its own.
void PinThisThread(unsigned slot);
// CPUs in the process's affinity mask.
unsigned AvailableCpus();

// Deterministic 64-bit mix (SplitMix64 finaliser) for seed-derived page tags.
inline uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace perfbench

#endif  // ODF_PERFBENCH_WORKER_HARNESS_H_
