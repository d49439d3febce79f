// odf::replay flight recorder — records the kernel's operation schedule (plus fi verdicts
// and trace events) into the log format of log.h, cheaply enough to stay on under
// benchmarks. See docs/replay.md.
//
// Recording granularity is the public Kernel/Process op surface: each entry point opens an
// OpScope, which assigns the op its global sequence number and captures args + outcome.
// Nested ops (TouchRange's internal WriteMemory, Fork's internal TryFork, the OOM killer's
// Exit inside ReclaimMemory) are suppressed by a per-thread depth counter — only depth-0
// ops are schedule entries, so replaying them re-executes the nested work naturally.
//
// Cost model (mirrors ODF_TRACE / ODF_FAULT_INJECT):
//   - compiled out (-DODF_REPLAY=OFF => ODF_REPLAY_COMPILED=0): OpScope folds to nothing;
//     argument expressions are still evaluated (they are existing locals at every site).
//   - not recording (the default): one relaxed atomic load and a predicted branch per op.
//   - recording: one TLS lookup, one global seq fetch_add, and a varint encode (~tens of
//     ns) per depth-0 op; the per-op latency histogram `replay_append` is a
//     trace::LatencySample (one op in 64, every op while tracing).
//
// Modes:
//   - kFull: every chunk is retained until Stop/WriteLog (unbounded memory; tests, CI).
//   - kBlackBox: rotated chunks are dropped oldest-first once the byte budget is exceeded
//     (bounded memory; long runs). On ODF_CHECK / ODF_VM_BUG_ON / verifier failure the
//     abort hook dumps whatever is retained — the crash flight recorder.
#ifndef ODF_SRC_REPLAY_RECORDER_H_
#define ODF_SRC_REPLAY_RECORDER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/fi/fault_inject.h"
#include "src/replay/log.h"
#include "src/trace/metrics.h"
#include "src/trace/trace.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

// Set by the build (src/replay/CMakeLists.txt); default to compiled-in for out-of-build users.
#ifndef ODF_REPLAY_COMPILED
#define ODF_REPLAY_COMPILED 1
#endif

namespace odf {
namespace replay {

enum class RecorderMode : uint32_t {
  kOff = 0,
  kBlackBox = 1,
  kFull = 2,
};

const char* RecorderModeName(RecorderMode mode);

// Global runtime switch. Inline so the OpScope fast path is a single relaxed load.
inline std::atomic<bool> g_recording{false};

#if ODF_REPLAY_COMPILED
inline bool RecordingActive() { return g_recording.load(std::memory_order_relaxed); }
#else
constexpr bool RecordingActive() { return false; }
#endif

namespace detail {

// Flush path called from OpScope's destructor (recorder.cc). Assigns the global sequence
// number and appends the encoded op + any trace events the thread's ring gained since the
// last drain.
void RecordOp(OpKind kind, int32_t pid, const uint64_t* args, uint32_t argc, uint64_t status,
              uint64_t result, const std::byte* payload, uint64_t payload_length);

// Per-thread op nesting depth; only depth-0 scopes record.
inline thread_local uint32_t t_op_depth = 0;

}  // namespace detail

// RAII capture of one kernel operation. Constructed at every recordable entry point;
// sites fill in args and outcome before the scope closes:
//
//   replay::OpScope op(OpKind::k_mmap, pid());
//   ...
//   op.Arg(length).Arg(prot);
//   op.Result(va);
//
// All methods are no-ops unless a recording is active and this is a depth-0 op.
class OpScope {
 public:
#if ODF_REPLAY_COMPILED
  OpScope(OpKind kind, int32_t pid) {
    if (!RecordingActive()) {
      return;
    }
    entered_ = true;
    active_ = detail::t_op_depth++ == 0;
    kind_ = kind;
    pid_ = pid;
  }
  ~OpScope() {
    if (!entered_) {
      return;
    }
    --detail::t_op_depth;
    if (active_) {
      detail::RecordOp(kind_, pid_, args_, argc_, status_, result_, payload_, payload_length_);
    }
  }
  OpScope& Arg(uint64_t value) {
    if (active_ && argc_ < kMaxArgs) {
      args_[argc_++] = value;
    }
    return *this;
  }
  OpScope& Status(uint64_t value) {
    if (active_) {
      status_ = value;
    }
    return *this;
  }
  OpScope& Result(uint64_t value) {
    if (active_) {
      result_ = value;
    }
    return *this;
  }
  // Attaches write data. The span must stay valid until the scope closes (it is the
  // caller's own argument); the encoder run-length-compresses uniform fills.
  OpScope& Payload(std::span<const std::byte> data) {
    if (active_) {
      payload_ = data.data();
      payload_length_ = data.size();
    }
    return *this;
  }
  // True when this scope will record: sites use it to gate outcome computation that is
  // itself costly (e.g. hashing a read buffer).
  bool active() const { return active_; }
#else
  OpScope(OpKind, int32_t) {}
  OpScope& Arg(uint64_t) { return *this; }
  OpScope& Status(uint64_t) { return *this; }
  OpScope& Result(uint64_t) { return *this; }
  OpScope& Payload(std::span<const std::byte>) { return *this; }
  bool active() const { return false; }
#endif

  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

 private:
#if ODF_REPLAY_COMPILED
  static constexpr uint32_t kMaxArgs = 6;
  bool entered_ = false;
  bool active_ = false;
  OpKind kind_ = OpKind::kCount;
  int32_t pid_ = 0;
  uint32_t argc_ = 0;
  uint64_t args_[kMaxArgs] = {};
  uint64_t status_ = 0;
  uint64_t result_ = 0;
  const std::byte* payload_ = nullptr;
  uint64_t payload_length_ = 0;
#endif
};

struct RecorderOptions {
  RecorderMode mode = RecorderMode::kFull;
  // Black-box retention budget for rotated chunks (kBlackBox only).
  uint64_t blackbox_budget_bytes = 8 * 1024 * 1024;
  // Directory for abort-hook dumps; overridden by env ODF_REPLAY_DUMP_DIR; default ".".
  std::string dump_dir;
  // Force tracing on for the duration (restored at Stop). Off by default: the op + fi
  // schedule alone replays deterministically and keeps the recorder within the <3% bench
  // budget; the per-event tracepoint stream is debugging context, bought at tracepoint
  // cost (procfs: `trace=1`).
  bool force_tracing = false;
};

struct RecorderStats {
  RecorderMode mode = RecorderMode::kOff;
  bool recording = false;
  uint64_t ops = 0;
  uint64_t events = 0;
  uint64_t fi_decisions = 0;
  uint64_t bytes = 0;  // Encoded bytes currently retained.
  uint64_t ops_dropped = 0;
  uint64_t events_dropped = 0;
  uint64_t fi_dropped = 0;
  uint64_t threads = 0;
};

class Recorder {
 public:
  // The process-wide recorder (the schedule is kernel-global, like vmstat).
  static Recorder& Global();

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  // Begins a recording. Discards any previous one. Fails (returns false) when already
  // recording. Must be called while kernel threads are quiescent (the Tracer::Clear
  // contract); installs the fi decision hook and the abort dump hook.
  bool Start(const RecorderOptions& options = {});

  // Ends the recording: drains every trace ring, uninstalls hooks, and retains the encoded
  // data for WriteLog. Quiescence contract as Start. No-op when not recording.
  void Stop();

  bool recording() const { return g_recording.load(std::memory_order_relaxed); }

  // Serializes the last recording (running or stopped; a running one is snapshotted as-is
  // without Stop's final ring drain). Returns false (and fills *error) on I/O failure or
  // when nothing was ever recorded.
  [[nodiscard]] bool WriteLog(const std::string& path, std::string* error);

  // Appends the final-state trailer records captured by replay::FinalizeRecording
  // (replayer.h owns the digest logic; it needs the proc layer). Also snapshots the vmstat
  // counter deltas since Start and the fi per-site stats, and marks the log finalized.
  void CaptureFinalState(const std::vector<FinalProcessRecord>& processes,
                         const FinalAllocRecord& alloc);

  // The abort-hook entry: dumps the current recording (black box) to the dump directory,
  // printing the path and a replay command to stderr. Safe to call at any time; returns the
  // written path, or empty when idle or the dump failed.
  std::string DumpNow();

  RecorderStats CollectStats() const;

  // procfs text: mode, retained bytes, per-thread stream accounting.
  std::string FormatStatus() const;

  // procfs knob: whitespace-separated commands —
  //   "start mode=full|blackbox [budget=BYTES] [dir=PATH]"
  //   "stop"   "dump=PATH"
  // Returns false (and fills *error) on malformed input.
  bool Configure(std::string_view spec, std::string* error = nullptr);

 private:
  friend void detail::RecordOp(OpKind, int32_t, const uint64_t*, uint32_t, uint64_t, uint64_t,
                               const std::byte*, uint64_t);

  // One rotated (closed) chunk, ordered globally by rotation index for black-box dropping.
  struct RetainedChunk {
    uint64_t rotation_index = 0;
    uint64_t ops = 0;
    uint64_t events = 0;
    uint64_t fi = 0;
    LogChunk chunk;
  };

  // Per-thread stream state. Owned by the recorder; the owning thread writes the open
  // chunk without locking (single producer, like TraceRing).
  struct ThreadStream {
    uint32_t tid = 0;
    trace::TraceRing* ring = nullptr;  // The owning thread's trace ring.
    uint64_t ring_cursor = 0;          // TotalAppended up to which events were drained.
    DeltaState state;
    std::vector<uint8_t> open;  // Encoded records of the chunk being built.
    uint64_t open_ops = 0, open_events = 0, open_fi = 0;
    uint64_t ops = 0, events = 0, fi = 0;  // Totals including rotated/dropped chunks.
    uint64_t events_lost = 0;              // Ring wraparound between drains.
  };

  Recorder() = default;

  ThreadStream& StreamForThisThread();
  void DrainRing(ThreadStream& stream, uint64_t up_to);
  void RotateChunkLocked(ThreadStream& stream) ODF_REQUIRES(mutex_);
  void MaybeRotate(ThreadStream& stream);
  std::string BuildHeaderJson() const ODF_REQUIRES(mutex_);
  [[nodiscard]] bool WriteLogLocked(const std::string& path, std::string* error)
      ODF_REQUIRES(mutex_);
  static void FiDecisionHook(FiSite site, uint64_t call, bool verdict);
  static void FiConfigHook(FiSite site, const FiSiteConfig* config);
  static void AbortDumpHook();

  mutable util::Mutex mutex_;
  RecorderOptions options_ ODF_GUARDED_BY(mutex_);
  std::atomic<uint64_t> generation_{0};  // Bumped by Start; invalidates TLS stream caches.
  bool ever_started_ ODF_GUARDED_BY(mutex_) = false;
  std::atomic<uint64_t> next_seq_{0};
  std::vector<std::unique_ptr<ThreadStream>> streams_ ODF_GUARDED_BY(mutex_);
  std::deque<RetainedChunk> retained_ ODF_GUARDED_BY(mutex_);  // Rotation order == drop order.
  uint64_t next_rotation_index_ ODF_GUARDED_BY(mutex_) = 0;
  uint64_t retained_bytes_ ODF_GUARDED_BY(mutex_) = 0;
  uint64_t ops_dropped_ ODF_GUARDED_BY(mutex_) = 0;
  uint64_t events_dropped_ ODF_GUARDED_BY(mutex_) = 0;
  uint64_t fi_dropped_ ODF_GUARDED_BY(mutex_) = 0;
  std::vector<uint8_t> trailer_ ODF_GUARDED_BY(mutex_);  // Final-state + meta records.
  bool finalized_ ODF_GUARDED_BY(mutex_) = false;
  uint64_t fi_seed_ ODF_GUARDED_BY(mutex_) = 0;
  bool trace_was_enabled_ ODF_GUARDED_BY(mutex_) = false;  // Tracer state to restore at Stop.
  std::array<uint64_t, kVmCounterCount> vm_baseline_ ODF_GUARDED_BY(mutex_){};
  std::map<const trace::TraceRing*, uint64_t> ring_baseline_
      ODF_GUARDED_BY(mutex_);  // Heads at Start.
};

}  // namespace replay
}  // namespace odf

#endif  // ODF_SRC_REPLAY_RECORDER_H_
