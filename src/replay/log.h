// odf::replay log format — the on-disk flight-recorder log (docs/replay.md).
//
// A log is a schedule: the sequence of kernel *operations* (the public Kernel/Process API
// calls that mutate state), the fault-injection verdicts taken inside them, and the trace
// events they emitted, plus a trailer describing the final kernel state (per-process memory
// digests, allocator aggregates, vmstat counter deltas, per-site fi stats). The replay
// engine (replayer.h) re-executes the operation stream against a fresh Kernel, pins the fi
// verdicts, and cross-checks every recorded outcome.
//
// File layout:
//
//   magic  "ODFRLOG1"                    (8 bytes)
//   u32    header_length                 (little-endian)
//   bytes  header JSON                   (trace::JsonWriter output; informational — the
//                                         catalogs let external tooling decode ids by name)
//   chunk* until EOF
//
// Each chunk is  [u8 kind][varint tid][varint byte_length][records...]  where kind 0 is a
// per-thread stream chunk and kind 1 the trailer. Records are varint-encoded with zigzag
// deltas for timestamps, pids, and event addresses; delta state resets at every chunk
// boundary, so dropping whole chunks (the black-box ring) never corrupts later ones.
//
// Record tags (first byte of every record):
//   1 kOp            one kernel operation: seq, kind, pid, args, payload, outcome
//   2 kFi            one fault-injection decision: site, per-site call index, verdict
//   3 kEvent         one trace event drained from the per-thread ring
//   4 kRingStat      per-ring accounting: tid, appended, overwritten
//   5 kFinalProcess  trailer: per-process memory digest + page counts
//   6 kFinalAlloc    trailer: allocator aggregates
//   7 kFinalVm       trailer: vmstat counter delta over the recording window
//   8 kFinalFi       trailer: per-site fi calls/injected totals
//   9 kMeta          key/value pairs (seed, mode, drop counts, finalized flag)
#ifndef ODF_SRC_REPLAY_LOG_H_
#define ODF_SRC_REPLAY_LOG_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace odf {

// The operation catalog: every recordable public Kernel/Process entry point, plus the
// fault-injection schedule changes (fi_arm/fi_disarm/fi_reset — per-site call indices
// restart at arming, so replay must re-arm at the same schedule points). Arg layouts are
// documented per kind in docs/replay.md; `pid` is the acting process (0 for kernel-wide
// ops such as reclaim or create_process).
#define ODF_REPLAY_OP_LIST(X) \
  X(create_process)           \
  X(fork)                     \
  X(try_fork)                 \
  X(exit)                     \
  X(wait)                     \
  X(set_default_fork_mode)    \
  X(set_fork_mode)            \
  X(set_memory_limit)         \
  X(reclaim)                  \
  X(start_kswapd)             \
  X(stop_kswapd)              \
  X(mmap)                     \
  X(munmap)                   \
  X(mremap)                   \
  X(madvise_dontneed)         \
  X(populate)                 \
  X(write)                    \
  X(read)                     \
  X(memset)                   \
  X(touch)                    \
  X(fi_arm)                   \
  X(fi_disarm)                \
  X(fi_reset)                 \
  X(mf_hard_offline)          \
  X(mf_soft_offline)

enum class OpKind : uint16_t {
#define ODF_REPLAY_OP_ENUM(name) k_##name,
  ODF_REPLAY_OP_LIST(ODF_REPLAY_OP_ENUM)
#undef ODF_REPLAY_OP_ENUM
      kCount,
};

constexpr size_t kOpKindCount = static_cast<size_t>(OpKind::kCount);

// Stable lowercase name, e.g. "try_fork"; "?" for out-of-range values.
const char* OpKindName(OpKind kind);

namespace replay {

inline constexpr char kLogMagic[9] = "ODFRLOG1";  // 8 significant bytes + NUL.
inline constexpr uint32_t kLogVersion = 1;

// Maximum bytes of encoded records per chunk before the recorder rotates to a new one.
// Chunks are also the delta-reset granularity and the black-box drop granularity.
inline constexpr size_t kChunkTargetBytes = 64 * 1024;

// Sentinel tid carried by the trailer chunk.
inline constexpr uint64_t kTrailerTid = 0xffff;

enum class RecordTag : uint8_t {
  kOp = 1,
  kFi = 2,
  kEvent = 3,
  kRingStat = 4,
  kFinalProcess = 5,
  kFinalAlloc = 6,
  kFinalVm = 7,
  kFinalFi = 8,
  kMeta = 9,
};

enum class MetaKey : uint8_t {
  kFiSeed = 1,
  kMode = 2,             // RecorderMode as integer.
  kFinalized = 3,        // 1 when a final-state trailer was captured before Stop.
  kOpsDropped = 4,       // Ops lost to the black-box byte budget.
  kEventsDropped = 5,    // Trace events lost (ring wraparound between drains + budget).
  kFiDropped = 6,        // Fi decisions lost to the black-box byte budget.
  kFaultInjectCompiled = 7,
  kTraceCompiled = 8,
};

// Payload encodings for kOp (write/memset data).
enum class PayloadKind : uint8_t {
  kNone = 0,
  kFill = 1,  // length + one repeated byte value.
  kRaw = 2,   // length + raw bytes.
};

// --- Decoded record model -------------------------------------------------------------

struct OpRecord {
  uint64_t seq = 0;   // Global mutation order (1-based, dense when no ops were dropped).
  uint32_t tid = 0;   // Recording thread (trace-ring tid space).
  OpKind kind = OpKind::kCount;
  int32_t pid = 0;    // Acting process; 0 for kernel-wide ops.
  uint64_t ts_ns = 0;
  std::vector<uint64_t> args;
  uint64_t status = 0;  // Op-specific: FaultResult for memory ops, 0 otherwise.
  uint64_t result = 0;  // Op-specific: pid / va / bool / digest. See docs/replay.md.
  std::vector<std::byte> payload;  // Write data (decoded from fill/raw encoding).

  uint64_t Arg(size_t index) const { return index < args.size() ? args[index] : 0; }
};

struct FiDecisionRecord {
  uint32_t site = 0;
  uint64_t call = 0;  // 1-based per-site call index.
  bool verdict = false;
};

struct LogTraceEvent {
  uint16_t id = 0;
  uint32_t tid = 0;
  int32_t pid = 0;
  uint64_t ts_ns = 0;
  uint64_t a0 = 0, a1 = 0, a2 = 0;
};

struct RingStatRecord {
  uint32_t tid = 0;
  uint64_t appended = 0;
  uint64_t overwritten = 0;
};

struct FinalProcessRecord {
  int32_t pid = 0;
  uint64_t vma_count = 0;
  uint64_t present_pages = 0;
  uint64_t swap_pages = 0;
  uint64_t content_digest = 0;  // FNV-1a over per-page logical contents (replayer.h).
  uint64_t ref_digest = 0;      // FNV-1a over per-page refcounts + table share counts.
};

struct FinalAllocRecord {
  uint64_t allocated_frames = 0;
  uint64_t page_table_frames = 0;
  uint64_t swap_slots_in_use = 0;
};

struct FinalVmRecord {
  uint32_t counter = 0;  // VmCounter index.
  uint64_t delta = 0;    // Increase over the recording window.
};

struct FinalFiRecord {
  uint32_t site = 0;
  uint64_t calls = 0;
  uint64_t injected = 0;
};

// A fully parsed log.
struct ReplayLog {
  std::string header_json;
  uint64_t fi_seed = 0;
  uint32_t mode = 0;
  bool finalized = false;
  bool fault_inject_compiled = false;
  bool trace_compiled = false;
  uint64_t ops_dropped = 0;
  uint64_t events_dropped = 0;
  uint64_t fi_dropped = 0;

  std::vector<OpRecord> ops;  // Sorted by seq after parsing.
  std::vector<FiDecisionRecord> fi_decisions;
  std::vector<LogTraceEvent> events;  // Sorted by ts_ns.
  std::vector<RingStatRecord> ring_stats;
  std::vector<FinalProcessRecord> final_processes;
  std::optional<FinalAllocRecord> final_alloc;
  std::vector<FinalVmRecord> final_vm;
  std::vector<FinalFiRecord> final_fi;

  // True when the op stream is gapless from seq 1 (nothing dropped): the precondition for
  // replay. Black-box logs that wrapped are inspectable but not replayable.
  bool Complete() const;
};

// --- Digests --------------------------------------------------------------------------

// FNV-1a (64-bit): content digests for read outcomes and trailer state. Chainable — pass
// the previous hash to fold multiple regions into one digest.
inline constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr uint64_t kFnvPrime = 0x100000001b3ull;

inline uint64_t Fnv1aBytes(const std::byte* data, size_t length, uint64_t hash = kFnvOffset) {
  for (size_t i = 0; i < length; ++i) {
    hash = (hash ^ static_cast<uint64_t>(static_cast<uint8_t>(data[i]))) * kFnvPrime;
  }
  return hash;
}

inline uint64_t Fnv1aU64(uint64_t value, uint64_t hash) {
  for (int i = 0; i < 8; ++i) {
    hash = (hash ^ (value & 0xff)) * kFnvPrime;
    value >>= 8;
  }
  return hash;
}

// --- Varint codec ---------------------------------------------------------------------

void PutVarint(std::vector<uint8_t>& out, uint64_t value);

inline uint64_t ZigZagEncode(int64_t value) {
  return (static_cast<uint64_t>(value) << 1) ^ static_cast<uint64_t>(value >> 63);
}
inline int64_t ZigZagDecode(uint64_t value) {
  return static_cast<int64_t>((value >> 1) ^ (~(value & 1) + 1));
}

inline void PutZigZag(std::vector<uint8_t>& out, int64_t value) {
  PutVarint(out, ZigZagEncode(value));
}

// Bounds-checked sequential reader over an encoded byte span.
class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> bytes) : bytes_(bytes) {}

  [[nodiscard]] bool ReadVarint(uint64_t* out);
  [[nodiscard]] bool ReadZigZag(int64_t* out) {
    uint64_t raw = 0;
    if (!ReadVarint(&raw)) {
      return false;
    }
    *out = ZigZagDecode(raw);
    return true;
  }
  [[nodiscard]] bool ReadByte(uint8_t* out);
  // Copies the next `length` bytes into *out; false (nothing read) when fewer remain.
  [[nodiscard]] bool ReadBytes(uint64_t length, std::vector<std::byte>* out);

  bool AtEnd() const { return pos_ >= bytes_.size(); }
  size_t remaining() const { return bytes_.size() - pos_; }

 private:
  std::span<const uint8_t> bytes_;
  size_t pos_ = 0;
};

// --- Chunk encoding -------------------------------------------------------------------

// Per-chunk delta state (reset at every chunk boundary on both sides).
struct DeltaState {
  uint64_t last_seq = 0;
  uint64_t last_ts = 0;
  int64_t last_pid = 0;
  uint64_t last_a[3] = {0, 0, 0};
};

// Appends one encoded record to `out`, updating `state`. Encoders used by the recorder;
// the op encoder takes fields instead of an OpRecord so the recording hot path allocates
// nothing.
void EncodeOpRaw(std::vector<uint8_t>& out, DeltaState& state, uint64_t seq, OpKind kind,
                 int32_t pid, uint64_t ts_ns, const uint64_t* args, uint32_t argc,
                 uint64_t status, uint64_t result, const std::byte* payload,
                 uint64_t payload_length);
void EncodeFiDecision(std::vector<uint8_t>& out, const FiDecisionRecord& record);
void EncodeEvent(std::vector<uint8_t>& out, DeltaState& state, const LogTraceEvent& event);
void EncodeRingStat(std::vector<uint8_t>& out, const RingStatRecord& record);
void EncodeFinalProcess(std::vector<uint8_t>& out, const FinalProcessRecord& record);
void EncodeFinalAlloc(std::vector<uint8_t>& out, const FinalAllocRecord& record);
void EncodeFinalVm(std::vector<uint8_t>& out, const FinalVmRecord& record);
void EncodeFinalFi(std::vector<uint8_t>& out, const FinalFiRecord& record);
void EncodeMeta(std::vector<uint8_t>& out, MetaKey key, uint64_t value);

// Decodes every record in one chunk body into `log`. `tid` is the chunk's thread id.
// Returns false (and fills *error) on malformed input.
[[nodiscard]] bool DecodeChunk(std::span<const uint8_t> body, uint64_t tid, ReplayLog* log,
                               std::string* error);

// --- File I/O -------------------------------------------------------------------------

// A chunk ready to be written: encoded records plus framing metadata.
struct LogChunk {
  uint8_t kind = 0;  // 0 stream, 1 trailer.
  uint64_t tid = 0;
  std::vector<uint8_t> bytes;
};

// Serializes header + chunks to `path`. Returns false (and fills *error) on I/O failure.
[[nodiscard]] bool WriteLogFile(const std::string& path, const std::string& header_json,
                                const std::vector<const LogChunk*>& chunks,
                                std::string* error);

// Parses a log file written by WriteLogFile. Ops are sorted by seq, events by timestamp.
[[nodiscard]] bool ReadLogFile(const std::string& path, ReplayLog* out, std::string* error);

}  // namespace replay
}  // namespace odf

#endif  // ODF_SRC_REPLAY_LOG_H_
