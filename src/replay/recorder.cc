#include "src/replay/recorder.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "src/trace/json.h"
#include "src/util/log.h"

namespace odf {
namespace replay {

namespace {

// Per-thread cached stream pointer; `generation` detects streams invalidated by Start.
struct StreamCache {
  void* stream = nullptr;
  uint64_t generation = 0;
};
thread_local StreamCache t_stream_cache;

}  // namespace

const char* RecorderModeName(RecorderMode mode) {
  switch (mode) {
    case RecorderMode::kOff:
      return "off";
    case RecorderMode::kBlackBox:
      return "blackbox";
    case RecorderMode::kFull:
      return "full";
  }
  return "?";
}

Recorder& Recorder::Global() {
  static Recorder* recorder = new Recorder();  // Leaked: hooks may fire during static dtors.
  return *recorder;
}

Recorder::ThreadStream& Recorder::StreamForThisThread() {
  uint64_t generation = generation_.load(std::memory_order_acquire);
  if (t_stream_cache.stream != nullptr && t_stream_cache.generation == generation) {
    return *static_cast<ThreadStream*>(t_stream_cache.stream);
  }
  // Slow path: first op on this thread in this recording.
  trace::TraceRing& ring = trace::Tracer::Global().RingForThisThread();
  util::MutexLock guard(mutex_);
  auto stream = std::make_unique<ThreadStream>();
  stream->tid = ring.tid();
  stream->ring = &ring;
  auto baseline = ring_baseline_.find(&ring);
  stream->ring_cursor = baseline != ring_baseline_.end() ? baseline->second : 0;
  stream->open.reserve(kChunkTargetBytes + 4096);
  streams_.push_back(std::move(stream));
  t_stream_cache.stream = streams_.back().get();
  t_stream_cache.generation = generation;
  return *streams_.back();
}

void Recorder::DrainRing(ThreadStream& stream, uint64_t up_to) {
  if (stream.ring == nullptr || up_to <= stream.ring_cursor) {
    return;
  }
  uint64_t resident_start =
      up_to > trace::TraceRing::kCapacity ? up_to - trace::TraceRing::kCapacity : 0;
  if (resident_start > stream.ring_cursor) {
    uint64_t lost = resident_start - stream.ring_cursor;
    stream.events_lost += lost;
    CountVm(VmCounter::k_replay_events_dropped, lost);
    stream.ring_cursor = resident_start;
  }
  std::vector<TraceEvent> events = stream.ring->SnapshotSince(stream.ring_cursor);
  for (const TraceEvent& event : events) {
    LogTraceEvent record;
    record.id = static_cast<uint16_t>(event.id);
    record.tid = event.tid;
    record.pid = event.pid;
    record.ts_ns = event.ts_ns;
    record.a0 = event.a0;
    record.a1 = event.a1;
    record.a2 = event.a2;
    EncodeEvent(stream.open, stream.state, record);
  }
  stream.open_events += events.size();
  stream.events += events.size();
  stream.ring_cursor = up_to;
}

void Recorder::RotateChunkLocked(ThreadStream& stream) {
  if (stream.open.empty()) {
    return;
  }
  RetainedChunk retained;
  retained.rotation_index = next_rotation_index_++;
  retained.ops = stream.open_ops;
  retained.events = stream.open_events;
  retained.fi = stream.open_fi;
  retained.chunk.kind = 0;
  retained.chunk.tid = stream.tid;
  retained.chunk.bytes = std::move(stream.open);
  retained_bytes_ += retained.chunk.bytes.size();
  CountVm(VmCounter::k_replay_record_bytes, retained.chunk.bytes.size());
  CountVm(VmCounter::k_replay_ops_recorded, retained.ops);
  CountVm(VmCounter::k_replay_events_recorded, retained.events);
  retained_.push_back(std::move(retained));
  stream.open = {};
  stream.open.reserve(kChunkTargetBytes + 4096);
  stream.open_ops = stream.open_events = stream.open_fi = 0;
  stream.state = DeltaState{};
  if (options_.mode == RecorderMode::kBlackBox) {
    while (retained_bytes_ > options_.blackbox_budget_bytes && retained_.size() > 1) {
      const RetainedChunk& oldest = retained_.front();
      ops_dropped_ += oldest.ops;
      events_dropped_ += oldest.events;
      fi_dropped_ += oldest.fi;
      CountVm(VmCounter::k_replay_events_dropped, oldest.events);
      retained_bytes_ -= oldest.chunk.bytes.size();
      retained_.pop_front();
    }
  }
}

void Recorder::MaybeRotate(ThreadStream& stream) {
  if (stream.open.size() >= kChunkTargetBytes) {
    util::MutexLock guard(mutex_);
    RotateChunkLocked(stream);
  }
}

namespace detail {

void RecordOp(OpKind kind, int32_t pid, const uint64_t* args, uint32_t argc, uint64_t status,
              uint64_t result, const std::byte* payload, uint64_t payload_length) {
  Recorder& recorder = Recorder::Global();
  if (!recorder.recording()) {
    return;  // Raced a Stop; drop silently.
  }
  Recorder::ThreadStream& stream = recorder.StreamForThisThread();
  static LatencyHistogram& histogram =
      MetricsRegistry::Global().RegisterHistogram("replay_append");
  // A stream's first op is always timed, so its log starts from a real timestamp.
  trace::LatencySample latency(histogram, /*force=*/stream.ops == 0);
  uint64_t seq = recorder.next_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  // Untimed ops reuse the last timestamp (a 1-byte zero delta): op order is carried by seq,
  // and skipping the clock read keeps the append path cheap.
  uint64_t ts = latency.timed() ? latency.start_ns() : stream.state.last_ts;
  EncodeOpRaw(stream.open, stream.state, seq, kind, pid, ts, args, argc, status, result,
              payload, payload_length);
  ++stream.open_ops;
  ++stream.ops;
  recorder.DrainRing(stream, stream.ring->TotalAppended());
  latency.Stop();
  recorder.MaybeRotate(stream);
}

}  // namespace detail

void Recorder::FiDecisionHook(FiSite site, uint64_t call, bool verdict) {
  Recorder& recorder = Global();
  if (!recorder.recording()) {
    return;
  }
  ThreadStream& stream = recorder.StreamForThisThread();
  FiDecisionRecord record;
  record.site = static_cast<uint32_t>(site);
  record.call = call;
  record.verdict = verdict;
  EncodeFiDecision(stream.open, record);
  ++stream.open_fi;
  ++stream.fi;
}

// Arm/Disarm/Reset become schedule ops: per-site call indices restart at every arming, so
// replay must re-arm (or re-pin) at exactly the recorded points to keep the recorded
// decision indices aligned. Config changes made inside a kernel op (depth > 0) replay as
// part of that op and are not separate schedule entries.
void Recorder::FiConfigHook(FiSite site, const FiSiteConfig* config) {
  Recorder& recorder = Global();
  if (!recorder.recording() || detail::t_op_depth != 0) {
    return;
  }
  uint64_t args[5];
  uint32_t argc = 0;
  OpKind kind;
  if (site == FiSite::kCount) {
    kind = OpKind::k_fi_reset;
    args[argc++] = fi::FaultInjector::Global().seed();  // Hook fires outside the fi lock.
  } else if (config == nullptr) {
    kind = OpKind::k_fi_disarm;
    args[argc++] = static_cast<uint64_t>(site);
  } else {
    kind = OpKind::k_fi_arm;
    args[argc++] = static_cast<uint64_t>(site);
    uint64_t probability_bits = 0;
    static_assert(sizeof(probability_bits) == sizeof(config->probability));
    std::memcpy(&probability_bits, &config->probability, sizeof(probability_bits));
    args[argc++] = probability_bits;
    args[argc++] = config->nth;
    args[argc++] = config->interval;
    args[argc++] = static_cast<uint64_t>(config->times);
  }
  detail::RecordOp(kind, /*pid=*/0, args, argc, /*status=*/0, /*result=*/0,
                   /*payload=*/nullptr, /*payload_length=*/0);
}

void Recorder::AbortDumpHook() { Global().DumpNow(); }

bool Recorder::Start(const RecorderOptions& options) {
  if (recording()) {
    return false;
  }
  util::MutexLock guard(mutex_);
  options_ = options;
  if (const char* dir = std::getenv("ODF_REPLAY_DUMP_DIR"); dir != nullptr && dir[0] != '\0') {
    options_.dump_dir = dir;
  }
  if (options_.dump_dir.empty()) {
    options_.dump_dir = ".";
  }
  streams_.clear();
  retained_.clear();
  trailer_.clear();
  finalized_ = false;
  next_seq_.store(0, std::memory_order_relaxed);
  next_rotation_index_ = 0;
  retained_bytes_ = 0;
  ops_dropped_ = events_dropped_ = fi_dropped_ = 0;
  fi_seed_ = fi::FaultInjector::Global().seed();
  vm_baseline_ = ReadAllVm();
  ring_baseline_.clear();
  for (const trace::TraceRing* ring : trace::Tracer::Global().Rings()) {
    ring_baseline_[ring] = ring->TotalAppended();
  }
  ever_started_ = true;
  generation_.fetch_add(1, std::memory_order_acq_rel);
  // Trace capture is runtime-gated and per-event tracepoints are the expensive part of a
  // recording (the op stream alone is ~free and fully replayable). The default leaves the
  // tracer as found — a black box a bench can fly with; force_tracing buys the annotated
  // event stream at tracepoint cost (see bench/fig_replay_overhead.cc for both prices).
  trace_was_enabled_ = trace::Enabled();
  if (options_.force_tracing) {
    trace::SetEnabled(true);
  }
  fi::SetDecisionHook(&Recorder::FiDecisionHook);
  fi::SetConfigHook(&Recorder::FiConfigHook);
  SetAbortHook(&Recorder::AbortDumpHook);
  g_recording.store(true, std::memory_order_release);
  return true;
}

void Recorder::Stop() {
  if (!recording()) {
    return;
  }
  g_recording.store(false, std::memory_order_release);
  fi::SetDecisionHook(nullptr);
  fi::SetConfigHook(nullptr);
  SetAbortHook(nullptr);
  util::MutexLock guard(mutex_);
  if (options_.force_tracing) {
    trace::SetEnabled(trace_was_enabled_);
  }
  // Final drain: each op thread's ring, then rings owned by threads that never ran an op
  // (kswapd and friends) via synthetic event-only streams.
  for (auto& stream : streams_) {
    DrainRing(*stream, stream->ring->TotalAppended());
  }
  for (const trace::TraceRing* ring : trace::Tracer::Global().Rings()) {
    bool owned = false;
    for (const auto& stream : streams_) {
      owned = owned || stream->ring == ring;
    }
    if (owned) {
      continue;
    }
    auto stream = std::make_unique<ThreadStream>();
    stream->tid = ring->tid();
    // Rings are only appended by their owners; draining a foreign ring is safe because Stop
    // requires emitting threads to be quiescent.
    stream->ring = const_cast<trace::TraceRing*>(ring);
    auto baseline = ring_baseline_.find(ring);
    stream->ring_cursor = baseline != ring_baseline_.end() ? baseline->second : 0;
    DrainRing(*stream, ring->TotalAppended());
    if (!stream->open.empty()) {
      streams_.push_back(std::move(stream));
    }
  }
  for (auto& stream : streams_) {
    RotateChunkLocked(*stream);
  }
}

void Recorder::CaptureFinalState(const std::vector<FinalProcessRecord>& processes,
                                 const FinalAllocRecord& alloc) {
  util::MutexLock guard(mutex_);
  trailer_.clear();
  for (const FinalProcessRecord& process : processes) {
    EncodeFinalProcess(trailer_, process);
  }
  EncodeFinalAlloc(trailer_, alloc);
  std::array<uint64_t, kVmCounterCount> final_counts = ReadAllVm();
  for (size_t i = 0; i < kVmCounterCount; ++i) {
    uint64_t delta = final_counts[i] - vm_baseline_[i];
    if (delta != 0) {
      EncodeFinalVm(trailer_, {static_cast<uint32_t>(i), delta});
    }
  }
  for (size_t i = 0; i < kFiSiteCount; ++i) {
    FiSiteStats stats = fi::FaultInjector::Global().SiteStats(static_cast<FiSite>(i));
    if (stats.calls != 0) {
      EncodeFinalFi(trailer_, {static_cast<uint32_t>(i), stats.calls, stats.injected});
    }
  }
  finalized_ = true;
}

std::string Recorder::BuildHeaderJson() const {
  std::ostringstream out;
  JsonWriter json(out, /*indent_width=*/0);
  json.BeginObject();
  json.Key("format").Value("odf-replay-log");
  json.Key("version").Value(static_cast<uint64_t>(kLogVersion));
  json.Key("mode").Value(RecorderModeName(options_.mode));
  json.Key("fi_seed").Value(fi_seed_);
  json.Key("finalized").Value(finalized_);
  uint64_t ops = 0;
  for (const auto& stream : streams_) {
    ops += stream->ops;
  }
  json.Key("ops").Value(ops);
  json.Key("threads").Value(static_cast<uint64_t>(streams_.size()));
  json.Key("op_kinds").BeginArray();
  for (size_t i = 0; i < kOpKindCount; ++i) {
    json.Value(OpKindName(static_cast<OpKind>(i)));
  }
  json.EndArray();
  json.Key("trace_events").BeginArray();
  for (size_t i = 0; i < kTraceEventCount; ++i) {
    json.Value(TraceEventName(static_cast<TraceEventId>(i)));
  }
  json.EndArray();
  json.Key("fi_sites").BeginArray();
  for (size_t i = 0; i < kFiSiteCount; ++i) {
    json.Value(FiSiteName(static_cast<FiSite>(i)));
  }
  json.EndArray();
  json.Key("vm_counters").BeginArray();
  for (size_t i = 0; i < kVmCounterCount; ++i) {
    json.Value(VmCounterName(static_cast<VmCounter>(i)));
  }
  json.EndArray();
  json.EndObject();
  return out.str();
}

bool Recorder::WriteLogLocked(const std::string& path, std::string* error) {
  if (!ever_started_) {
    if (error != nullptr) {
      *error = "nothing recorded (Recorder::Start was never called)";
    }
    return false;
  }
  // Trailer chunk: final-state records + ring accounting + meta.
  std::vector<uint8_t> trailer_bytes = trailer_;
  for (const trace::Tracer::RingStats& ring : trace::Tracer::Global().CollectRingStats()) {
    EncodeRingStat(trailer_bytes, {ring.tid, ring.appended, ring.overwritten});
  }
  uint64_t events_lost = 0;
  for (const auto& stream : streams_) {
    events_lost += stream->events_lost;
  }
  EncodeMeta(trailer_bytes, MetaKey::kFiSeed, fi_seed_);
  EncodeMeta(trailer_bytes, MetaKey::kMode, static_cast<uint64_t>(options_.mode));
  EncodeMeta(trailer_bytes, MetaKey::kFinalized, finalized_ ? 1 : 0);
  EncodeMeta(trailer_bytes, MetaKey::kOpsDropped, ops_dropped_);
  EncodeMeta(trailer_bytes, MetaKey::kEventsDropped, events_dropped_ + events_lost);
  EncodeMeta(trailer_bytes, MetaKey::kFiDropped, fi_dropped_);
  EncodeMeta(trailer_bytes, MetaKey::kFaultInjectCompiled, ODF_FAULT_INJECT_COMPILED);
  EncodeMeta(trailer_bytes, MetaKey::kTraceCompiled, ODF_TRACE_COMPILED);
  LogChunk trailer_chunk;
  trailer_chunk.kind = 1;
  trailer_chunk.tid = kTrailerTid;
  trailer_chunk.bytes = std::move(trailer_bytes);

  std::vector<LogChunk> open_chunks;  // Snapshot of still-open chunks (running recording).
  std::vector<const LogChunk*> chunks;
  for (const RetainedChunk& retained : retained_) {
    chunks.push_back(&retained.chunk);
  }
  for (const auto& stream : streams_) {
    if (!stream->open.empty()) {
      LogChunk chunk;
      chunk.kind = 0;
      chunk.tid = stream->tid;
      chunk.bytes = stream->open;
      open_chunks.push_back(std::move(chunk));
    }
  }
  for (const LogChunk& chunk : open_chunks) {
    chunks.push_back(&chunk);
  }
  chunks.push_back(&trailer_chunk);
  return WriteLogFile(path, BuildHeaderJson(), chunks, error);
}

bool Recorder::WriteLog(const std::string& path, std::string* error) {
  util::MutexLock guard(mutex_);
  return WriteLogLocked(path, error);
}

std::string Recorder::DumpNow() {
  util::TryMutexLock lock(mutex_);
  if (!lock.ok()) {
    std::fprintf(stderr, "[odf replay] recorder busy; black-box dump skipped\n");
    return "";
  }
  if (!ever_started_) {
    return "";
  }
  std::string path = options_.dump_dir + "/odf-replay-blackbox.odflog";
  std::string error;
  if (!WriteLogLocked(path, &error)) {
    std::fprintf(stderr, "[odf replay] black-box dump failed: %s\n", error.c_str());
    return "";
  }
  uint64_t ops = 0;
  for (const auto& stream : streams_) {
    ops += stream->ops;
  }
  std::fprintf(stderr,
               "[odf replay] flight recorder dumped %llu ops to %s\n"
               "[odf replay] inspect: odf-replay dump %s\n"
               "[odf replay] replay:  odf-replay replay %s\n",
               static_cast<unsigned long long>(ops), path.c_str(), path.c_str(), path.c_str());
  std::fflush(stderr);
  return path;
}

RecorderStats Recorder::CollectStats() const {
  util::MutexLock guard(mutex_);
  RecorderStats stats;
  stats.mode = options_.mode;
  stats.recording = g_recording.load(std::memory_order_relaxed);
  stats.ops_dropped = ops_dropped_;
  stats.fi_dropped = fi_dropped_;
  stats.events_dropped = events_dropped_;
  stats.threads = streams_.size();
  stats.bytes = retained_bytes_ + trailer_.size();
  for (const auto& stream : streams_) {
    stats.ops += stream->ops;
    stats.events += stream->events;
    stats.fi_decisions += stream->fi;
    stats.events_dropped += stream->events_lost;
    stats.bytes += stream->open.size();
  }
  return stats;
}

std::string Recorder::FormatStatus() const {
  RecorderStats stats = CollectStats();
  std::ostringstream out;
  out << "replay " << (ODF_REPLAY_COMPILED ? "compiled-in" : "compiled-out") << " mode "
      << RecorderModeName(stats.mode) << " recording " << (stats.recording ? 1 : 0) << "\n";
  out << "ops " << stats.ops << " events " << stats.events << " fi_decisions "
      << stats.fi_decisions << " bytes " << stats.bytes << "\n";
  out << "ops_dropped " << stats.ops_dropped << " events_dropped " << stats.events_dropped
      << " fi_dropped " << stats.fi_dropped << " threads " << stats.threads << "\n";
  return out.str();
}

bool Recorder::Configure(std::string_view spec, std::string* error) {
  auto fail = [error](const std::string& message) {
    if (error != nullptr) {
      *error = message;
    }
    return false;
  };
  RecorderOptions options;
  bool want_start = false;
  size_t pos = 0;
  while (pos < spec.size()) {
    while (pos < spec.size() && (spec[pos] == ' ' || spec[pos] == '\t' || spec[pos] == '\n')) {
      ++pos;
    }
    if (pos >= spec.size()) {
      break;
    }
    size_t end = pos;
    while (end < spec.size() && spec[end] != ' ' && spec[end] != '\t' && spec[end] != '\n') {
      ++end;
    }
    std::string_view token = spec.substr(pos, end - pos);
    pos = end;
    if (token == "start") {
      want_start = true;
      continue;
    }
    if (token == "stop") {
      Stop();
      continue;
    }
    size_t eq = token.find('=');
    if (eq == std::string_view::npos) {
      return fail("malformed token (want key=value): '" + std::string(token) + "'");
    }
    std::string_view key = token.substr(0, eq);
    std::string value(token.substr(eq + 1));
    if (key == "mode") {
      if (value == "full") {
        options.mode = RecorderMode::kFull;
      } else if (value == "blackbox") {
        options.mode = RecorderMode::kBlackBox;
      } else {
        return fail("unknown mode: '" + value + "'");
      }
    } else if (key == "budget") {
      char* parse_end = nullptr;
      options.blackbox_budget_bytes = std::strtoull(value.c_str(), &parse_end, 10);
      if (parse_end != value.c_str() + value.size() || value.empty()) {
        return fail("bad budget: '" + value + "'");
      }
    } else if (key == "trace") {
      if (value != "0" && value != "1") {
        return fail("bad trace flag (want 0 or 1): '" + value + "'");
      }
      options.force_tracing = value == "1";
    } else if (key == "dir") {
      options.dump_dir = value;
    } else if (key == "dump") {
      util::MutexLock guard(mutex_);
      std::string write_error;
      if (!WriteLogLocked(value, &write_error)) {
        return fail(write_error);
      }
    } else {
      return fail("unknown key: '" + std::string(key) + "'");
    }
  }
  if (want_start && !Start(options)) {
    return fail("already recording");
  }
  return true;
}

}  // namespace replay
}  // namespace odf
