#include "src/trace/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace odf {

const char* TraceEventName(TraceEventId id) {
  static constexpr const char* kNames[] = {
#define ODF_TRACE_NAME_MEMBER(name) #name,
      ODF_TRACEPOINT_LIST(ODF_TRACE_NAME_MEMBER)
#undef ODF_TRACE_NAME_MEMBER
  };
  size_t index = static_cast<size_t>(id);
  return index < kTraceEventCount ? kNames[index] : "?";
}

namespace trace {

namespace {

// Each thread caches its ring; the Tracer owns the storage (see header lifetime note).
thread_local TraceRing* t_ring = nullptr;

// Honors `ODF_TRACE=1` in the environment so benchmarks can be traced without code changes.
[[maybe_unused]] const bool g_env_enabled = [] {
  const char* v = std::getenv("ODF_TRACE");
  bool on = v != nullptr && std::atoi(v) != 0;
  if (on) {
    g_trace_enabled.store(true, std::memory_order_relaxed);
  }
  return on;
}();

}  // namespace

void SetEnabled(bool enabled) { g_trace_enabled.store(enabled, std::memory_order_relaxed); }

uint64_t NowNanos() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch).count());
}

void Emit(TraceEventId id, int32_t pid, uint64_t a0, uint64_t a1, uint64_t a2) {
  TraceRing& ring = Tracer::Global().RingForThisThread();
  TraceEvent event;
  event.ts_ns = NowNanos();
  event.a0 = a0;
  event.a1 = a1;
  event.a2 = a2;
  event.pid = pid;
  event.id = id;
  event.tid = ring.tid();
  ring.Append(event);
}

std::vector<TraceEvent> TraceRing::SnapshotSince(uint64_t from) const {
  uint64_t head = head_.load(std::memory_order_acquire);
  uint64_t start = head > kCapacity ? head - kCapacity : 0;
  start = std::max(start, from);
  std::vector<TraceEvent> events;
  if (start >= head) {
    return events;
  }
  events.reserve(static_cast<size_t>(head - start));
  for (uint64_t i = start; i < head; ++i) {
    events.push_back(slots_[i & (kCapacity - 1)]);
  }
  return events;
}

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();  // Leaked: emitting threads may outlive static dtors.
  return *tracer;
}

TraceRing& Tracer::RingForThisThread() {
  if (t_ring == nullptr) {
    util::MutexLock guard(mutex_);
    rings_.push_back(std::make_unique<TraceRing>(static_cast<uint16_t>(rings_.size())));
    t_ring = rings_.back().get();
  }
  return *t_ring;
}

std::vector<std::vector<TraceEvent>> Tracer::CollectPerThread() const {
  util::MutexLock guard(mutex_);
  std::vector<std::vector<TraceEvent>> per_thread;
  per_thread.reserve(rings_.size());
  for (const auto& ring : rings_) {
    per_thread.push_back(ring->Snapshot());
  }
  return per_thread;
}

std::vector<TraceEvent> Tracer::CollectAll() const {
  std::vector<TraceEvent> all;
  for (auto& events : CollectPerThread()) {
    all.insert(all.end(), events.begin(), events.end());
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const TraceEvent& a, const TraceEvent& b) { return a.ts_ns < b.ts_ns; });
  return all;
}

std::vector<const TraceRing*> Tracer::Rings() const {
  util::MutexLock guard(mutex_);
  std::vector<const TraceRing*> rings;
  rings.reserve(rings_.size());
  for (const auto& ring : rings_) {
    rings.push_back(ring.get());
  }
  return rings;
}

std::vector<Tracer::RingStats> Tracer::CollectRingStats() const {
  util::MutexLock guard(mutex_);
  std::vector<RingStats> stats;
  stats.reserve(rings_.size());
  for (const auto& ring : rings_) {
    stats.push_back({ring->tid(), ring->TotalAppended(), ring->OverwrittenCount()});
  }
  return stats;
}

void Tracer::Clear() {
  util::MutexLock guard(mutex_);
  for (auto& ring : rings_) {
    ring->Reset();
  }
}

size_t Tracer::ThreadCount() const {
  util::MutexLock guard(mutex_);
  return rings_.size();
}

std::string Tracer::FormatDump() const {
  // Mirrors the ftrace text layout:   <task>-<tid> [...] <ts>: <event>: args
  std::ostringstream out;
  std::vector<TraceEvent> events = CollectAll();
  out << "# tracer: odf\n";
  out << "# entries: " << events.size() << "\n";
  out << "#     TID      TIMESTAMP   EVENT\n";
  for (const TraceEvent& event : events) {
    char ts[32];
    std::snprintf(ts, sizeof(ts), "%12.6f", static_cast<double>(event.ts_ns) / 1e9);
    out << "  tid-" << event.tid << " " << ts << ": " << TraceEventName(event.id)
        << ": pid=" << event.pid << " a0=" << event.a0 << " a1=" << event.a1
        << " a2=" << event.a2 << "\n";
  }
  return out.str();
}

}  // namespace trace
}  // namespace odf
