#include "perfbench/worker/harness.h"

#include <pthread.h>
#include <sched.h>

#include <cstring>

#include "src/util/log.h"

namespace perfbench {

int32_t ThreadSink::OpenSpan(SpanName name) {
  if (!traced_) {
    return -1;
  }
  SpanRecord record;
  record.name = name;
  record.thread = thread_;
  record.parent = open_.empty() ? -1 : open_.back();
  record.round = round_;
  spans_.push_back(record);
  auto index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void ThreadSink::CloseSpan(int32_t index, int64_t end_ns) {
  if (index < 0) {
    return;
  }
  spans_[static_cast<size_t>(index)].end_ns = end_ns;
  // Spans close innermost first; anything still open above `index` was leaked by an early
  // return and is closed with it.
  while (!open_.empty() && open_.back() >= index) {
    if (open_.back() != index) {
      spans_[static_cast<size_t>(open_.back())].end_ns = end_ns;
    }
    open_.pop_back();
  }
}

void ThreadSink::AddChildSpan(int32_t parent, SpanName name, int64_t start_ns, int64_t end_ns) {
  if (parent < 0) {
    return;
  }
  SpanRecord record;
  record.name = name;
  record.thread = thread_;
  record.parent = parent;
  record.round = round_;
  record.start_ns = start_ns;
  record.end_ns = end_ns;
  spans_.push_back(record);
}

void ForkProfileSums::Add(const odf::ForkProfile& profile, uint64_t count) {
  forks += count;
  ns.upper_level_ns += profile.upper_level_ns;
  ns.meta_resolve_ns += profile.meta_resolve_ns;
  ns.refcount_ns += profile.refcount_ns;
  ns.entry_copy_ns += profile.entry_copy_ns;
  ns.table_alloc_ns += profile.table_alloc_ns;
  ns.total_ns += profile.total_ns;
}

namespace {

constexpr size_t kRefWords = (32u << 20) / sizeof(uint64_t);
constexpr size_t kRefSlots = 4096;
constexpr size_t kRefSteps = 1024;

}  // namespace

HostRef::HostRef() : words_(kRefWords, 1), ring_(kRefSlots) {}

uint64_t HostRef::RunUnit() {
  const int64_t start = NowNs();
  for (size_t i = 0; i < kRefSteps; ++i, ++salt_) {
    const uint64_t word = Mix(salt_) % kRefWords;
    words_[word] += 1;
    std::unique_ptr<uint64_t[]>& slot = ring_[salt_ % kRefSlots];
    slot = std::make_unique<uint64_t[]>(2 + (word & 3));
    slot[0] = word;
  }
  return static_cast<uint64_t>(NowNs() - start);
}

void ThreadSink::Calibrate() {
  if (NowNs() - last_ref_ns_ < HostRef::kIntervalNs) {
    return;
  }
  Timed timed(*this, kBenchRef);
  Sample(kRef, store_.ref.RunUnit());
  timed.End();
  last_ref_ns_ = NowNs();
}

ThreadSink& Phase::AddSink(uint16_t thread) {
  ODF_CHECK(thread < stores_.size());
  sinks_.push_back(std::make_unique<ThreadSink>(thread, traced_, stores_[thread]));
  return *sinks_.back();
}

odf::Process* TimedFork(ThreadSink& sink, odf::Kernel& kernel, odf::Process& parent,
                        odf::ForkMode mode) {
  odf::ForkProfile profile;
  odf::ForkProfile* profile_ptr = sink.traced() ? &profile : nullptr;
  Timed timed(sink, kProcFork);
  odf::Process* child = kernel.TryFork(parent, mode, profile_ptr);
  uint64_t ns = timed.End();
  sink.Attempt(child != nullptr);
  if (child == nullptr) {
    return nullptr;
  }
  sink.Sample(kFork, ns);
  if (profile_ptr != nullptr) {
    sink.AddForkProfile(profile);
    // The copy's position inside the fork is not recorded; only its length matters for
    // self time, so it is placed at the fork's start.
    int64_t copy_end = timed.start_ns() + static_cast<int64_t>(profile.total_ns);
    sink.AddChildSpan(timed.index(), kCoreCopy, timed.start_ns(), copy_end);
  }
  return child;
}

void TimedExit(ThreadSink& sink, odf::Kernel& kernel, odf::Process& process) {
  Timed timed(sink, kProcExit);
  kernel.Exit(process, 0);
  sink.Sample(kExit, timed.End());
  sink.Attempt(true);
}

void TimedWait(ThreadSink& sink, odf::Kernel& kernel, odf::Process& parent) {
  Timed timed(sink, kProcWait);
  odf::Pid pid = kernel.Wait(parent);
  sink.Sample(kWait, timed.End());
  sink.Attempt(pid >= 0);
}

bool TimedWrite(ThreadSink& sink, odf::Process& process, odf::Vaddr va,
                std::span<const std::byte> data, uint64_t* ns) {
  Timed timed(sink, kMmWrite);
  bool ok = process.WriteMemory(va, data);
  uint64_t elapsed = timed.End();
  if (ns != nullptr) {
    *ns = elapsed;
  }
  sink.Attempt(ok);
  sink.CountWrites(1);
  return ok;
}

bool TimedRead(ThreadSink& sink, odf::Process& process, odf::Vaddr va, std::span<std::byte> out,
               uint64_t* ns) {
  Timed timed(sink, kMmRead);
  bool ok = process.ReadMemory(va, out);
  uint64_t elapsed = timed.End();
  if (ns != nullptr) {
    *ns = elapsed;
  }
  sink.Attempt(ok);
  return ok;
}

bool TimedTouch(ThreadSink& sink, odf::Process& process, odf::Vaddr va, uint64_t length) {
  Timed timed(sink, kMmTouch);
  bool ok = process.TouchRange(va, length, odf::AccessType::kWrite);
  timed.End();
  sink.Attempt(ok);
  sink.CountWrites(length / odf::kPageSize);
  return ok;
}

bool ReadU64(ThreadSink& sink, odf::Process& process, odf::Vaddr va, uint64_t* value,
             uint64_t* ns) {
  std::array<std::byte, 8> bytes{};
  if (!TimedRead(sink, process, va, bytes, ns)) {
    return false;
  }
  std::memcpy(value, bytes.data(), sizeof(*value));
  return true;
}

bool WriteU64(ThreadSink& sink, odf::Process& process, odf::Vaddr va, uint64_t value,
              uint64_t* ns) {
  std::array<std::byte, 8> bytes{};
  std::memcpy(bytes.data(), &value, sizeof(value));
  return TimedWrite(sink, process, va, bytes, ns);
}

namespace {

std::vector<size_t> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<size_t> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (size_t cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) {
        cpus.push_back(cpu);
      }
    }
  }
  return cpus;
}

}  // namespace

unsigned AvailableCpus() {
  auto count = static_cast<unsigned>(AllowedCpus().size());
  return count == 0 ? 1 : count;
}

void PinThisThread(unsigned slot) {
  static const std::vector<size_t> cpus = AllowedCpus();
  if (cpus.empty()) {
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[slot % cpus.size()], &set);
  // Best effort: a refused pin leaves the thread unpinned, which costs steadiness only.
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

}  // namespace perfbench
