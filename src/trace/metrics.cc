#include "src/trace/metrics.h"

#include <sstream>

namespace odf {

namespace vm_internal {
namespace {

// Live thread shards plus the folded totals of threads that have exited. Leaked (never
// destroyed): thread-exit destructors of detached threads may bump counters arbitrarily
// late, after static destructors.
struct ShardRegistry {
  util::Mutex mu;
  std::vector<Shard*> live ODF_GUARDED_BY(mu);
  std::array<uint64_t, kVmCounterCount> retired ODF_GUARDED_BY(mu){};
};

ShardRegistry& Registry() {
  static ShardRegistry* registry = new ShardRegistry();
  return *registry;
}

// Set once this thread's shard has been folded; its later bumps go to the retired totals.
thread_local bool t_exited = false;

// Folds the thread's shard into the retired totals when the thread exits.
struct ShardOwner {
  ~ShardOwner() {
    ShardRegistry& registry = Registry();
    {
      util::MutexLock guard(registry.mu);
      for (size_t i = 0; i < kVmCounterCount; ++i) {
        registry.retired[i] += t_shard->values[i].load(std::memory_order_relaxed);
      }
      std::erase(registry.live, t_shard);
    }
    delete t_shard;
    t_shard = nullptr;
    t_exited = true;
  }
};

}  // namespace

void CountSlow(VmCounter counter, uint64_t n) {
  size_t index = static_cast<size_t>(counter);
  ShardRegistry& registry = Registry();
  if (t_exited) {
    util::MutexLock guard(registry.mu);
    registry.retired[index] += n;
    return;
  }
  auto* shard = new Shard();
  shard->values[index].store(n, std::memory_order_relaxed);
  {
    util::MutexLock guard(registry.mu);
    registry.live.push_back(shard);
  }
  t_shard = shard;
  thread_local ShardOwner owner;  // First use registers the fold for this thread's exit.
}

}  // namespace vm_internal

std::array<uint64_t, kVmCounterCount> ReadAllVm() {
  vm_internal::ShardRegistry& registry = vm_internal::Registry();
  util::MutexLock guard(registry.mu);
  std::array<uint64_t, kVmCounterCount> totals = registry.retired;
  for (const vm_internal::Shard* shard : registry.live) {
    for (size_t i = 0; i < kVmCounterCount; ++i) {
      totals[i] += shard->values[i].load(std::memory_order_relaxed);
    }
  }
  return totals;
}

uint64_t ReadVm(VmCounter counter) { return ReadAllVm()[static_cast<size_t>(counter)]; }

const char* VmCounterName(VmCounter counter) {
  static constexpr const char* kNames[] = {
#define ODF_VM_NAME_MEMBER(name) #name,
      ODF_VM_COUNTER_LIST(ODF_VM_NAME_MEMBER)
#undef ODF_VM_NAME_MEMBER
  };
  size_t index = static_cast<size_t>(counter);
  return index < kVmCounterCount ? kNames[index] : "?";
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // Leaked; see Tracer::Global.
  return *registry;
}

LatencyHistogram& MetricsRegistry::RegisterHistogram(const std::string& name) {
  util::MutexLock guard(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<LatencyHistogram>();
  }
  return *slot;
}

std::vector<std::pair<std::string, uint64_t>> MetricsRegistry::SnapshotCounters() const {
  std::vector<std::pair<std::string, uint64_t>> snapshot;
  std::array<uint64_t, kVmCounterCount> built_in = ReadAllVm();
  for (size_t i = 0; i < kVmCounterCount; ++i) {
    snapshot.emplace_back(VmCounterName(static_cast<VmCounter>(i)), built_in[i]);
  }
  return snapshot;
}

uint64_t MetricsRegistry::CounterValue(std::string_view name) const {
  for (size_t i = 0; i < kVmCounterCount; ++i) {
    VmCounter counter = static_cast<VmCounter>(i);
    if (name == VmCounterName(counter)) {
      return ReadVm(counter);
    }
  }
  return 0;
}

std::vector<std::pair<std::string, const LatencyHistogram*>> MetricsRegistry::Histograms()
    const {
  util::MutexLock guard(mutex_);
  std::vector<std::pair<std::string, const LatencyHistogram*>> result;
  result.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    result.emplace_back(name, histogram.get());
  }
  return result;
}

std::string MetricsRegistry::FormatVmstat() const {
  std::ostringstream out;
  for (const auto& [name, value] : SnapshotCounters()) {
    out << name << " " << value << "\n";
  }
  for (const auto& [name, histogram] : Histograms()) {
    out << name << "_count " << histogram->TotalCount() << "\n";
    if (histogram->TotalCount() > 0) {
      out << name << "_p50_us " << histogram->PercentileMicros(50.0) << "\n";
      out << name << "_p99_us " << histogram->PercentileMicros(99.0) << "\n";
    }
  }
  return out.str();
}

void MetricsRegistry::ResetForTest() {
  {
    vm_internal::ShardRegistry& registry = vm_internal::Registry();
    util::MutexLock guard(registry.mu);
    registry.retired.fill(0);
    for (vm_internal::Shard* shard : registry.live) {
      for (std::atomic<uint64_t>& value : shard->values) {
        value.store(0, std::memory_order_relaxed);
      }
    }
  }
  util::MutexLock guard(mutex_);
  for (auto& [name, histogram] : histograms_) {
    histogram->Reset();
  }
}

}  // namespace odf
