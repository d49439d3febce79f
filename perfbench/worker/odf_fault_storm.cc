// odf_fault_storm: min(4, CPUs - 1) load threads (one CPU is left to the rest of the host,
// which keeps the figures steady), each owning a parent with 1 GiB populated of
// which the first 64 MiB are materialised. Each round a thread forks its parent on demand,
// then its child writes every page of the 64 MiB. The first write into each 2 MiB chunk is
// timed alone (the kOp sample: a PTE-table COW plus a 4 KiB COW); TouchRange writes the
// chunk's other pages. Then the child exits and is reaped. The mm fault path dominates, with
// pt locks, phys allocation and reclaim LRU admission under real multi-core contention; the
// fork itself only shares tables.
//
// Checks: the child reads one seed-derived tag per chunk (bytes the COW copy carried over
// from the parent) and its own first writes; after the child is reaped the parent still
// holds every tag and its fill pattern where the child wrote.
#include <algorithm>
#include <thread>

#include "perfbench/worker/harness.h"

namespace perfbench {
namespace {

constexpr uint64_t kPopulated = 1ULL << 30;
constexpr uint64_t kWritten = 64ULL << 20;
constexpr uint64_t kChunk = odf::kHugePageSize;
constexpr uint64_t kChunks = kWritten / kChunk;
// One tagged page per chunk, away from the chunk's first page (which the child writes). The
// tag sits 8 bytes into the page, past the byte TouchRange writes.
constexpr uint64_t kTagOffset = 17 * odf::kPageSize;
constexpr uint64_t kFill = 0x5a5a5a5a5a5a5a5aULL;

class OdfFaultStorm : public Workload {
 public:
  explicit OdfFaultStorm(const WorkloadOptions& options)
      : seed_(options.seed), threads_(std::clamp(options.cpus - 1, 1U, 4U)) {}

  void Setup() override {
    for (unsigned t = 0; t < threads_; ++t) {
      odf::Process& parent = kernel_.CreateProcess();
      odf::Vaddr base = parent.Mmap(kPopulated, odf::kProtRead | odf::kProtWrite);
      int64_t start = NowNs();
      parent.address_space().PopulateRange(base, kPopulated);
      populate_s_ += static_cast<double>(NowNs() - start) * 1e-9;
      ODF_CHECK(parent.MemsetMemory(base, std::byte{0x5a}, kWritten));
      for (uint64_t chunk = 0; chunk < kChunks; ++chunk) {
        parent.StoreU64(base + chunk * kChunk + kTagOffset + 8, Tag(t, chunk));
      }
      parents_.push_back(&parent);
      bases_.push_back(base);
    }
  }

  void Run(Phase& phase) override {
    std::vector<ThreadSink*> sinks;
    for (unsigned t = 0; t < threads_; ++t) {
      sinks.push_back(&phase.AddSink(static_cast<uint16_t>(t)));
    }
    phase.MarkStart();
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads_; ++t) {
      workers.emplace_back([this, &phase, t, sink = sinks[t]] {
        PinThisThread(t);
        for (uint64_t round = 0; !phase.Expired(); ++round) {
          sink->set_round(round);
          Timed root(*sink, kBenchRound);
          RunRound(*sink, t);
        }
      });
    }
    for (std::thread& worker : workers) {
      worker.join();
    }
    phase.MarkEnd();
  }

  bool Teardown() override {
    for (odf::Process* parent : parents_) {
      kernel_.Exit(*parent, 0);
    }
    return kernel_.allocator().AllFree();
  }

  odf::Kernel& kernel() override { return kernel_; }
  unsigned threads() const override { return threads_; }
  double populate_seconds() const override { return populate_s_; }

 private:
  uint64_t Tag(unsigned thread, uint64_t chunk) const {
    return Mix(seed_ * 0x100000001b3ULL + thread * kChunks + chunk);
  }

  void RunRound(ThreadSink& sink, unsigned t) {
    odf::Process& parent = *parents_[t];
    const odf::Vaddr base = bases_[t];
    odf::Process* child = TimedFork(sink, kernel_, parent, odf::ForkMode::kOnDemand);
    if (child == nullptr) {
      return;
    }
    for (uint64_t chunk = 0; chunk < kChunks; ++chunk) {
      sink.Calibrate();
      odf::Vaddr va = base + chunk * kChunk;
      uint64_t ns = 0;
      if (WriteU64(sink, *child, va, ~Tag(t, chunk), &ns)) {
        sink.Sample(kOp, ns);
      }
      TimedTouch(sink, *child, va + odf::kPageSize, kChunk - odf::kPageSize);
    }
    sink.CountOps(kWritten / odf::kPageSize);
    for (uint64_t chunk = 0; chunk < kChunks; ++chunk) {
      odf::Vaddr va = base + chunk * kChunk;
      uint64_t value = 0;
      sink.Check(ReadU64(sink, *child, va + kTagOffset + 8, &value) && value == Tag(t, chunk),
                 "child_sees_prefork_bytes");
      sink.Check(ReadU64(sink, *child, va, &value) && value == ~Tag(t, chunk),
                 "child_reads_own_write");
    }
    TimedExit(sink, kernel_, *child);
    TimedWait(sink, kernel_, parent);
    for (uint64_t chunk = 0; chunk < kChunks; ++chunk) {
      odf::Vaddr va = base + chunk * kChunk;
      uint64_t value = 0;
      sink.Check(ReadU64(sink, parent, va + kTagOffset + 8, &value) && value == Tag(t, chunk),
                 "parent_unchanged_after_child_write");
      sink.Check(ReadU64(sink, parent, va + kTagOffset, &value) && value == kFill,
                 "parent_unchanged_after_child_write");
      sink.Check(ReadU64(sink, parent, va, &value) && value == kFill,
                 "parent_unchanged_after_child_write");
    }
  }

  uint64_t seed_;
  unsigned threads_;
  odf::Kernel kernel_;
  std::vector<odf::Process*> parents_;
  std::vector<odf::Vaddr> bases_;
  double populate_s_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeOdfFaultStorm(const WorkloadOptions& options) {
  return std::make_unique<OdfFaultStorm>(options);
}

}  // namespace perfbench
