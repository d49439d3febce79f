// reclaim_pressure: simulated RAM is capped so that demand is ~115 % of the pool, with kswapd
// running. A long-lived on-demand child shares tables with the parent; one load thread
// makes random accesses (70 % 8-byte writes, 30 % 8-byte reads, each timed alone: the kOp
// sample) over both processes' working sets, and every 1k accesses forks a short-lived
// on-demand child that exits at once. This is the workload where reverse-map lookups, LRU
// aging, shrinking and swap run on the access path.
//
// Checks: every read returns what that process last wrote there (across eviction and swap-in,
// and independently in parent and child after copy-on-write).
#include "perfbench/worker/harness.h"
#include "src/util/rng.h"

namespace perfbench {
namespace {

constexpr uint64_t kPoolFrames = 16384;  // 64 MiB of simulated RAM.
// Each process's working set. Parent and child start out sharing every page; as their writes
// copy-on-write, distinct data pages approach 2 * kPagesPerProcess = ~115 % of the pool.
constexpr uint64_t kPagesPerProcess = kPoolFrames * 115 / 200;
constexpr uint64_t kForkEvery = 1000;
constexpr double kWriteShare = 0.7;
constexpr uint64_t kInitial = 0x5a5a5a5a5a5a5a5aULL;

class ReclaimPressure : public Workload {
 public:
  explicit ReclaimPressure(const WorkloadOptions& options) : seed_(options.seed) {}

  void Setup() override {
    kernel_.SetMemoryLimitFrames(kPoolFrames);
    kernel_.StartKswapd();
    parent_ = &kernel_.CreateProcess();
    base_ = parent_->Mmap(kPagesPerProcess * odf::kPageSize, odf::kProtRead | odf::kProtWrite);
    ODF_CHECK(parent_->MemsetMemory(base_, std::byte{0x5a}, kPagesPerProcess * odf::kPageSize));
    child_ = kernel_.TryFork(*parent_, odf::ForkMode::kOnDemand);
    ODF_CHECK(child_ != nullptr);
    for (auto& shadow : shadows_) {
      shadow.assign(kPagesPerProcess, kInitial);
    }
  }

  void Run(Phase& phase) override {
    PinThisThread(0);
    ThreadSink& sink = phase.AddSink(0);
    odf::Rng rng(Mix(seed_ ^ std::hash<std::string>{}(phase.name())));
    std::array<odf::Process*, 2> processes = {parent_, child_};
    phase.MarkStart();
    uint64_t access = 0;
    while (!phase.Expired()) {
      for (uint64_t i = 0; i < kForkEvery; ++i, ++access) {
        sink.Calibrate();
        sink.set_round(access);
        Timed root(sink, kBenchRound);
        const uint64_t which = rng.NextBelow(2);
        const uint64_t page = rng.NextBelow(kPagesPerProcess);
        const odf::Vaddr va = base_ + page * odf::kPageSize;
        uint64_t& shadow = shadows_[which][page];
        uint64_t ns = 0;
        if (rng.NextBool(kWriteShare)) {
          const uint64_t value = rng.Next();
          if (WriteU64(sink, *processes[which], va, value, &ns)) {
            sink.Sample(kOp, ns);
            shadow = value;
          }
        } else {
          uint64_t value = 0;
          bool ok = ReadU64(sink, *processes[which], va, &value, &ns);
          if (ok) {
            sink.Sample(kOp, ns);
          }
          sink.Check(ok && value == shadow, "read_returns_last_write");
        }
        sink.CountOps(1);
      }
      sink.set_round(access);
      Timed root(sink, kBenchRound);
      if (odf::Process* shortlived = TimedFork(sink, kernel_, *parent_, odf::ForkMode::kOnDemand)) {
        TimedExit(sink, kernel_, *shortlived);
        TimedWait(sink, kernel_, *parent_);
      }
    }
    phase.MarkEnd();
  }

  bool Teardown() override {
    kernel_.StopKswapd();
    kernel_.Exit(*child_, 0);
    kernel_.Wait(*parent_);
    kernel_.Exit(*parent_, 0);
    return kernel_.allocator().AllFree();
  }

  odf::Kernel& kernel() override { return kernel_; }
  unsigned threads() const override { return 1; }

 private:
  uint64_t seed_;
  odf::Kernel kernel_;
  odf::Process* parent_ = nullptr;
  odf::Process* child_ = nullptr;
  odf::Vaddr base_ = 0;
  std::array<std::vector<uint64_t>, 2> shadows_;
};

}  // namespace

std::unique_ptr<Workload> MakeReclaimPressure(const WorkloadOptions& options) {
  return std::make_unique<ReclaimPressure>(options);
}

}  // namespace perfbench
