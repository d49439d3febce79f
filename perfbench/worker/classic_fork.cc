// classic_fork: a parent with 256 MiB of populated, materialised 4 KiB memory forks with
// the classic engine over and over. Each round the child writes one byte to each of 8 spread
// pages (each write timed alone: the kOp sample, a 4 KiB COW fault), then exits and is
// reaped. Classic fork copies every PTE, takes a page reference and an rmap/LRU entry per
// page, and exit drops them all again, so core, phys and reclaim bookkeeping dominate.
//
// Checks: the child reads each page's seed-derived tag before writing (it sees the parent's
// pre-fork bytes) and reads its own write back; after the child is reaped, the parent still
// holds every tag.
#include <array>

#include "perfbench/worker/harness.h"
#include "src/util/rng.h"

namespace perfbench {
namespace {

constexpr uint64_t kBytes = 256ULL << 20;
constexpr uint64_t kPages = kBytes / odf::kPageSize;
constexpr uint64_t kWritesPerRound = 8;

class ClassicFork : public Workload {
 public:
  explicit ClassicFork(const WorkloadOptions& options) : seed_(options.seed) {}

  void Setup() override {
    parent_ = &kernel_.CreateProcess();
    base_ = parent_->Mmap(kBytes, odf::kProtRead | odf::kProtWrite);
    int64_t start = NowNs();
    parent_->address_space().PopulateRange(base_, kBytes);
    populate_s_ = static_cast<double>(NowNs() - start) * 1e-9;
    ODF_CHECK(parent_->MemsetMemory(base_, std::byte{0x5a}, kBytes));
    for (uint64_t page = 0; page < kPages; ++page) {
      parent_->StoreU64(PageVa(page), Tag(page));
    }
  }

  void Run(Phase& phase) override {
    PinThisThread(0);
    ThreadSink& sink = phase.AddSink(0);
    odf::Rng rng(Mix(seed_ ^ std::hash<std::string>{}(phase.name())));
    phase.MarkStart();
    for (uint64_t round = 0; !phase.Expired(); ++round) {
      sink.Calibrate();
      sink.set_round(round);
      Timed root(sink, kBenchRound);
      RunRound(sink, rng);
      sink.CountOps(1);
    }
    phase.MarkEnd();
  }

  bool Teardown() override {
    kernel_.Exit(*parent_, 0);
    return kernel_.allocator().AllFree();
  }

  odf::Kernel& kernel() override { return kernel_; }
  unsigned threads() const override { return 1; }
  double populate_seconds() const override { return populate_s_; }

 private:
  odf::Vaddr PageVa(uint64_t page) const { return base_ + page * odf::kPageSize; }
  uint64_t Tag(uint64_t page) const { return Mix(seed_ * 0x100000001b3ULL + page); }

  void RunRound(ThreadSink& sink, odf::Rng& rng) {
    std::array<uint64_t, kWritesPerRound> pages{};
    for (uint64_t i = 0; i < kWritesPerRound; ++i) {
      pages[i] = i * (kPages / kWritesPerRound) + rng.NextBelow(kPages / kWritesPerRound);
    }
    odf::Process* child = TimedFork(sink, kernel_, *parent_, odf::ForkMode::kClassic);
    if (child == nullptr) {
      return;
    }
    for (uint64_t page : pages) {
      uint64_t before = 0;
      sink.Check(ReadU64(sink, *child, PageVa(page), &before) && before == Tag(page),
                 "child_sees_prefork_bytes");
      const std::byte value{static_cast<unsigned char>(~Tag(page) & 0xff)};
      uint64_t ns = 0;
      if (TimedWrite(sink, *child, PageVa(page), std::span(&value, 1), &ns)) {
        sink.Sample(kOp, ns);
      }
      uint64_t after = 0;
      uint64_t expected = (Tag(page) & ~0xffULL) | (~Tag(page) & 0xff);
      sink.Check(ReadU64(sink, *child, PageVa(page), &after) && after == expected,
                 "child_reads_own_write");
    }
    TimedExit(sink, kernel_, *child);
    TimedWait(sink, kernel_, *parent_);
    for (uint64_t page : pages) {
      uint64_t value = 0;
      sink.Check(ReadU64(sink, *parent_, PageVa(page), &value) && value == Tag(page),
                 "parent_unchanged_after_child_write");
    }
  }

  uint64_t seed_;
  odf::Kernel kernel_;
  odf::Process* parent_ = nullptr;
  odf::Vaddr base_ = 0;
  double populate_s_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeClassicFork(const WorkloadOptions& options) {
  return std::make_unique<ClassicFork>(options);
}

}  // namespace perfbench
