// snapshot_server: the paper's latency-sensitive application. A KvStore holds kKeys values
// of 1 KiB; one server thread answers a 50/50 uniform Get/Set mix scheduled at a constant
// offered rate (open loop: each request is timed from its due time, the kOp sample). Every
// 10k Sets the server forks on demand and a second thread has the child write a snapshot
// (KvStore::SaveSnapshot) and exit while serving continues, as Redis BGSAVE does; at most one
// snapshot is in flight, and a due snapshot that finds one running is skipped and counted.
// The child reads through the tables the parent's Sets copy-on-write, so stalls from table
// COW faults show up as queueing in the request tail.
//
// Checks: every Get matches a host-side shadow of the last Set; every snapshot holds kKeys
// entries, and 64 keys sampled at fork time match the shadow as it was then.
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>

#include "perfbench/worker/harness.h"
#include "src/apps/kvstore.h"
#include "src/util/rng.h"

namespace perfbench {
namespace {

constexpr uint64_t kKeys = 100000;
constexpr uint64_t kValueSize = 1024;
// A value is zero except one signature byte every 64 bytes (the layout FillSequential uses),
// so the shadow keeps 16 bytes per key.
constexpr uint64_t kSigBytes = kValueSize / 64;
constexpr uint64_t kSnapshotEvery = 10000;
constexpr uint64_t kSampledKeys = 64;
// About a quarter of the server's capacity with snapshots running (measured closed-loop at
// ~265k requests/s on a 4-vCPU Xeon). Half of it overloaded the server whenever the shared
// host slowed down, and the backlog then grew without bound (see perfbench/README.md).
constexpr double kOfferedRate = 60000;
constexpr const char* kDumpPath = "/dump.rdb";

using Signature = std::array<uint8_t, kSigBytes>;

std::string KeyName(uint64_t index) { return "key:" + std::to_string(index); }

void BuildValue(const Signature& sig, std::string* value) {
  value->assign(kValueSize, '\0');
  for (uint64_t j = 0; j < kSigBytes; ++j) {
    (*value)[j * 64] = static_cast<char>(sig[j]);
  }
}

struct SnapshotJob {
  odf::Process* child = nullptr;
  uint64_t id = 0;
  std::unordered_map<std::string, Signature> sampled;
};

class SnapshotServer : public Workload {
 public:
  explicit SnapshotServer(const WorkloadOptions& options) : seed_(options.seed) {}

  void Setup() override {
    server_ = &kernel_.CreateProcess();
    store_.emplace(odf::KvStore::Create(kernel_, *server_, kKeys * (kValueSize + 128) + (512ULL << 20)));
    odf::Rng fill_rng(Mix(seed_));
    odf::Rng shadow_rng = fill_rng;  // Replays FillSequential's draws into the shadow.
    store_->FillSequential(kKeys, kValueSize, fill_rng);
    shadow_.resize(kKeys);
    for (Signature& sig : shadow_) {
      for (uint8_t& byte : sig) {
        byte = static_cast<uint8_t>(shadow_rng.Next());
      }
    }
  }

  void Run(Phase& phase) override {
    ThreadSink& server_sink = phase.AddSink(0);
    ThreadSink& snapshot_sink = phase.AddSink(1);
    phase.SetScalar("offered_rate", kOfferedRate);
    stop_ = false;
    done_.store(false);
    std::thread snapshotter([this, &snapshot_sink] { SnapshotLoop(snapshot_sink); });
    ServeLoop(phase, server_sink);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    snapshotter.join();
    if (in_flight_) {
      TimedWait(server_sink, kernel_, *server_);
      in_flight_ = false;
    }
  }

  bool Teardown() override {
    kernel_.fs().Remove(kDumpPath);
    kernel_.Exit(*server_, 0);
    return kernel_.allocator().AllFree();
  }

  odf::Kernel& kernel() override { return kernel_; }
  unsigned threads() const override { return 2; }

 private:
  void ServeLoop(Phase& phase, ThreadSink& sink) {
    PinThisThread(0);
    odf::Rng rng(Mix(seed_ ^ std::hash<std::string>{}(phase.name())));
    const double period_ns = 1e9 / kOfferedRate;
    const auto requests = static_cast<uint64_t>(phase.seconds() * kOfferedRate);
    std::string value;
    std::string expected;
    uint64_t changed = 0;
    uint64_t skipped = 0;
    int64_t lag_max = 0;
    phase.MarkStart();
    const int64_t t0 = phase.start_ns();
    for (uint64_t k = 0; k < requests; ++k) {
      const int64_t due = t0 + static_cast<int64_t>(static_cast<double>(k) * period_ns);
      sink.Calibrate();
      if (NowNs() < due) {
        Timed idle(sink, kIdleWait);
        while (NowNs() < due) {
        }
        idle.End();
        lag_max = std::max(lag_max, NowNs() - due);
      }
      sink.set_round(k);
      Timed root(sink, kBenchRound);
      if (in_flight_ && done_.load(std::memory_order_acquire)) {
        TimedWait(sink, kernel_, *server_);
        in_flight_ = false;
        done_.store(false, std::memory_order_relaxed);
      }
      const int64_t start = NowNs();
      const uint64_t key = rng.NextBelow(kKeys);
      if (rng.NextBool(0.5)) {
        Signature& sig = shadow_[key];
        for (uint8_t& byte : sig) {
          byte = static_cast<uint8_t>(rng.Next());
        }
        BuildValue(sig, &value);
        Timed set(sink, kAppsSet);
        store_->Set(KeyName(key), value);
        sink.Sample(kSet, set.End());
        sink.CountWrites(1);
        ++changed;
      } else {
        Timed get(sink, kAppsGet);
        std::optional<std::string> got = store_->Get(KeyName(key));
        sink.Sample(kGet, get.End());
        BuildValue(shadow_[key], &expected);
        sink.Check(got.has_value() && *got == expected, "get_matches_last_set");
      }
      sink.Attempt(true);
      const int64_t end = NowNs();
      sink.Sample(kOp, static_cast<uint64_t>(end - due));
      sink.Sample(kQueue, static_cast<uint64_t>(start - due));
      sink.CountOps(1);
      if (changed >= kSnapshotEvery) {
        changed = 0;
        if (in_flight_) {
          ++skipped;
        } else {
          StartSnapshot(sink, rng, k);
        }
      }
    }
    phase.MarkEnd();
    phase.SetScalar("snapshots_skipped", static_cast<double>(skipped));
    phase.SetScalar("generator_lag_ms_max", static_cast<double>(lag_max) * 1e-6);
  }

  void StartSnapshot(ThreadSink& sink, odf::Rng& rng, uint64_t id) {
    odf::Process* child = TimedFork(sink, kernel_, *server_, odf::ForkMode::kOnDemand);
    if (child == nullptr) {
      return;
    }
    SnapshotJob job;
    job.child = child;
    job.id = id;
    for (uint64_t i = 0; i < kSampledKeys; ++i) {
      uint64_t key = rng.NextBelow(kKeys);
      job.sampled[KeyName(key)] = shadow_[key];
    }
    in_flight_ = true;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      job_ = std::move(job);
    }
    cv_.notify_all();
  }

  void SnapshotLoop(ThreadSink& sink) {
    PinThisThread(1);
    for (;;) {
      SnapshotJob job;
      {
        Timed idle(sink, kIdleWait);
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] { return job_.has_value() || stop_; });
        if (!job_.has_value()) {
          return;
        }
        job = std::move(*job_);
        job_.reset();
      }
      sink.set_round(job.id);
      Timed root(sink, kBenchRound);
      odf::KvStore view = odf::KvStore::Attach(kernel_, *job.child, store_->meta_base());
      {
        Timed save(sink, kAppsSave);
        view.SaveSnapshot(kDumpPath);
        sink.Sample(kSnapshot, save.End());
        sink.Attempt(true);
      }
      {
        Timed verify(sink, kBenchVerify);
        VerifySnapshot(sink, job);
      }
      TimedExit(sink, kernel_, *job.child);
      root.End();
      done_.store(true, std::memory_order_release);
    }
  }

  // Walks the dump's [key_len u32][val_len u32][key][value] records.
  void VerifySnapshot(ThreadSink& sink, const SnapshotJob& job) {
    std::shared_ptr<odf::MemFile> file = kernel_.fs().Lookup(kDumpPath);
    if (file == nullptr) {
      sink.Check(false, "snapshot_exists");
      return;
    }
    uint64_t offset = 0;
    uint64_t records = 0;
    uint64_t matched = 0;
    std::string key;
    std::string value;
    std::string expected;
    const uint64_t size = file->size();
    while (offset + 8 <= size) {
      std::array<std::byte, 8> header{};
      file->Read(offset, header);
      uint32_t key_len = 0;
      uint32_t val_len = 0;
      std::memcpy(&key_len, header.data(), 4);
      std::memcpy(&val_len, header.data() + 4, 4);
      key.resize(key_len);
      file->Read(offset + 8, std::as_writable_bytes(std::span(key.data(), key.size())));
      auto it = job.sampled.find(key);
      if (it != job.sampled.end()) {
        value.resize(val_len);
        file->Read(offset + 8 + key_len,
                   std::as_writable_bytes(std::span(value.data(), value.size())));
        BuildValue(it->second, &expected);
        if (value == expected) {
          ++matched;
        }
      }
      offset += 8 + key_len + val_len;
      ++records;
    }
    sink.Check(offset == size && records == kKeys, "snapshot_key_count");
    sink.Check(matched == job.sampled.size(), "snapshot_sampled_keys");
  }

  uint64_t seed_;
  odf::Kernel kernel_;
  odf::Process* server_ = nullptr;
  std::optional<odf::KvStore> store_;
  std::vector<Signature> shadow_;
  // Server-thread state.
  bool in_flight_ = false;
  // Hand-off to the snapshot thread.
  std::mutex mutex_;
  std::condition_variable cv_;
  std::optional<SnapshotJob> job_;
  bool stop_ = false;
  // Set by the snapshot thread once the child has exited; the server then reaps it.
  std::atomic<bool> done_{false};
};

}  // namespace

std::unique_ptr<Workload> MakeSnapshotServer(const WorkloadOptions& options) {
  return std::make_unique<SnapshotServer>(options);
}

}  // namespace perfbench
