// odf::replay — flight recorder + deterministic replay (docs/replay.md): the varint/delta
// codec, record → write → parse → replay round trips (including pinned fault injection and
// --until partial replay), divergence detection, black-box budget bounding, ring-overwrite
// accounting, the procfs knob, and the abort-hook crash dump.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "src/debug/verify.h"
#include "src/fi/fault_inject.h"
#include "src/proc/kernel.h"
#include "src/proc/process.h"
#include "src/proc/procfs.h"
#include "src/replay/log.h"
#include "src/replay/recorder.h"
#include "src/replay/replayer.h"
#include "src/trace/metrics.h"
#include "src/trace/trace.h"
#include "src/util/log.h"

namespace odf {
namespace {

TEST(ReplayCodecTest, VarintRoundTrip) {
  std::vector<uint8_t> buffer;
  const uint64_t unsigned_values[] = {0, 1, 127, 128, 300, 16383, 16384,
                                      (1ull << 32) + 5, ~0ull};
  for (uint64_t value : unsigned_values) {
    replay::PutVarint(buffer, value);
  }
  const int64_t signed_values[] = {0, -1, 1, -64, 64, -4096, INT64_MIN, INT64_MAX};
  for (int64_t value : signed_values) {
    replay::PutZigZag(buffer, value);
  }
  replay::ByteReader reader{std::span<const uint8_t>(buffer)};
  for (uint64_t value : unsigned_values) {
    uint64_t decoded = 0;
    ASSERT_TRUE(reader.ReadVarint(&decoded));
    EXPECT_EQ(decoded, value);
  }
  for (int64_t value : signed_values) {
    int64_t decoded = 0;
    ASSERT_TRUE(reader.ReadZigZag(&decoded));
    EXPECT_EQ(decoded, value);
  }
  EXPECT_TRUE(reader.AtEnd());
}

TEST(ReplayCodecTest, ZigZagKeepsSmallMagnitudesSmall) {
  // The point of zigzag: -1 must not cost ten bytes.
  std::vector<uint8_t> buffer;
  replay::PutZigZag(buffer, -1);
  EXPECT_EQ(buffer.size(), 1u);
  buffer.clear();
  replay::PutZigZag(buffer, 63);
  EXPECT_EQ(buffer.size(), 1u);
}

TEST(ReplayCodecTest, TruncatedVarintFailsCleanly) {
  std::vector<uint8_t> buffer;
  replay::PutVarint(buffer, ~0ull);
  buffer.pop_back();
  replay::ByteReader reader{std::span<const uint8_t>(buffer)};
  uint64_t decoded = 0;
  EXPECT_FALSE(reader.ReadVarint(&decoded));
}

#if ODF_REPLAY_COMPILED

// Every test leaves the (process-global) recorder, injector, and tracer as found.
class ReplayTest : public ::testing::Test {
 protected:
  void SetUp() override { ResetGlobals(); }
  void TearDown() override { ResetGlobals(); }

  static void ResetGlobals() {
    replay::Recorder::Global().Stop();
    fi::FaultInjector::Global().Reset();
    trace::SetEnabled(false);
    trace::Tracer::Global().Clear();
  }

  static std::string TempPath(const std::string& name) {
    return ::testing::TempDir() + name;
  }

  // A mixed fork/fault/reclaim workload: COW traffic under a frame limit with a window of
  // armed fault injection, then explicit reclaim and child teardown. Deterministic given
  // the fi seed, which is exactly what the recorder captures.
  static void RunMixedWorkload(Kernel& kernel) {
    Process& parent = kernel.CreateProcess();
    constexpr uint64_t kPages = 48;
    Vaddr buf = parent.Mmap(kPages * kPageSize, kProtRead | kProtWrite);
    std::vector<std::byte> page(kPageSize);
    for (uint64_t i = 0; i < kPages; ++i) {
      for (uint64_t j = 0; j < kPageSize; ++j) {
        page[j] = static_cast<std::byte>((i * 31 + j) & 0xff);
      }
      ASSERT_TRUE(parent.WriteMemory(buf + i * kPageSize, page));
    }
    kernel.SetMemoryLimitFrames(80);
    Process* child = kernel.TryFork(parent, ForkMode::kOnDemand);
    ASSERT_NE(child, nullptr);
    for (uint64_t i = 0; i < kPages; i += 2) {
      child->MemsetMemory(buf + i * kPageSize, static_cast<std::byte>(i & 0xff), kPageSize);
    }
    FiSiteConfig config;
    config.interval = 5;
    config.times = 3;
    fi::FaultInjector::Global().Arm(FiSite::k_frame_alloc, config);
    for (uint64_t i = 1; i < kPages; i += 2) {
      parent.TouchRange(buf + i * kPageSize, kPageSize, AccessType::kWrite);
    }
    fi::FaultInjector::Global().Disarm(FiSite::k_frame_alloc);
    kernel.ReclaimMemory(8);
    kernel.Exit(*child, 0);
    kernel.Wait(parent);
  }

  // Records the mixed workload into `path` (full mode) and returns the parsed log.
  static replay::ReplayLog RecordMixedWorkload(const std::string& path) {
    replay::RecorderOptions options;
    options.mode = replay::RecorderMode::kFull;
    options.force_tracing = true;
    EXPECT_TRUE(replay::Recorder::Global().Start(options));
    {
      Kernel kernel;
      RunMixedWorkload(kernel);
      std::string error;
      EXPECT_TRUE(replay::StopAndWriteLog(kernel, path, &error)) << error;
    }
    replay::ReplayLog log;
    std::string error;
    EXPECT_TRUE(replay::ReadLogFile(path, &log, &error)) << error;
    return log;
  }
};

TEST_F(ReplayTest, RecordWriteParseRoundTrip) {
  replay::ReplayLog log = RecordMixedWorkload(TempPath("replay_roundtrip.odflog"));
  EXPECT_TRUE(log.finalized);
  EXPECT_TRUE(log.Complete());
  EXPECT_GT(log.ops.size(), 50u);
  EXPECT_EQ(log.ops_dropped, 0u);
  // Seqs are dense and 1-based after parsing.
  for (size_t i = 0; i < log.ops.size(); ++i) {
    ASSERT_EQ(log.ops[i].seq, i + 1);
  }
  // The recording forced tracing on, so the log carries trace events.
  if (ODF_TRACE_COMPILED) {
    EXPECT_FALSE(log.events.empty());
  }
  ASSERT_EQ(log.final_processes.size(), 1u);  // Parent survives; child was reaped.
  EXPECT_NE(log.final_processes[0].content_digest, 0u);
}

TEST_F(ReplayTest, ReplayReproducesFinalStateAndCounters) {
  replay::ReplayLog log = RecordMixedWorkload(TempPath("replay_determinism.odflog"));
  replay::ReplayReport report = replay::Replay(log, replay::ReplayOptions{});
  EXPECT_TRUE(report.ok()) << report.Describe();
  EXPECT_EQ(report.ops_replayed, report.ops_total);
}

// tlb_hits / tlb_misses say which tier served each access, and that depends on what the
// accessing thread's TranslationCache already holds. The recording drives one process from
// two threads: the main thread writes every page, then a worker, whose cache is cold,
// rewrites and reads them back. Replay runs every op on one fresh thread, where the
// rewrites hit the cache the first writes filled. The tiers differ; the replay must not
// call that a divergence.
TEST_F(ReplayTest, TranslationCacheTiersAreNotReplayed) {
  constexpr uint64_t kPages = 16;
  const std::string path = TempPath("replay_tlb_tiers.odflog");
  replay::RecorderOptions options;
  options.mode = replay::RecorderMode::kFull;
  ASSERT_TRUE(replay::Recorder::Global().Start(options));
  {
    Kernel kernel;
    Process& process = kernel.CreateProcess();
    Vaddr va = process.Mmap(kPages * kPageSize, kProtRead | kProtWrite);
    std::vector<std::byte> page(kPageSize, std::byte{0x5a});
    for (uint64_t i = 0; i < kPages; ++i) {
      ASSERT_TRUE(process.WriteMemory(va + i * kPageSize, page));
    }
    std::thread worker([&] {
      std::vector<std::byte> back(kPageSize);
      for (uint64_t i = 0; i < kPages; ++i) {
        ASSERT_TRUE(process.WriteMemory(va + i * kPageSize, page));
        ASSERT_TRUE(process.ReadMemory(va + i * kPageSize, back));
      }
    });
    worker.join();
    std::string error;
    ASSERT_TRUE(replay::StopAndWriteLog(kernel, path, &error)) << error;
  }
  replay::ReplayLog log;
  std::string error;
  ASSERT_TRUE(replay::ReadLogFile(path, &log, &error)) << error;
  uint64_t recorded_misses = 0;
  for (const replay::FinalVmRecord& vm : log.final_vm) {
    if (vm.counter == static_cast<uint32_t>(VmCounter::k_tlb_misses)) {
      recorded_misses = vm.delta;
    }
  }

  replay::ReplayReport report;
  uint64_t replayed_misses = 0;
  std::thread fresh([&] {
    uint64_t before = ReadVm(VmCounter::k_tlb_misses);
    report = replay::Replay(log, replay::ReplayOptions{});
    replayed_misses = ReadVm(VmCounter::k_tlb_misses) - before;
  });
  fresh.join();
  EXPECT_EQ(recorded_misses, 2 * kPages) << "each thread's first write of a page misses";
  EXPECT_EQ(replayed_misses, kPages) << "one thread: the rewrites hit the warm cache";
  EXPECT_TRUE(report.ok()) << report.Describe();
  EXPECT_EQ(report.ops_replayed, report.ops_total);
}

TEST_F(ReplayTest, ReplayPinsFaultInjectionVerdicts) {
  replay::ReplayLog log = RecordMixedWorkload(TempPath("replay_fi.odflog"));
  if (!ODF_FAULT_INJECT_COMPILED) {
    GTEST_SKIP() << "fault injection compiled out";
  }
  EXPECT_FALSE(log.fi_decisions.empty())
      << "the armed window must have recorded decisions";
  // With pinning the injector must reproduce the schedule even under a different live
  // seed (the replayer resets to the recorded seed and pins per armed window).
  fi::FaultInjector::Global().Reset(/*seed=*/0xdeadbeef);
  replay::ReplayReport report = replay::Replay(log, replay::ReplayOptions{});
  EXPECT_TRUE(report.ok()) << report.Describe();
}

TEST_F(ReplayTest, UntilReachesConsistentIntermediateState) {
  replay::ReplayLog log = RecordMixedWorkload(TempPath("replay_until.odflog"));
  replay::ReplayOptions options;
  options.until_seq = log.ops.size() / 2;
  replay::ReplayReport report = replay::Replay(log, options);
  // Partial replay skips the final-state comparison but still runs the verifier: the
  // intermediate kernel must satisfy every invariant.
  EXPECT_TRUE(report.ok()) << report.Describe();
  EXPECT_EQ(report.ops_replayed, options.until_seq);
}

TEST_F(ReplayTest, ReplayDetectsTamperedFinalState) {
  replay::ReplayLog log = RecordMixedWorkload(TempPath("replay_tamper_final.odflog"));
  ASSERT_FALSE(log.final_processes.empty());
  log.final_processes[0].content_digest ^= 1;
  replay::ReplayReport report = replay::Replay(log, replay::ReplayOptions{});
  EXPECT_FALSE(report.ok());
  bool found = false;
  for (const std::string& divergence : report.divergences) {
    found = found || divergence.find("content_digest") != std::string::npos;
  }
  EXPECT_TRUE(found) << report.Describe();
}

TEST_F(ReplayTest, ReplayDetectsTamperedOpOutcome) {
  replay::ReplayLog log = RecordMixedWorkload(TempPath("replay_tamper_op.odflog"));
  bool tampered = false;
  for (replay::OpRecord& op : log.ops) {
    if (op.kind == OpKind::k_write && op.result == 1) {
      op.result = 0;  // Claim the recorded write failed.
      tampered = true;
      break;
    }
  }
  ASSERT_TRUE(tampered);
  replay::ReplayReport report = replay::Replay(log, replay::ReplayOptions{});
  EXPECT_FALSE(report.ok());
}

TEST_F(ReplayTest, IncompleteLogIsRefused) {
  replay::ReplayLog log;
  log.ops_dropped = 7;
  replay::ReplayReport report = replay::Replay(log, replay::ReplayOptions{});
  EXPECT_FALSE(report.parsed);
  EXPECT_NE(report.error.find("not replayable"), std::string::npos) << report.error;
}

TEST_F(ReplayTest, BlackBoxBudgetBoundsRetainedBytes) {
  replay::RecorderOptions options;
  options.mode = replay::RecorderMode::kBlackBox;
  options.blackbox_budget_bytes = 128 * 1024;
  ASSERT_TRUE(replay::Recorder::Global().Start(options));
  std::string path = TempPath("replay_blackbox.odflog");
  {
    Kernel kernel;
    Process& p = kernel.CreateProcess();
    Vaddr buf = p.Mmap(kPageSize, kProtRead | kProtWrite);
    // Incompressible payloads (every byte differs) so the encoded stream must exceed the
    // budget and rotate chunks out.
    std::vector<std::byte> page(kPageSize);
    for (int i = 0; i < 600; ++i) {
      for (uint64_t j = 0; j < kPageSize; ++j) {
        page[j] = static_cast<std::byte>((static_cast<uint64_t>(i) * 131 + j * 7) & 0xff);
      }
      ASSERT_TRUE(p.WriteMemory(buf, page));
    }
    replay::RecorderStats stats = replay::Recorder::Global().CollectStats();
    EXPECT_GT(stats.ops_dropped, 0u) << "budget never exceeded: weak test workload";
    // Retained bytes stay within budget + one open chunk + trailer slack.
    EXPECT_LE(stats.bytes, options.blackbox_budget_bytes + replay::kChunkTargetBytes + 8192);
    std::string error;
    ASSERT_TRUE(replay::StopAndWriteLog(kernel, path, &error)) << error;
  }
  replay::ReplayLog log;
  std::string error;
  ASSERT_TRUE(replay::ReadLogFile(path, &log, &error)) << error;
  EXPECT_GT(log.ops_dropped, 0u);
  EXPECT_FALSE(log.Complete());
  // Wrapped black boxes are inspectable but not replayable.
  replay::ReplayReport report = replay::Replay(log, replay::ReplayOptions{});
  EXPECT_FALSE(report.parsed);
  EXPECT_NE(report.error.find("not replayable"), std::string::npos) << report.error;
}

TEST_F(ReplayTest, RingOverwriteIsAccounted) {
  if (!ODF_TRACE_COMPILED) {
    GTEST_SKIP() << "tracepoints compiled out";
  }
  uint64_t before = ReadVm(VmCounter::k_trace_ring_overwrite);
  trace::SetEnabled(true);
  for (uint64_t i = 0; i < trace::TraceRing::kCapacity + 100; ++i) {
    ODF_TRACE(fault_demand_zero, /*pid=*/1, i);
  }
  trace::SetEnabled(false);
  EXPECT_GE(ReadVm(VmCounter::k_trace_ring_overwrite) - before, 100u);
  bool found = false;
  for (const auto& ring : trace::Tracer::Global().CollectRingStats()) {
    found = found || ring.overwritten >= 100;
  }
  EXPECT_TRUE(found) << "per-ring overwrite count missing";
}

TEST_F(ReplayTest, ProcfsKnobControlsRecorder) {
  std::string error;
  EXPECT_TRUE(ConfigureReplay("start mode=blackbox budget=1048576", &error)) << error;
  EXPECT_TRUE(replay::Recorder::Global().recording());
  std::string status = FormatReplay();
  EXPECT_NE(status.find("mode blackbox"), std::string::npos) << status;
  EXPECT_NE(status.find("recording 1"), std::string::npos) << status;
  EXPECT_TRUE(ConfigureReplay("stop", &error)) << error;
  EXPECT_FALSE(replay::Recorder::Global().recording());
  EXPECT_FALSE(ConfigureReplay("mode=bogus", &error));
  EXPECT_FALSE(error.empty());
}

TEST_F(ReplayTest, StartWhileRecordingFails) {
  ASSERT_TRUE(replay::Recorder::Global().Start());
  EXPECT_FALSE(replay::Recorder::Global().Start());
  replay::Recorder::Global().Stop();
}

using ReplayDeathTest = ReplayTest;

TEST_F(ReplayDeathTest, FatalCheckDumpsBlackBox) {
  EXPECT_DEATH(
      {
        setenv("ODF_REPLAY_DUMP_DIR", ::testing::TempDir().c_str(), 1);
        replay::RecorderOptions options;
        options.mode = replay::RecorderMode::kBlackBox;
        replay::Recorder::Global().Start(options);
        Kernel kernel;
        Process& p = kernel.CreateProcess();
        Vaddr buf = p.Mmap(kPageSize, kProtRead | kProtWrite);
        p.TouchRange(buf, kPageSize, AccessType::kWrite);
        ODF_CHECK(false) << "deliberate crash for the flight-recorder dump";
      },
      "flight recorder dumped");
}

#endif  // ODF_REPLAY_COMPILED

}  // namespace
}  // namespace odf
