// odf::replay — flight recorder + deterministic replay (docs/replay.md): the varint/delta
// codec, record → write → parse → replay round trips (including pinned fault injection and
// --until partial replay), divergence detection, black-box budget bounding, ring-overwrite
// accounting, the procfs knob, and the abort-hook crash dump.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/debug/verify.h"
#include "src/fi/fault_inject.h"
#include "src/proc/kernel.h"
#include "src/proc/process.h"
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

TEST(ReplayCodecTest, OverlongVarintFailsCleanly) {
  std::vector<uint8_t> buffer(11, 0xff);
  replay::ByteReader reader{std::span<const uint8_t>(buffer)};
  uint64_t decoded = 0;
  EXPECT_FALSE(reader.ReadVarint(&decoded));
}

// One chunk body per record kind, each holding that single record: an op without payload,
// with a run-length fill and with raw bytes, then every trailer and metadata record.
std::vector<std::vector<uint8_t>> SingleRecordBodies() {
  std::vector<std::vector<uint8_t>> bodies;
  const uint64_t args[2] = {0x7000000000, 3 * kPageSize};
  std::vector<std::byte> raw(64);
  for (size_t i = 0; i < raw.size(); ++i) {
    raw[i] = static_cast<std::byte>(i);
  }
  std::vector<std::byte> fill(kPageSize, std::byte{0x2a});
  for (const std::vector<std::byte>* payload : {static_cast<std::vector<std::byte>*>(nullptr),
                                                &fill, &raw}) {
    replay::DeltaState state;
    std::vector<uint8_t>& body = bodies.emplace_back();
    replay::EncodeOpRaw(body, state, /*seq=*/1, OpKind::k_write, /*pid=*/1, /*ts_ns=*/5, args,
                        2, /*status=*/0, /*result=*/1,
                        payload != nullptr ? payload->data() : nullptr,
                        payload != nullptr ? payload->size() : 0);
  }
  replay::EncodeFiDecision(bodies.emplace_back(), {.site = 1, .call = 3, .verdict = true});
  replay::DeltaState state;
  replay::EncodeEvent(bodies.emplace_back(), state,
                      {.id = 2, .pid = 1, .ts_ns = 9, .a0 = 0x1000, .a1 = 2, .a2 = 3});
  replay::EncodeRingStat(bodies.emplace_back(), {.tid = 1, .appended = 10, .overwritten = 2});
  replay::EncodeFinalProcess(bodies.emplace_back(),
                             {.pid = 1, .vma_count = 2, .present_pages = 3, .swap_pages = 4,
                              .content_digest = 5, .ref_digest = 6});
  replay::EncodeFinalAlloc(bodies.emplace_back(), {7, 8, 9});
  replay::EncodeFinalVm(bodies.emplace_back(), {.counter = 1, .delta = 10});
  replay::EncodeFinalFi(bodies.emplace_back(), {.site = 0, .calls = 4, .injected = 1});
  replay::EncodeMeta(bodies.emplace_back(), replay::MetaKey::kFiSeed, 42);
  return bodies;
}

// A malformed chunk is refused with an error, never decoded into garbage or an abort: each
// single-record body decodes, and each of its strict non-empty prefixes does not.
TEST(ReplayCodecTest, EveryTruncatedRecordIsRefused) {
  for (const std::vector<uint8_t>& body : SingleRecordBodies()) {
    replay::ReplayLog log;
    std::string error;
    ASSERT_TRUE(replay::DecodeChunk(body, 1, &log, &error)) << error;
    for (size_t length = 1; length < body.size(); ++length) {
      error.clear();
      replay::ReplayLog partial;
      EXPECT_FALSE(replay::DecodeChunk(std::span(body).first(length), 1, &partial, &error))
          << "tag " << int{body[0]} << " prefix " << length;
      EXPECT_FALSE(error.empty()) << "tag " << int{body[0]} << " prefix " << length;
    }
  }
}

// Flipped bytes in the fields the decoder validates: the record tag, the op kind, the
// argument count and the payload kind. An unknown metadata key is not an error.
TEST(ReplayCodecTest, CorruptFieldsAreRefused) {
  std::vector<uint8_t> op = SingleRecordBodies()[0];  // tag, seq, kind, pid, ts, argc, ...
  struct Flip {
    size_t offset;
    uint8_t value;
    const char* error;
  };
  for (const Flip& flip : {Flip{0, 0x6e, "unknown record tag 110"},
                           Flip{2, 0x7f, "unknown kind 127"},
                           Flip{5, 17, "implausible arg count"},
                           Flip{op.size() - 1, 9, "unknown payload kind"}}) {
    std::vector<uint8_t> corrupt = op;
    corrupt[flip.offset] = flip.value;
    replay::ReplayLog log;
    std::string error;
    EXPECT_FALSE(replay::DecodeChunk(corrupt, 1, &log, &error)) << flip.error;
    EXPECT_NE(error.find(flip.error), std::string::npos) << error;
  }
  std::vector<uint8_t> meta;
  replay::EncodeMeta(meta, static_cast<replay::MetaKey>(200), 1);
  replay::ReplayLog log;
  std::string error;
  EXPECT_TRUE(replay::DecodeChunk(meta, 1, &log, &error)) << error;
}

TEST(ReplayCodecTest, CompleteNeedsDenseSeqs) {
  replay::ReplayLog log;
  log.ops.emplace_back().seq = 2;
  EXPECT_FALSE(log.Complete());
  log.ops[0].seq = 1;
  EXPECT_TRUE(log.Complete());
}

class ReplayLogFileTest : public ::testing::Test {
 protected:
  static std::string TempPath(const std::string& name) { return ::testing::TempDir() + name; }

  static std::vector<uint8_t> ReadAll(const std::string& path) {
    std::vector<uint8_t> bytes;
    std::FILE* file = std::fopen(path.c_str(), "rb");
    for (int c = 0; file != nullptr && (c = std::fgetc(file)) != EOF;) {
      bytes.push_back(static_cast<uint8_t>(c));
    }
    if (file != nullptr) {
      std::fclose(file);
    }
    return bytes;
  }

  static void WriteAll(const std::string& path, std::span<const uint8_t> bytes) {
    std::FILE* file = std::fopen(path.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), file), bytes.size());
    std::fclose(file);
  }
};

// A log file cut anywhere but at a chunk boundary is refused with an error naming the file.
TEST_F(ReplayLogFileTest, EveryTruncatedFileIsRefused) {
  replay::LogChunk chunk;
  chunk.tid = 1;
  chunk.bytes = SingleRecordBodies()[0];
  const std::string header = R"({"version":1})";
  std::string path = TempPath("replay_truncated_source.odflog");
  std::string error;
  ASSERT_TRUE(replay::WriteLogFile(path, header, {&chunk}, &error)) << error;
  std::vector<uint8_t> bytes = ReadAll(path);
  replay::ReplayLog log;
  ASSERT_TRUE(replay::ReadLogFile(path, &log, &error)) << error;
  ASSERT_EQ(log.ops.size(), 1u);

  std::string cut = TempPath("replay_truncated.odflog");
  const size_t header_end = 12 + header.size();
  for (size_t length = 0; length < bytes.size(); ++length) {
    if (length == header_end) {
      continue;  // A header with no chunk is a valid, empty log.
    }
    WriteAll(cut, std::span(bytes).first(length));
    error.clear();
    EXPECT_FALSE(replay::ReadLogFile(cut, &log, &error)) << "length " << length;
    EXPECT_NE(error.find(cut), std::string::npos) << "length " << length << ": " << error;
  }
  EXPECT_FALSE(replay::ReadLogFile(TempPath("replay_no_such.odflog"), &log, &error));
  EXPECT_NE(error.find("cannot open log"), std::string::npos) << error;

  // A bad chunk inside an intact file reports the chunk's own error.
  chunk.bytes[0] = 0x6e;
  ASSERT_TRUE(replay::WriteLogFile(cut, header, {&chunk}, &error)) << error;
  EXPECT_FALSE(replay::ReadLogFile(cut, &log, &error));
  EXPECT_NE(error.find("unknown record tag"), std::string::npos) << error;
}

// Write failures: a path that cannot be opened, and a device that refuses the data.
TEST_F(ReplayLogFileTest, WriteFailuresAreReported) {
  replay::LogChunk chunk;
  chunk.bytes.assign(64 * 1024, 0x01);
  std::string error;
  EXPECT_FALSE(replay::WriteLogFile(TempPath("no_such_dir/x.odflog"), "{}", {&chunk}, &error));
  EXPECT_NE(error.find("cannot open log for writing"), std::string::npos) << error;
  if (std::FILE* full = std::fopen("/dev/full", "wb")) {
    std::fclose(full);
    EXPECT_FALSE(replay::WriteLogFile("/dev/full", "{}", {&chunk, &chunk}, &error));
    EXPECT_NE(error.find("short write"), std::string::npos) << error;
  }
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
  std::string n = std::to_string(report.ops_total);
  EXPECT_EQ(report.Describe(), "replayed " + n + "/" + n + " ops (through seq " + n + "): OK\n");
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
  EXPECT_NE(report.Describe().find(": FAILED\n  divergence: "), std::string::npos)
      << report.Describe();
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
  EXPECT_EQ(report.Describe(), "replayed 0/0 ops: FAILED\n  error: " + report.error + "\n");
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
  auto& recorder = replay::Recorder::Global();
  EXPECT_TRUE(recorder.Configure("start mode=blackbox budget=1048576", &error)) << error;
  EXPECT_TRUE(recorder.recording());
  std::string status = recorder.FormatStatus();
  EXPECT_NE(status.find("mode blackbox"), std::string::npos) << status;
  EXPECT_NE(status.find("recording 1"), std::string::npos) << status;
  EXPECT_TRUE(recorder.Configure("stop", &error)) << error;
  EXPECT_FALSE(recorder.recording());
  EXPECT_FALSE(recorder.Configure("mode=bogus", &error));
  EXPECT_FALSE(error.empty());
}

// Every key of the recorder knob, the on-demand dump it shares with the abort hook, and
// the dump directory taken from the environment.
TEST_F(ReplayTest, KnobParsesEveryKeyAndDumpsOnDemand) {
  auto& recorder = replay::Recorder::Global();
  const std::string dir = ::testing::TempDir();
  const std::string blackbox = dir + "/odf-replay-blackbox.odflog";
  std::string error;
  ASSERT_TRUE(recorder.Configure("start mode=full budget=65536 trace=0 dir=" + dir, &error))
      << error;
  {
    Kernel kernel;
    kernel.CreateProcess().Mmap(kPageSize, kProtRead);
  }
  EXPECT_EQ(recorder.DumpNow(), blackbox);
  replay::ReplayLog log;
  ASSERT_TRUE(replay::ReadLogFile(blackbox, &log, &error)) << error;
  EXPECT_GE(log.ops.size(), 2u);
  const std::string dumped = TempPath("replay_knob_dump.odflog");
  EXPECT_TRUE(recorder.Configure("dump=" + dumped, &error)) << error;
  EXPECT_TRUE(replay::ReadLogFile(dumped, &log, &error)) << error;
  EXPECT_FALSE(recorder.Configure("start", &error));
  EXPECT_EQ(error, "already recording");
  recorder.Stop();

  const std::pair<std::string, std::string> bad[] = {
      {"budget=12x", "bad budget"},
      {"trace=2", "bad trace flag"},
      {"colour=red", "unknown key"},
      {"nonsense", "malformed token"},
      {"dump=" + TempPath("no_such_dir/x.odflog"), "cannot open log for writing"},
  };
  for (const auto& [spec, want] : bad) {
    error.clear();
    EXPECT_FALSE(recorder.Configure(spec, &error)) << spec;
    EXPECT_NE(error.find(want), std::string::npos) << spec << ": " << error;
  }

  ::setenv("ODF_REPLAY_DUMP_DIR", dir.c_str(), 1);
  ASSERT_TRUE(recorder.Start());
  ::unsetenv("ODF_REPLAY_DUMP_DIR");
  EXPECT_EQ(recorder.DumpNow(), blackbox);
}

// Every op kind of the catalog is recorded and replays with no divergence, from the file,
// with fault injection pinned to the recorded verdicts and re-armed from its config.
// kswapd starts and stops with nothing under pressure, so it never wakes.
TEST_F(ReplayTest, EveryOpKindReplays) {
  replay::RecorderOptions options;
  options.mode = replay::RecorderMode::kFull;
  ASSERT_TRUE(replay::Recorder::Global().Start(options));
  const std::string path = TempPath("replay_every_op.odflog");
  {
    Kernel kernel;
    kernel.set_default_fork_mode(ForkMode::kOnDemand);
    Process& parent = kernel.CreateProcess();
    parent.set_fork_mode(ForkMode::kClassic);
    Vaddr buf = parent.Mmap(64 * kPageSize, kProtRead | kProtWrite);
    parent.address_space().PopulateRange(buf, 16 * kPageSize);
    std::vector<std::byte> page(kPageSize, std::byte{0x11});
    ASSERT_TRUE(parent.WriteMemory(buf, page));
    ASSERT_TRUE(parent.ReadMemory(buf + 20 * kPageSize, page));
    ASSERT_TRUE(parent.MemsetMemory(buf + kPageSize, std::byte{0x22}, kPageSize));
    ASSERT_TRUE(parent.TouchRange(buf, 24 * kPageSize, AccessType::kWrite));
    parent.MadviseDontNeed(buf + 2 * kPageSize, 2 * kPageSize);
    Vaddr moved = parent.Mremap(buf, 64 * kPageSize, 32 * kPageSize);
    parent.Munmap(moved + 24 * kPageSize, 8 * kPageSize);
    Vaddr huge = parent.Mmap(kHugePageSize, kProtRead | kProtWrite, /*huge=*/true);
    ASSERT_TRUE(parent.MemsetMemory(huge + kPageSize, std::byte{0x33}, kPageSize));

    Process& child = kernel.Fork(parent);
    Process* tried = kernel.TryFork(parent, ForkMode::kOnDemand);
    ASSERT_NE(tried, nullptr);
    fi::FaultInjector::Global().Arm(FiSite::k_frame_alloc, FiSiteConfig{.nth = 2});
    child.TouchRange(moved, 4 * kPageSize, AccessType::kWrite);
    fi::FaultInjector::Global().Disarm(FiSite::k_frame_alloc);
    fi::FaultInjector::Global().Reset(/*seed=*/7);

    kernel.SetMemoryLimitFrames(4096);
    kernel.ReclaimMemory(4);
    kernel.StartKswapd();
    kernel.StopKswapd();
    AddressSpace& as = tried->address_space();
    FrameId first = as.walker().Translate(as.pgd(), moved, AccessType::kRead).frame;
    FrameId second =
        as.walker().Translate(as.pgd(), moved + 5 * kPageSize, AccessType::kRead).frame;
    kernel.SoftOfflinePage(second);
    kernel.MemoryFailure(first);

    kernel.Exit(child, 0);
    kernel.Exit(*tried, 0);
    kernel.Wait(parent);
    kernel.Wait(parent);
    std::string error;
    ASSERT_TRUE(replay::StopAndWriteLog(kernel, path, &error)) << error;
  }

  replay::ReplayLog log;
  std::string error;
  ASSERT_TRUE(replay::ReadLogFile(path, &log, &error)) << error;
  std::set<OpKind> seen;
  for (const replay::OpRecord& op : log.ops) {
    seen.insert(op.kind);
  }
  for (size_t k = 0; k < kOpKindCount; ++k) {
    EXPECT_TRUE(seen.count(static_cast<OpKind>(k)) != 0)
        << OpKindName(static_cast<OpKind>(k)) << " was not recorded";
  }
  replay::ReplayReport report = replay::ReplayFile(path);
  EXPECT_TRUE(report.ok()) << report.Describe();
  EXPECT_EQ(report.ops_replayed, report.ops_total);
  replay::ReplayOptions unpinned;
  unpinned.pin_fi = false;
  report = replay::Replay(log, unpinned);
  EXPECT_TRUE(report.ok()) << report.Describe();
  report = replay::ReplayFile(TempPath("replay_no_such.odflog"));
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.error.find("cannot open log"), std::string::npos) << report.error;
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
