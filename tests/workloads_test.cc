// Tests for the fuzzer fork server, the VM-cloning harness, and the prefork HTTP server.
#include <gtest/gtest.h>

#include "src/apps/fuzzer.h"
#include "src/apps/httpd.h"
#include "src/apps/vmclone.h"
#include "src/util/stats.h"
#include "src/util/stopwatch.h"
#include "tests/test_util.h"

namespace odf {
namespace {

class FuzzerTest : public ::testing::Test {
 protected:
  FuzzerTest() : p_(kernel_.CreateProcess()), db_(MiniDb::Create(kernel_, p_, 512 << 20)) {
    Rng rng(1);
    db_.BulkLoadFixture("t", 2000, 32, rng);
  }

  Kernel kernel_;
  Process& p_;
  MiniDb db_;
};

TEST_F(FuzzerTest, RunsInputsAndFindsCoverage) {
  FuzzerConfig config;
  config.fork_mode = ForkMode::kOnDemand;
  ForkServerFuzzer fuzzer(kernel_, p_, MakeMiniDbShellTarget(kernel_, "t", db_.meta_base()),
                          config, MiniDbSeedCorpus());
  for (int i = 0; i < 50; ++i) {
    fuzzer.RunOne();
  }
  // Inputs with new coverage trigger extra deterministic-stage executions.
  EXPECT_GE(fuzzer.stats().executions, 50u);
  EXPECT_GT(fuzzer.stats().covered_edges, 0u);
  EXPECT_GT(fuzzer.corpus_size(), MiniDbSeedCorpus().size() - 1);
  // The parent database must be untouched by all the fuzzed children.
  EXPECT_EQ(db_.RowCount("t"), 2000u);
  EXPECT_EQ(kernel_.ProcessCount(), 1u) << "all children reaped";
}

// RunFor executes until its time budget is spent and accounts the time, so the rate is
// positive; a tiny input cap truncates mutated inputs.
TEST_F(FuzzerTest, RunForAccountsTimeAndRate) {
  FuzzerConfig config;
  config.max_input_bytes = 8;
  ForkServerFuzzer fuzzer(kernel_, p_, MakeMiniDbShellTarget(kernel_, "t", db_.meta_base()),
                          config, MiniDbSeedCorpus());
  fuzzer.RunFor(0.05);
  EXPECT_GT(fuzzer.stats().executions, 0u);
  EXPECT_GE(fuzzer.stats().elapsed_seconds, 0.05);
  EXPECT_GT(fuzzer.stats().ExecsPerSecond(), 0.0);
  EXPECT_EQ(kernel_.ProcessCount(), 1u) << "all children reaped";
}

TEST_F(FuzzerTest, DeterministicForSameSeed) {
  FuzzerConfig config;
  config.seed = 42;
  ForkServerFuzzer a(kernel_, p_, MakeMiniDbShellTarget(kernel_, "t", db_.meta_base()),
                     config, MiniDbSeedCorpus());
  for (int i = 0; i < 20; ++i) {
    a.RunOne();
  }
  // Re-run with a fresh identical world.
  Kernel kernel2;
  Process& p2 = kernel2.CreateProcess();
  MiniDb db2 = MiniDb::Create(kernel2, p2, 512 << 20);
  Rng rng(1);
  db2.BulkLoadFixture("t", 2000, 32, rng);
  ForkServerFuzzer b(kernel2, p2, MakeMiniDbShellTarget(kernel2, "t", db2.meta_base()),
                     config, MiniDbSeedCorpus());
  for (int i = 0; i < 20; ++i) {
    b.RunOne();
  }
  EXPECT_EQ(a.stats().covered_edges, b.stats().covered_edges);
  EXPECT_EQ(a.corpus_size(), b.corpus_size());
}

TEST(GuestVmTest, ArithmeticAndControlFlow) {
  Kernel kernel;
  Process& p = kernel.CreateProcess();
  Vaddr cpu = p.Mmap(kPageSize, kProtRead | kProtWrite);
  Vaddr data = p.Mmap(kPageSize, kProtRead | kProtWrite);
  // Program: r1 = 10; r2 = 0; loop { r2 += r1; r1 -= 1 } until r1 == 0; mem[r3] = r2; halt.
  // Computes 10+9+...+1 = 55.
  std::vector<uint64_t> code = {
      EncodeInstr(GuestOp::kMovi, 1, 0, 10),
      EncodeInstr(GuestOp::kMovi, 2, 0, 0),
      EncodeInstr(GuestOp::kMovi, 4, 0, 1),
      // loop (pc 3):
      EncodeInstr(GuestOp::kAdd, 2, 1, 0),
      EncodeInstr(static_cast<GuestOp>(14), 1, 4, 0),  // SUB r1, r4.
      EncodeInstr(GuestOp::kJnz, 1, 0, 3),
      EncodeInstr(GuestOp::kStore, 3, 2, 0),
      EncodeInstr(GuestOp::kHalt, 0, 0, 0),
  };
  Vaddr code_base = p.Mmap(code.size() * 8, kProtRead | kProtWrite);
  ASSERT_TRUE(p.WriteMemory(code_base, std::as_bytes(std::span(code))));
  p.StoreU64(cpu + 3 * 8, data);  // r3 = result address.

  GuestExit exit_state = RunGuest(p, cpu, code_base, 1000);
  EXPECT_EQ(exit_state.reason, GuestExit::Reason::kHalt);
  EXPECT_EQ(p.LoadU64(data), 55u);
}

TEST(GuestVmTest, StepLimitStopsRunawayProgram) {
  Kernel kernel;
  Process& p = kernel.CreateProcess();
  Vaddr cpu = p.Mmap(kPageSize, kProtRead | kProtWrite);
  std::vector<uint64_t> code = {EncodeInstr(GuestOp::kJmp, 0, 0, 0)};  // while(true);
  Vaddr code_base = p.Mmap(64, kProtRead | kProtWrite);
  ASSERT_TRUE(p.WriteMemory(code_base, std::as_bytes(std::span(code))));
  GuestExit exit_state = RunGuest(p, cpu, code_base, 500);
  EXPECT_EQ(exit_state.reason, GuestExit::Reason::kStepLimit);
  EXPECT_EQ(exit_state.steps, 500u);
}

TEST(GuestVmTest, BadMemoryAccessIsCaught) {
  Kernel kernel;
  Process& p = kernel.CreateProcess();
  Vaddr cpu = p.Mmap(kPageSize, kProtRead | kProtWrite);
  std::vector<uint64_t> code = {
      EncodeInstr(GuestOp::kMovi, 1, 0, 0xdead0000u),
      EncodeInstr(GuestOp::kLoad, 2, 1, 0),
      EncodeInstr(GuestOp::kHalt, 0, 0, 0),
  };
  Vaddr code_base = p.Mmap(64, kProtRead | kProtWrite);
  ASSERT_TRUE(p.WriteMemory(code_base, std::as_bytes(std::span(code))));
  GuestExit exit_state = RunGuest(p, cpu, code_base, 100);
  EXPECT_EQ(exit_state.reason, GuestExit::Reason::kBadAccess);
}

TEST(VmCloneTest, CloneRunsInputAndIsolatesImage) {
  Kernel kernel;
  VmConfig config;
  config.image_bytes = 8 << 20;  // Small image for the unit test.
  config.fork_mode = ForkMode::kOnDemand;
  config.max_steps_per_input = 100000;
  VirtualMachine vm = VirtualMachine::Boot(kernel, config);

  uint64_t image_word_before = vm.process().LoadU64(
      vm.process().address_space().vmas().begin()->second.start);

  std::vector<uint8_t> input;
  for (int i = 0; i < 50; ++i) {
    input.push_back(static_cast<uint8_t>(i * 7 + 1));
  }
  GuestExit exit_state = vm.RunInputInClone(input);
  EXPECT_EQ(exit_state.reason, GuestExit::Reason::kHalt);
  EXPECT_GT(exit_state.steps, 50u * 10);

  // The parent VM image must be unchanged by the clone's writes.
  uint64_t image_word_after = vm.process().LoadU64(
      vm.process().address_space().vmas().begin()->second.start);
  EXPECT_EQ(image_word_before, image_word_after);
  EXPECT_EQ(kernel.ProcessCount(), 1u);
}

TEST(VmCloneTest, ManyClonesLeakNothing) {
  Kernel kernel;
  VmConfig config;
  config.image_bytes = 4 << 20;
  config.fork_mode = ForkMode::kClassic;
  VirtualMachine vm = VirtualMachine::Boot(kernel, config);
  uint64_t frames_after_boot = kernel.allocator().Stats().allocated_frames;
  std::vector<uint8_t> input = {1, 2, 3, 4, 5, 6, 7, 8};
  for (int i = 0; i < 10; ++i) {
    vm.RunInputInClone(input);
  }
  EXPECT_EQ(kernel.allocator().Stats().allocated_frames, frames_after_boot)
      << "clones must release every frame";
}

TEST(HttpdTest, ServesRequestsFromWorkers) {
  Kernel kernel;
  HttpdConfig config;
  config.worker_count = 4;
  PreforkServer server = PreforkServer::Start(kernel, config);
  EXPECT_EQ(server.worker_count(), 4);
  EXPECT_GT(server.startup_fork_micros(), 0.0);

  std::vector<double> latency_us;
  auto timed_request = [&](uint64_t document_id) {
    Stopwatch timer;
    uint64_t checksum = server.HandleRequest(document_id);
    latency_us.push_back(timer.ElapsedMicros());
    return checksum;
  };
  uint64_t checksum1 = timed_request(3);
  uint64_t checksum2 = timed_request(3);  // Different worker, same doc.
  uint64_t checksum3 = timed_request(4);
  EXPECT_EQ(checksum1, checksum2) << "all workers must serve identical documents";
  EXPECT_NE(checksum1, checksum3);
  EXPECT_EQ(Summarize(latency_us).count, 3u);

  server.Shutdown();
  EXPECT_TRUE(kernel.allocator().AllFree());
}

TEST(HttpdTest, BothForkModesServeIdenticalContent) {
  uint64_t checksums[2];
  int i = 0;
  for (ForkMode mode : {ForkMode::kClassic, ForkMode::kOnDemand}) {
    Kernel kernel;
    HttpdConfig config;
    config.worker_count = 2;
    config.fork_mode = mode;
    PreforkServer server = PreforkServer::Start(kernel, config);
    checksums[i++] = server.HandleRequest(7);
    server.Shutdown();
  }
  EXPECT_EQ(checksums[0], checksums[1]);
}

}  // namespace
}  // namespace odf
