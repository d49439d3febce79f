// odf::fi — the deterministic fault injector itself: schedule modes, determinism of the
// (seed, site, call) decision, the procfs Configure knob, and the FrameAllocator Try paths
// it hooks (docs/robustness.md).
#include "src/fi/fault_inject.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/phys/frame_allocator.h"
#include "src/phys/page_meta.h"

namespace odf {
namespace {

using fi::FaultInjector;
using fi::ScopedInjection;

// Every test leaves the (process-global) injector the way it found it.
class FaultInjectTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().Reset(); }
  void TearDown() override { FaultInjector::Global().Reset(); }
};

TEST_F(FaultInjectTest, SiteNamesRoundTrip) {
  for (size_t i = 0; i < kFiSiteCount; ++i) {
    FiSite site = static_cast<FiSite>(i);
    FiSite parsed = FiSite::kCount;
    ASSERT_TRUE(ParseFiSite(FiSiteName(site), &parsed)) << FiSiteName(site);
    EXPECT_EQ(parsed, site);
  }
  FiSite parsed = FiSite::kCount;
  EXPECT_FALSE(ParseFiSite("no_such_site", &parsed));
}

TEST_F(FaultInjectTest, DisarmedSiteNeverFailsAndCountsNothing) {
  FaultInjector& fi = FaultInjector::Global();
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(fi.ShouldFail(FiSite::k_frame_alloc));
  }
  EXPECT_EQ(fi.SiteStats(FiSite::k_frame_alloc).calls, 0u)
      << "disarmed sites must not accumulate call counts";
  EXPECT_FALSE(fi::g_fi_armed.load());
}

TEST_F(FaultInjectTest, NthModeFailsExactlyTheNthCallOnce) {
  FaultInjector& fi = FaultInjector::Global();
  fi.Arm(FiSite::k_frame_alloc, FiSiteConfig{.nth = 5});
  for (uint64_t call = 1; call <= 20; ++call) {
    EXPECT_EQ(fi.ShouldFail(FiSite::k_frame_alloc), call == 5) << "call " << call;
  }
  FiSiteStats stats = fi.SiteStats(FiSite::k_frame_alloc);
  EXPECT_EQ(stats.calls, 20u);
  EXPECT_EQ(stats.injected, 1u);
}

TEST_F(FaultInjectTest, ArmingRestartsTheCallCounter) {
  FaultInjector& fi = FaultInjector::Global();
  fi.Arm(FiSite::k_swap_out, FiSiteConfig{.nth = 2});
  EXPECT_FALSE(fi.ShouldFail(FiSite::k_swap_out));
  EXPECT_TRUE(fi.ShouldFail(FiSite::k_swap_out));
  // Re-arming makes `nth` relative to now, not to the first arming.
  fi.Arm(FiSite::k_swap_out, FiSiteConfig{.nth = 2});
  EXPECT_FALSE(fi.ShouldFail(FiSite::k_swap_out));
  EXPECT_TRUE(fi.ShouldFail(FiSite::k_swap_out));
}

TEST_F(FaultInjectTest, IntervalModeFailsEveryKthCall) {
  FaultInjector& fi = FaultInjector::Global();
  fi.Arm(FiSite::k_page_table_alloc, FiSiteConfig{.interval = 3});
  for (uint64_t call = 1; call <= 12; ++call) {
    EXPECT_EQ(fi.ShouldFail(FiSite::k_page_table_alloc), call % 3 == 0) << "call " << call;
  }
  EXPECT_EQ(fi.SiteStats(FiSite::k_page_table_alloc).injected, 4u);
}

TEST_F(FaultInjectTest, TimesBudgetCapsInjections) {
  FaultInjector& fi = FaultInjector::Global();
  fi.Arm(FiSite::k_compound_alloc, FiSiteConfig{.interval = 1, .times = 3});
  uint64_t injected = 0;
  for (int call = 0; call < 10; ++call) {
    injected += fi.ShouldFail(FiSite::k_compound_alloc) ? 1u : 0u;
  }
  EXPECT_EQ(injected, 3u) << "times=3 must stop the every-call schedule after 3 failures";
  EXPECT_EQ(fi.TotalInjected(), 3u);
}

TEST_F(FaultInjectTest, ProbabilityModeIsDeterministicInSeedAndCallIndex) {
  FaultInjector& fi = FaultInjector::Global();
  constexpr int kCalls = 2000;

  auto run_schedule = [&fi](uint64_t seed) {
    fi.Reset(seed);
    fi.Arm(FiSite::k_frame_alloc, FiSiteConfig{.probability = 0.1});
    std::vector<bool> decisions;
    decisions.reserve(kCalls);
    for (int i = 0; i < kCalls; ++i) {
      decisions.push_back(fi.ShouldFail(FiSite::k_frame_alloc));
    }
    return decisions;
  };

  std::vector<bool> first = run_schedule(42);
  std::vector<bool> replay = run_schedule(42);
  EXPECT_EQ(first, replay) << "same seed must replay the exact same schedule";
  EXPECT_NE(first, run_schedule(43)) << "a different seed must give a different schedule";

  // p = 0.1 over 2000 draws: expect roughly 200 hits; a wide band guards against a broken
  // hash (all-true / all-false) without flaking.
  auto hits = static_cast<uint64_t>(std::count(first.begin(), first.end(), true));
  EXPECT_GT(hits, 100u);
  EXPECT_LT(hits, 350u);
}

TEST_F(FaultInjectTest, ProbabilityScheduleIsIndependentOfOtherSites) {
  FaultInjector& fi = FaultInjector::Global();
  constexpr int kCalls = 200;

  // Run A: frame_alloc alone. Run B: the same frame_alloc calls interleaved with swap_out
  // traffic. The per-site decision hashes (seed, site, per-site call index), so the
  // frame_alloc schedule must not shift.
  auto run_schedule = [&fi](bool interleave) {
    fi.Reset(7);
    fi.Arm(FiSite::k_frame_alloc, FiSiteConfig{.probability = 0.2});
    fi.Arm(FiSite::k_swap_out, FiSiteConfig{.probability = 0.5});
    std::vector<bool> decisions;
    for (int i = 0; i < kCalls; ++i) {
      if (interleave) {
        fi.ShouldFail(FiSite::k_swap_out);
        fi.ShouldFail(FiSite::k_swap_out);
      }
      decisions.push_back(fi.ShouldFail(FiSite::k_frame_alloc));
    }
    return decisions;
  };

  EXPECT_EQ(run_schedule(false), run_schedule(true))
      << "cross-site interleaving must not perturb a site's schedule (replay stability)";
}

TEST_F(FaultInjectTest, ModesCompose) {
  FaultInjector& fi = FaultInjector::Global();
  // nth=2 and interval=5 together: calls 2, 5, 10 fail in the first 10.
  fi.Arm(FiSite::k_swap_in, FiSiteConfig{.nth = 2, .interval = 5});
  std::vector<uint64_t> failed;
  for (uint64_t call = 1; call <= 10; ++call) {
    if (fi.ShouldFail(FiSite::k_swap_in)) {
      failed.push_back(call);
    }
  }
  EXPECT_EQ(failed, (std::vector<uint64_t>{2, 5, 10}));
}

TEST_F(FaultInjectTest, ScopedInjectionDisarmsOnExit) {
  {
    ScopedInjection inject(FiSite::k_frame_alloc, FiSiteConfig{.interval = 1});
    EXPECT_TRUE(FaultInjector::Global().IsArmed(FiSite::k_frame_alloc));
    EXPECT_TRUE(FaultInjector::Global().ShouldFail(FiSite::k_frame_alloc));
  }
  EXPECT_FALSE(FaultInjector::Global().IsArmed(FiSite::k_frame_alloc));
  EXPECT_FALSE(fi::g_fi_armed.load());
  EXPECT_FALSE(FaultInjector::Global().ShouldFail(FiSite::k_frame_alloc));
}

TEST_F(FaultInjectTest, ConfigureAppliesSpecTokens) {
  FaultInjector& fi = FaultInjector::Global();
  std::string error;
  ASSERT_TRUE(fi.Configure(
      "seed=99 site=frame_alloc probability=0.25 times=4 site=swap_in nth=3", &error))
      << error;
  EXPECT_EQ(fi.seed(), 99u);
  EXPECT_TRUE(fi.IsArmed(FiSite::k_frame_alloc));
  FiSiteConfig frame = fi.SiteConfig(FiSite::k_frame_alloc);
  EXPECT_DOUBLE_EQ(frame.probability, 0.25);
  EXPECT_EQ(frame.times, 4);
  EXPECT_TRUE(fi.IsArmed(FiSite::k_swap_in));
  EXPECT_EQ(fi.SiteConfig(FiSite::k_swap_in).nth, 3u);
  EXPECT_FALSE(fi.IsArmed(FiSite::k_compound_alloc));

  ASSERT_TRUE(fi.Configure("site=frame_alloc off", &error)) << error;
  EXPECT_FALSE(fi.IsArmed(FiSite::k_frame_alloc));
  EXPECT_TRUE(fi.IsArmed(FiSite::k_swap_in)) << "'off' only disarms the named site";

  ASSERT_TRUE(fi.Configure("reset", &error)) << error;
  EXPECT_FALSE(fi.IsArmed(FiSite::k_swap_in));
  EXPECT_EQ(fi.seed(), FaultInjector::kDefaultSeed);
}

TEST_F(FaultInjectTest, ConfigureRejectsMalformedSpecs) {
  FaultInjector& fi = FaultInjector::Global();
  std::string error;
  EXPECT_FALSE(fi.Configure("site=not_a_site nth=1", &error));
  EXPECT_NE(error.find("unknown site"), std::string::npos) << error;
  EXPECT_FALSE(fi.Configure("nth=1", &error));
  EXPECT_NE(error.find("before any site="), std::string::npos) << error;
  EXPECT_FALSE(fi.Configure("site=frame_alloc nth=banana", &error));
  EXPECT_FALSE(fi.Configure("site=frame_alloc wibble=1", &error));
  EXPECT_FALSE(fi.Configure("bare-token", &error));
  EXPECT_FALSE(fi.Configure("off", &error));
  EXPECT_NE(error.find("'off' before any site="), std::string::npos) << error;
  for (const char* spec : {"seed=x", "site=frame_alloc probability=x",
                           "site=frame_alloc interval=x", "site=frame_alloc times=x"}) {
    error.clear();
    EXPECT_FALSE(fi.Configure(spec, &error)) << spec;
    EXPECT_NE(error.find("bad "), std::string::npos) << spec << ": " << error;
  }
  EXPECT_TRUE(fi.Configure(" reset\t", &error)) << "surrounding whitespace is ignored";
}

// Replay pins a site to its recorded verdicts; a call past the recorded schedule counts as
// an overflow (a replay divergence) and does not fail.
TEST_F(FaultInjectTest, PinnedSiteReplaysItsScheduleAndCountsOverflow) {
  FaultInjector& fi = FaultInjector::Global();
  fi.PinForReplay(FiSite::k_swap_in, {false, true});
  EXPECT_NE(fi.FormatStatus().find("swap_in pinned schedule_len 2"), std::string::npos)
      << fi.FormatStatus();
  EXPECT_FALSE(fi.ShouldFail(FiSite::k_swap_in));
  EXPECT_TRUE(fi.ShouldFail(FiSite::k_swap_in));
  EXPECT_FALSE(fi.ShouldFail(FiSite::k_swap_in));
  EXPECT_EQ(fi.PinnedOverflow(), 1u);
  fi.UnpinAll();
}

TEST_F(FaultInjectTest, FormatStatusShowsSeedArmingAndCounts) {
  FaultInjector& fi = FaultInjector::Global();
  fi.SetSeed(1234);
  fi.Arm(FiSite::k_page_table_alloc, FiSiteConfig{.nth = 2});
  fi.ShouldFail(FiSite::k_page_table_alloc);
  fi.ShouldFail(FiSite::k_page_table_alloc);
  std::string status = fi.FormatStatus();
  EXPECT_NE(status.find("seed 1234"), std::string::npos) << status;
  EXPECT_NE(status.find("page_table_alloc probability"), std::string::npos) << status;
  EXPECT_NE(status.find("calls 2 injected 1"), std::string::npos) << status;
  EXPECT_NE(status.find("frame_alloc off"), std::string::npos) << status;
}

// --- The hook side: FrameAllocator's fallible entry points under injection. ---

#if ODF_FAULT_INJECT_COMPILED

TEST_F(FaultInjectTest, TryAllocateFailsCleanlyUnderInjection) {
  FrameAllocator allocator;
  FrameId warm = allocator.Allocate(kPageFlagAnon);  // Warm the pool before arming.
  ASSERT_NE(warm, kInvalidFrame);
  uint64_t allocated_before = allocator.Stats().allocated_frames;

  {
    ScopedInjection inject(FiSite::k_frame_alloc, FiSiteConfig{.nth = 1});
    EXPECT_EQ(allocator.TryAllocate(kPageFlagAnon), kInvalidFrame);
    EXPECT_EQ(allocator.Stats().allocated_frames, allocated_before)
        << "an injected failure must not consume a frame";
    // The schedule only fails the first call; the retry succeeds.
    FrameId frame = allocator.TryAllocate(kPageFlagAnon);
    ASSERT_NE(frame, kInvalidFrame);
    allocator.DecRef(frame);
  }

  allocator.DecRef(warm);
  EXPECT_TRUE(allocator.AllFree());
}

TEST_F(FaultInjectTest, InjectionFailsTheLogicalAllocationEvenOnACacheHit) {
  FrameAllocator allocator;
  // Park a frame in this thread's per-CPU cache so the next TryAllocate would be a pure
  // cache hit (no pool lock, no ENOMEM possible).
  FrameId warm = allocator.Allocate(kPageFlagAnon);
  ASSERT_NE(warm, kInvalidFrame);
  allocator.DecRef(warm);
  uint64_t cached_before = allocator.CachedFrames();
  ASSERT_GT(cached_before, 0u) << "the freed frame must have parked in the cache";

  {
    ScopedInjection inject(FiSite::k_frame_alloc, FiSiteConfig{.nth = 1});
    // The injector is consulted before the cache: the logical allocation fails even though
    // a cached frame was sitting ready, and the cached frame is not consumed.
    EXPECT_EQ(allocator.TryAllocate(kPageFlagAnon), kInvalidFrame);
    EXPECT_EQ(allocator.CachedFrames(), cached_before)
        << "an injected failure must not consume a cached frame";
    EXPECT_EQ(FaultInjector::Global().SiteStats(FiSite::k_frame_alloc).injected, 1u);
    // The nth=1 schedule is spent: the retry is served from the cache.
    FrameId frame = allocator.TryAllocate(kPageFlagAnon);
    ASSERT_EQ(frame, warm) << "the retry must recycle the parked frame";
    allocator.DecRef(frame);
  }
  EXPECT_TRUE(allocator.AllFree());
}

TEST_F(FaultInjectTest, TryAllocateCompoundConsultsTheCompoundSite) {
  FrameAllocator allocator;
  ScopedInjection inject(FiSite::k_compound_alloc, FiSiteConfig{.nth = 1});
  EXPECT_EQ(allocator.TryAllocateCompound(kPageFlagAnon), kInvalidFrame);
  // frame_alloc was never consulted; compound_alloc was.
  EXPECT_EQ(FaultInjector::Global().SiteStats(FiSite::k_compound_alloc).injected, 1u);
  FrameId head = allocator.TryAllocateCompound(kPageFlagAnon);
  ASSERT_NE(head, kInvalidFrame);
  allocator.DecRef(head);
  EXPECT_TRUE(allocator.AllFree());
}

TEST_F(FaultInjectTest, PageTableAllocationsUseTheirOwnSite) {
  FrameAllocator allocator;
  ScopedInjection inject(FiSite::k_page_table_alloc, FiSiteConfig{.interval = 1});
  // Data-frame allocation is unaffected by a page_table_alloc schedule...
  FrameId data = allocator.TryAllocate(kPageFlagAnon);
  ASSERT_NE(data, kInvalidFrame);
  // ...while a page-table allocation fails.
  EXPECT_EQ(allocator.TryAllocate(kPageFlagPageTable), kInvalidFrame);
  EXPECT_EQ(FaultInjector::Global().SiteStats(FiSite::k_page_table_alloc).injected, 1u);
  EXPECT_EQ(FaultInjector::Global().SiteStats(FiSite::k_frame_alloc).calls, 0u);
  allocator.DecRef(data);
  EXPECT_TRUE(allocator.AllFree());
}

TEST_F(FaultInjectTest, NofailAllocateNeverConsultsInjection) {
  FrameAllocator allocator;
  ScopedInjection inject(FiSite::k_frame_alloc, FiSiteConfig{.interval = 1});
  // The NOFAIL path ignores an every-call schedule entirely (GFP_NOFAIL analog).
  FrameId frame = allocator.Allocate(kPageFlagAnon);
  ASSERT_NE(frame, kInvalidFrame);
  EXPECT_EQ(FaultInjector::Global().SiteStats(FiSite::k_frame_alloc).calls, 0u);
  allocator.DecRef(frame);
  EXPECT_TRUE(allocator.AllFree());
}

#else  // !ODF_FAULT_INJECT_COMPILED

TEST_F(FaultInjectTest, CompiledOutShouldInjectIsConstantFalse) {
  ScopedInjection inject(FiSite::k_frame_alloc, FiSiteConfig{.interval = 1});
  EXPECT_FALSE(fi::ShouldInject(FiSite::k_frame_alloc));
  FrameAllocator allocator;
  FrameId frame = allocator.TryAllocate(kPageFlagAnon);
  EXPECT_NE(frame, kInvalidFrame) << "with hooks compiled out, Try paths fail only on ENOMEM";
  allocator.DecRef(frame);
  EXPECT_TRUE(allocator.AllFree());
}

#endif  // ODF_FAULT_INJECT_COMPILED

}  // namespace
}  // namespace odf
