// odf::trace unit tests: ring-buffer semantics (wraparound, per-thread ordering), the
// runtime enable switch, the vmstat counter catalog + MetricsRegistry, and the JSON writer
// used by the bench sidecar files.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "src/trace/json.h"
#include "src/trace/metrics.h"
#include "src/trace/trace.h"

namespace odf {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::SetEnabled(false);
    trace::Tracer::Global().Clear();
    MetricsRegistry::Global().ResetForTest();
  }
  void TearDown() override {
    trace::SetEnabled(false);
    trace::Tracer::Global().Clear();
    MetricsRegistry::Global().ResetForTest();
  }
};

TEST_F(TraceTest, DisabledMacroEmitsNothing) {
  trace::SetEnabled(false);
  ODF_TRACE(tlb_flush, 1, 2);
  EXPECT_TRUE(trace::Tracer::Global().CollectAll().empty());
}

TEST_F(TraceTest, EnabledMacroRecordsEventWithArgs) {
#if !ODF_TRACE_COMPILED
  GTEST_SKIP() << "tracepoints compiled out (ODF_TRACE=OFF)";
#endif
  trace::SetEnabled(true);
  ODF_TRACE(fault_cow_page, /*pid=*/7, /*a0=*/0x1000, /*a1=*/42);
  trace::SetEnabled(false);
  std::vector<TraceEvent> events = trace::Tracer::Global().CollectAll();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].id, TraceEventId::k_fault_cow_page);
  EXPECT_EQ(events[0].pid, 7);
  EXPECT_EQ(events[0].a0, 0x1000u);
  EXPECT_EQ(events[0].a1, 42u);
  EXPECT_EQ(events[0].a2, 0u);
}

TEST_F(TraceTest, ArgumentsNotEvaluatedWhenDisabled) {
  trace::SetEnabled(false);
  int evaluations = 0;
  auto expensive = [&evaluations]() -> uint64_t {
    ++evaluations;
    return 0;
  };
  ODF_TRACE(fork_begin, 1, expensive());
  (void)expensive;
  EXPECT_EQ(evaluations, 0);
}

TEST_F(TraceTest, TimestampsAreMonotonicPerThread) {
#if !ODF_TRACE_COMPILED
  GTEST_SKIP() << "tracepoints compiled out (ODF_TRACE=OFF)";
#endif
  trace::SetEnabled(true);
  for (int i = 0; i < 100; ++i) {
    ODF_TRACE(tlb_flush, 0, static_cast<uint64_t>(i));
  }
  trace::SetEnabled(false);
  std::vector<TraceEvent> events = trace::Tracer::Global().CollectAll();
  ASSERT_EQ(events.size(), 100u);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].ts_ns, events[i - 1].ts_ns);
    EXPECT_EQ(events[i].a0, events[i - 1].a0 + 1) << "per-thread order lost";
  }
}

TEST_F(TraceTest, RingWrapsKeepingNewestEvents) {
  constexpr uint64_t kOverflow = 100;
  constexpr uint64_t kTotal = trace::TraceRing::kCapacity + kOverflow;
  trace::TraceRing ring(/*tid=*/0);
  for (uint64_t i = 0; i < kTotal; ++i) {
    TraceEvent event;
    event.ts_ns = i;
    event.a0 = i;
    event.id = TraceEventId::k_tlb_flush;
    ring.Append(event);
  }
  EXPECT_EQ(ring.TotalAppended(), kTotal);
  std::vector<TraceEvent> events = ring.Snapshot();
  ASSERT_EQ(events.size(), trace::TraceRing::kCapacity);
  // The oldest kOverflow events were overwritten; the survivors are contiguous and ordered.
  EXPECT_EQ(events.front().a0, kOverflow);
  EXPECT_EQ(events.back().a0, kTotal - 1);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].a0, events[i - 1].a0 + 1);
  }
}

TEST_F(TraceTest, MultiThreadEventsLandInPerThreadRingsInOrder) {
#if !ODF_TRACE_COMPILED
  GTEST_SKIP() << "tracepoints compiled out (ODF_TRACE=OFF)";
#endif
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 1000;
  trace::SetEnabled(true);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        ODF_TRACE(fault_demand_zero, /*pid=*/t + 1, i);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  trace::SetEnabled(false);

  // This test body may or may not have its own ring (other tests in this process register
  // the main thread); count only rings that saw events.
  std::vector<std::vector<TraceEvent>> per_thread = trace::Tracer::Global().CollectPerThread();
  int active_rings = 0;
  uint64_t total = 0;
  for (const auto& events : per_thread) {
    if (events.empty()) {
      continue;
    }
    ++active_rings;
    total += events.size();
    // Within one ring: a single writer, so sequence numbers are strictly increasing and all
    // events carry the same pid.
    for (size_t i = 1; i < events.size(); ++i) {
      EXPECT_EQ(events[i].a0, events[i - 1].a0 + 1);
      EXPECT_EQ(events[i].pid, events[0].pid);
    }
  }
  EXPECT_EQ(active_rings, kThreads);
  EXPECT_EQ(total, kThreads * kPerThread);
  EXPECT_GE(trace::Tracer::Global().ThreadCount(), static_cast<size_t>(kThreads));
}

TEST_F(TraceTest, ClearDropsBufferedEvents) {
#if !ODF_TRACE_COMPILED
  GTEST_SKIP() << "tracepoints compiled out (ODF_TRACE=OFF)";
#endif
  trace::SetEnabled(true);
  ODF_TRACE(proc_create, 1);
  trace::SetEnabled(false);
  EXPECT_FALSE(trace::Tracer::Global().CollectAll().empty());
  trace::Tracer::Global().Clear();
  EXPECT_TRUE(trace::Tracer::Global().CollectAll().empty());
}

TEST_F(TraceTest, FormatDumpNamesEvents) {
#if !ODF_TRACE_COMPILED
  GTEST_SKIP() << "tracepoints compiled out (ODF_TRACE=OFF)";
#endif
  trace::SetEnabled(true);
  ODF_TRACE(fork_begin, 3, 1, 4096);
  ODF_TRACE(fork_end, 3, 1, 777);
  trace::SetEnabled(false);
  std::string dump = trace::Tracer::Global().FormatDump();
  EXPECT_NE(dump.find("fork_begin"), std::string::npos);
  EXPECT_NE(dump.find("fork_end"), std::string::npos);
  EXPECT_NE(dump.find("pid=3"), std::string::npos);
}

TEST_F(TraceTest, EventNamesCoverCatalog) {
  EXPECT_STREQ(TraceEventName(TraceEventId::k_fork_begin), "fork_begin");
  EXPECT_STREQ(TraceEventName(TraceEventId::k_pte_table_shared), "pte_table_shared");
  EXPECT_STREQ(TraceEventName(TraceEventId::k_oom_kill), "oom_kill");
  EXPECT_STREQ(TraceEventName(TraceEventId::kCount), "?");
}

TEST_F(TraceTest, VmCountersAccumulateAndSnapshot) {
  uint64_t before = ReadVm(VmCounter::k_pgfault_cow_page);
  CountVm(VmCounter::k_pgfault_cow_page);
  CountVm(VmCounter::k_pgfault_cow_page, 4);
  EXPECT_EQ(ReadVm(VmCounter::k_pgfault_cow_page), before + 5);

  auto counters = MetricsRegistry::Global().SnapshotCounters();
  // Built-ins come first, in catalog order, and include every VmCounter.
  ASSERT_GE(counters.size(), kVmCounterCount);
  EXPECT_EQ(counters[0].first, VmCounterName(static_cast<VmCounter>(0)));
  bool found = false;
  for (const auto& [name, value] : counters) {
    if (name == "pgfault_cow_page") {
      EXPECT_EQ(value, before + 5);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(TraceTest, RegisteredCountersAndHistogramsExport) {
  CountVm(VmCounter::k_pgfault_demand_zero, 3);
  EXPECT_GE(MetricsRegistry::Global().CounterValue("pgfault_demand_zero"), 3u);
  EXPECT_EQ(MetricsRegistry::Global().CounterValue("not_a_counter"), 0u);

  LatencyHistogram& histogram =
      MetricsRegistry::Global().RegisterHistogram("test_custom_latency_ns");
  histogram.RecordNanos(1000);
  histogram.RecordNanos(2000);
  // Re-registration returns the same object.
  EXPECT_EQ(&MetricsRegistry::Global().RegisterHistogram("test_custom_latency_ns"), &histogram);

  std::string vmstat = MetricsRegistry::Global().FormatVmstat();
  EXPECT_NE(vmstat.find("test_custom_latency_ns_count 2"), std::string::npos);
  EXPECT_NE(vmstat.find("pgfault_demand_zero "), std::string::npos);

  MetricsRegistry::Global().ResetForTest();
  EXPECT_EQ(MetricsRegistry::Global().CounterValue("pgfault_demand_zero"), 0u);  // Zeroed...
  EXPECT_EQ(histogram.TotalCount(), 0u);
  EXPECT_EQ(&MetricsRegistry::Global().RegisterHistogram("test_custom_latency_ns"),
            &histogram);  // ...but never unregistered: cached references stay valid.
}

TEST_F(TraceTest, JsonWriterProducesValidStructure) {
  std::ostringstream out;
  JsonWriter json(out, /*indent_width=*/0);
  json.BeginObject();
  json.Key("name").Value("fig02");
  json.Key("count").Value(static_cast<uint64_t>(3));
  json.Key("ratio").Value(2.5);
  json.Key("fast").Value(false);
  json.Key("missing").Null();
  json.Key("rows").BeginArray();
  json.BeginArray().Value("a\"b").Value(1).EndArray();
  json.EndArray();
  json.EndObject();
  EXPECT_EQ(out.str(),
            "{\"name\":\"fig02\",\"count\":3,\"ratio\":2.5,\"fast\":false,"
            "\"missing\":null,\"rows\":[[\"a\\\"b\",1]]}");
}

TEST_F(TraceTest, JsonWriterEscapesControlCharacters) {
  std::ostringstream out;
  JsonWriter json(out, /*indent_width=*/0);
  json.Value(std::string_view("line\nbreak\ttab\x01"));
  EXPECT_EQ(out.str(), "\"line\\nbreak\\ttab\\u0001\"");
}


TEST_F(TraceTest, JsonWriterPassesMultiByteUtf8Unescaped) {
  // WriteEscaped treats bytes >= 0x20 other than '"' and '\\' as passthrough, so UTF-8
  // multi-byte sequences survive verbatim (JSON strings are UTF-8 by definition).
  std::ostringstream out;
  JsonWriter json(out, /*indent_width=*/0);
  json.Value(std::string_view("caf\xc3\xa9 \xe2\x9c\x93 \xf0\x9f\x90\x99"));
  EXPECT_EQ(out.str(), "\"caf\xc3\xa9 \xe2\x9c\x93 \xf0\x9f\x90\x99\"");
}

TEST_F(TraceTest, JsonWriterEscapesEveryC0ControlCharacter) {
  // Every byte below 0x20 must leave the writer escaped: the named escapes for the
  // whitespace trio, \uXXXX for the rest (including \b and \f, which this writer does
  // not special-case).
  for (int c = 1; c < 0x20; ++c) {
    std::ostringstream out;
    JsonWriter json(out, /*indent_width=*/0);
    char raw[2] = {static_cast<char>(c), '\0'};
    json.Value(std::string_view(raw, 1));
    std::string printed = out.str();
    ASSERT_GE(printed.size(), 4u) << "c=" << c;
    std::string body = printed.substr(1, printed.size() - 2);  // Strip the quotes.
    ASSERT_FALSE(body.empty()) << "c=" << c;
    EXPECT_EQ(body[0], '\\') << "unescaped control char " << c << ": " << printed;
    if (c == '\n') {
      EXPECT_EQ(body, "\\n");
    } else if (c == '\t') {
      EXPECT_EQ(body, "\\t");
    } else if (c == '\r') {
      EXPECT_EQ(body, "\\r");
    } else {
      char expected[8];
      std::snprintf(expected, sizeof(expected), "\\u%04x", c);
      EXPECT_EQ(body, expected) << "c=" << c;
    }
  }
}

TEST_F(TraceTest, JsonWriterDeepNestingBalances) {
  constexpr int kDepth = 64;
  std::ostringstream out;
  JsonWriter json(out, /*indent_width=*/0);
  for (int i = 0; i < kDepth; ++i) {
    json.BeginObject();
    json.Key("a").BeginArray();
  }
  json.Value(static_cast<uint64_t>(1));
  for (int i = 0; i < kDepth; ++i) {
    json.EndArray();
    json.EndObject();
  }
  std::string printed = out.str();
  auto count = [&printed](char c) {
    size_t n = 0;
    for (char x : printed) {
      n += (x == c) ? 1 : 0;
    }
    return n;
  };
  EXPECT_EQ(count('{'), static_cast<size_t>(kDepth));
  EXPECT_EQ(count('}'), static_cast<size_t>(kDepth));
  EXPECT_EQ(count('['), static_cast<size_t>(kDepth));
  EXPECT_EQ(count(']'), static_cast<size_t>(kDepth));
  EXPECT_NE(printed.find("[1]"), std::string::npos);
}

TEST_F(TraceTest, JsonWriterNumericPrecisionRoundTrips) {
  // Value(double) prints with %.12g; every value a bench sidecar actually emits (counters,
  // millisecond latencies, ratios) must parse back to the identical double.
  const double values[] = {0.0,       0.5,   -0.125, 0.1, 1e-9, 1048576.25,
                           8589934592.0, 3.25e15};
  for (double value : values) {
    std::ostringstream out;
    JsonWriter json(out, /*indent_width=*/0);
    json.Value(value);
    std::string printed = out.str();
    EXPECT_EQ(std::strtod(printed.c_str(), nullptr), value) << printed;
  }
}

TEST_F(TraceTest, JsonWriterNonFiniteBecomesNull) {
  // JSON has no NaN/Infinity literals; the writer degrades them to null rather than
  // emitting an unparsable document.
  std::ostringstream out;
  JsonWriter json(out, /*indent_width=*/0);
  json.BeginArray();
  json.Value(std::numeric_limits<double>::quiet_NaN());
  json.Value(std::numeric_limits<double>::infinity());
  json.Value(-std::numeric_limits<double>::infinity());
  json.EndArray();
  EXPECT_EQ(out.str(), "[null,null,null]");
}

}  // namespace
}  // namespace odf
