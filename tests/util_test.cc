#include <gtest/gtest.h>

#include <cstdio>

#include "src/util/histogram.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/table_printer.h"

namespace odf {
namespace {

TEST(StatsTest, SummarizeBasics) {
  const double samples[] = {1, 2, 3, 4, 5};
  StatsSummary s = Summarize(samples);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_NEAR(s.stddev, 1.5811, 1e-3);
}

TEST(StatsTest, EmptyInput) {
  StatsSummary s = Summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(Percentile({}, 50), 0.0);
}

TEST(StatsTest, PercentileInterpolates) {
  const double samples[] = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(Percentile(samples, 0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(samples, 100), 40.0);
  EXPECT_DOUBLE_EQ(Percentile(samples, 50), 25.0);
}

TEST(StatsTest, PercentileUnsortedInput) {
  const double samples[] = {40, 10, 30, 20};
  EXPECT_DOUBLE_EQ(Percentile(samples, 100), 40.0);
  EXPECT_DOUBLE_EQ(Percentile(samples, 0), 10.0);
}

TEST(StatsTest, RunningStatsMatchesBatch) {
  Rng rng(7);
  std::vector<double> samples;
  RunningStats running;
  for (int i = 0; i < 1000; ++i) {
    double v = rng.NextDouble() * 100;
    samples.push_back(v);
    running.Add(v);
  }
  StatsSummary batch = Summarize(samples);
  EXPECT_NEAR(running.mean(), batch.mean, 1e-9);
  EXPECT_NEAR(running.stddev(), batch.stddev, 1e-9);
  EXPECT_EQ(running.min(), batch.min);
  EXPECT_EQ(running.max(), batch.max);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, BoundsRespected) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    uint64_t v = rng.NextInRange(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, RoughlyUniform) {
  Rng rng(9);
  int buckets[10] = {};
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    ++buckets[rng.NextBelow(10)];
  }
  for (int count : buckets) {
    EXPECT_NEAR(count, kDraws / 10, kDraws / 50);
  }
}

TEST(HistogramTest, PercentilesApproximateStoredSamples) {
  LatencyHistogram histogram;
  for (int i = 0; i < 10000; ++i) {
    histogram.RecordMicros(100.0);  // 100us = 1e5 ns.
  }
  EXPECT_EQ(histogram.TotalCount(), 10000u);
  double p50 = histogram.PercentileMicros(50);
  EXPECT_GT(p50, 80.0);
  EXPECT_LT(p50, 120.0);
  EXPECT_NEAR(histogram.MeanMicros(), 100.0, 1.0);
}

// Empty reads zero; samples below 8 ns land in exact linear buckets; a sample past the last
// octave lands in the last bucket. A single sample has no variance.
TEST(HistogramTest, EmptyTinyAndOverflowingSamples) {
  LatencyHistogram histogram;
  EXPECT_EQ(histogram.PercentileMicros(50), 0.0);
  EXPECT_EQ(histogram.MeanMicros(), 0.0);
  histogram.RecordNanos(3);
  EXPECT_DOUBLE_EQ(histogram.PercentileMicros(50), 0.003);
  histogram.RecordNanos(~uint64_t{0});
  EXPECT_EQ(histogram.TotalCount(), 2u);
  EXPECT_GT(histogram.PercentileMicros(100), 1e6);
  RunningStats stats;
  stats.Add(4.0);
  EXPECT_EQ(stats.variance(), 0.0);
}

TEST(HistogramTest, OrderingOfPercentiles) {
  LatencyHistogram histogram;
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    histogram.RecordMicros(rng.NextDouble() * 1000.0);
  }
  double p50 = histogram.PercentileMicros(50);
  double p90 = histogram.PercentileMicros(90);
  double p99 = histogram.PercentileMicros(99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
}

TEST(TablePrinterTest, RendersAlignedColumns) {
  TablePrinter table({"Name", "Value"});
  table.AddRow({"short", "1"});
  table.AddRow({"a-much-longer-name", "123456"});
  std::string out = table.Render();
  EXPECT_NE(out.find("| Name"), std::string::npos);
  EXPECT_NE(out.find("a-much-longer-name"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("|--"), std::string::npos);
}

TEST(TablePrinterTest, RendersCsvWithQuoting) {
  TablePrinter table({"Name", "Value"});
  table.AddRow({"plain", "1"});
  table.AddRow({"with,comma", "say \"hi\""});
  std::string csv = table.RenderCsv();
  EXPECT_EQ(csv,
            "Name,Value\n"
            "plain,1\n"
            "\"with,comma\",\"say \"\"hi\"\"\"\n");
}

TEST(TablePrinterTest, PrintsWhatItRendersAndExposesCells) {
  TablePrinter table({"Name", "Value"});
  table.AddRow({"x", "1"});
  EXPECT_EQ(table.headers(), (std::vector<std::string>{"Name", "Value"}));
  ASSERT_EQ(table.rows().size(), 1u);
  EXPECT_EQ(table.rows()[0][0], "x");
  std::FILE* file = std::tmpfile();
  ASSERT_NE(file, nullptr);
  table.Print(file);
  std::rewind(file);
  std::string printed;
  for (int c = 0; (c = std::fgetc(file)) != EOF;) {
    printed.push_back(static_cast<char>(c));
  }
  std::fclose(file);
  EXPECT_EQ(printed, table.Render());
}

TEST(TablePrinterTest, FormatHelpers) {
  EXPECT_EQ(TablePrinter::FormatDouble(1.23456, 2), "1.23");
  EXPECT_EQ(TablePrinter::FormatPercent(0.4567, 1), "45.7%");
}

}  // namespace
}  // namespace odf
