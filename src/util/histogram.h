// Log-scaled latency histogram. Cheaper than storing every sample for long benchmark runs;
// used by application workloads that record millions of request latencies.
#ifndef ODF_SRC_UTIL_HISTOGRAM_H_
#define ODF_SRC_UTIL_HISTOGRAM_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace odf {

// Buckets latencies (in nanoseconds) on a log2 scale with 8 linear sub-buckets per octave,
// covering 1 ns .. ~1100 s. Thread-safe recording via relaxed atomics.
class LatencyHistogram {
 public:
  static constexpr size_t kSubBuckets = 8;
  static constexpr size_t kOctaves = 40;
  static constexpr size_t kBucketCount = kOctaves * kSubBuckets;

  void RecordNanos(uint64_t nanos);
  void RecordMicros(double micros) {
    RecordNanos(micros <= 0 ? 0 : static_cast<uint64_t>(micros * 1e3));
  }

  uint64_t TotalCount() const;

  // Percentile (0..100) estimated from bucket boundaries, returned in microseconds.
  double PercentileMicros(double p) const;

  double MeanMicros() const;

  void Reset();

 private:
  static size_t BucketIndex(uint64_t nanos);
  static uint64_t BucketLowerBoundNanos(size_t index);

  std::array<std::atomic<uint64_t>, kBucketCount> buckets_{};
  std::atomic<uint64_t> sum_nanos_{0};
};

}  // namespace odf

#endif  // ODF_SRC_UTIL_HISTOGRAM_H_
