#include "src/util/histogram.h"

#include <bit>

namespace odf {

size_t LatencyHistogram::BucketIndex(uint64_t nanos) {
  if (nanos < kSubBuckets) {
    return static_cast<size_t>(nanos);
  }
  // Octave = position of the highest set bit; sub-bucket = next 3 bits below it.
  int msb = 63 - std::countl_zero(nanos);
  int octave = msb - 2;  // Values [8,16) land in octave 1 (after the linear region's octave 0).
  uint64_t sub = (nanos >> (msb - 3)) & (kSubBuckets - 1);
  size_t index = static_cast<size_t>(octave) * kSubBuckets + static_cast<size_t>(sub);
  if (index >= kBucketCount) {
    index = kBucketCount - 1;
  }
  return index;
}

uint64_t LatencyHistogram::BucketLowerBoundNanos(size_t index) {
  size_t octave = index / kSubBuckets;
  size_t sub = index % kSubBuckets;
  if (octave == 0) {
    return sub;
  }
  int msb = static_cast<int>(octave) + 2;
  uint64_t base = 1ULL << msb;
  return base + (static_cast<uint64_t>(sub) << (msb - 3));
}

void LatencyHistogram::RecordNanos(uint64_t nanos) {
  buckets_[BucketIndex(nanos)].fetch_add(1, std::memory_order_relaxed);
  sum_nanos_.fetch_add(nanos, std::memory_order_relaxed);
}

uint64_t LatencyHistogram::TotalCount() const {
  uint64_t total = 0;
  for (const auto& bucket : buckets_) {
    total += bucket.load(std::memory_order_relaxed);
  }
  return total;
}

double LatencyHistogram::PercentileMicros(double p) const {
  uint64_t total = TotalCount();
  if (total == 0) {
    return 0.0;
  }
  double target = p / 100.0 * static_cast<double>(total);
  uint64_t seen = 0;
  for (size_t i = 0; i < kBucketCount; ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (static_cast<double>(seen) >= target) {
      return static_cast<double>(BucketLowerBoundNanos(i)) / 1e3;
    }
  }
  return static_cast<double>(BucketLowerBoundNanos(kBucketCount - 1)) / 1e3;
}

double LatencyHistogram::MeanMicros() const {
  uint64_t total = TotalCount();
  if (total == 0) {
    return 0.0;
  }
  return static_cast<double>(sum_nanos_.load(std::memory_order_relaxed)) /
         static_cast<double>(total) / 1e3;
}

void LatencyHistogram::Reset() {
  for (auto& bucket : buckets_) {
    bucket.store(0, std::memory_order_relaxed);
  }
  sum_nanos_.store(0, std::memory_order_relaxed);
}

}  // namespace odf
