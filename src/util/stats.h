// Descriptive statistics over samples: mean, stddev, min/max, percentiles.
#ifndef ODF_SRC_UTIL_STATS_H_
#define ODF_SRC_UTIL_STATS_H_

#include <cstddef>
#include <span>
#include <vector>

namespace odf {

// Summary of a sample set. All values are in the unit of the input samples.
struct StatsSummary {
  size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;  // Sample standard deviation (n-1 denominator).
  double min = 0.0;
  double max = 0.0;
};

// Computes count/mean/stddev/min/max over `samples`. Returns a zeroed summary when empty.
StatsSummary Summarize(std::span<const double> samples);

// Returns the p-th percentile (0 <= p <= 100) using linear interpolation between closest
// ranks. `samples` does not need to be sorted. Returns 0 when empty.
double Percentile(std::span<const double> samples, double p);

// Computes several percentiles in one sort pass. Returns results in the order of `ps`.
std::vector<double> Percentiles(std::span<const double> samples, std::span<const double> ps);

// Incremental mean/variance accumulator (Welford). Suitable for long-running measurement
// where storing every sample is undesirable.
class RunningStats {
 public:
  void Add(double sample);

  size_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  double variance() const;  // Sample variance (n-1); 0 when count < 2.
  double stddev() const;
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace odf

#endif  // ODF_SRC_UTIL_STATS_H_
