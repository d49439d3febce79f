#include "src/util/stats.h"

#include <algorithm>
#include <cmath>

namespace odf {

StatsSummary Summarize(std::span<const double> samples) {
  StatsSummary s;
  if (samples.empty()) {
    return s;
  }
  RunningStats acc;
  for (double v : samples) {
    acc.Add(v);
  }
  s.count = acc.count();
  s.mean = acc.mean();
  s.stddev = acc.stddev();
  s.min = acc.min();
  s.max = acc.max();
  return s;
}

double Percentile(std::span<const double> samples, double p) {
  double out = 0.0;
  const double ps[] = {p};
  auto r = Percentiles(samples, ps);
  if (!r.empty()) {
    out = r[0];
  }
  return out;
}

std::vector<double> Percentiles(std::span<const double> samples, std::span<const double> ps) {
  std::vector<double> result(ps.size(), 0.0);
  if (samples.empty()) {
    return result;
  }
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < ps.size(); ++i) {
    double p = std::clamp(ps[i], 0.0, 100.0);
    // Linear interpolation between closest ranks.
    double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
    size_t lo = static_cast<size_t>(rank);
    size_t hi = std::min(lo + 1, sorted.size() - 1);
    double frac = rank - static_cast<double>(lo);
    result[i] = sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
  }
  return result;
}

void RunningStats::Add(double sample) {
  if (count_ == 0) {
    min_ = sample;
    max_ = sample;
  } else {
    min_ = std::min(min_, sample);
    max_ = std::max(max_, sample);
  }
  ++count_;
  double delta = sample - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (sample - mean_);
}

double RunningStats::variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

}  // namespace odf
