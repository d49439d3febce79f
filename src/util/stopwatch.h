// Monotonic wall-clock stopwatch. All benchmark timing in this repo goes through this type so
// the clock source matches the paper's CLOCK_MONOTONIC clock_gettime methodology.
#ifndef ODF_SRC_UTIL_STOPWATCH_H_
#define ODF_SRC_UTIL_STOPWATCH_H_

#include <chrono>

namespace odf {

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  // Elapsed time since construction or the last Restart().
  double ElapsedSeconds() const { return std::chrono::duration<double>(Clock::now() - start_).count(); }
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }
  double ElapsedMicros() const { return ElapsedSeconds() * 1e6; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace odf

#endif  // ODF_SRC_UTIL_STOPWATCH_H_
