// The wall-clock stopwatch used by the benchmark harness and index
// construction statistics.

#ifndef ISLABEL_UTIL_TIMER_H_
#define ISLABEL_UTIL_TIMER_H_

#include <chrono>
#include <cstdint>

namespace islabel {

/// Monotonic wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() { Restart(); }

  void Restart() { start_ = Clock::now(); }

  /// Elapsed time since construction / last Restart().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }
  std::int64_t ElapsedMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                 start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace islabel

#endif  // ISLABEL_UTIL_TIMER_H_
