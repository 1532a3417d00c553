// Clock: the injectable time source of the replication and telemetry
// layers.
//
// Everything in src/repl/ that needs "now" — heartbeat ages, poll
// due-ness, retry deadlines — reads it through this interface so tests
// can drive the whole state machine with a ManualClock and zero real
// sleeps, and src/obs/ measures query latencies through the same seam
// so trace tests are deterministic too. Production code uses
// SystemClock (steady_clock, monotonic); wall-clock time never enters
// any protocol decision.

#ifndef ISLABEL_UTIL_CLOCK_H_
#define ISLABEL_UTIL_CLOCK_H_

#include <atomic>
#include <chrono>
#include <cstdint>

namespace islabel {

/// Monotonic clock. Implementations must be thread-safe. NowMs is the
/// protocol-level resolution (heartbeats, deadlines); NowMicros exists
/// for latency measurement, where a millisecond tick would flatten every
/// sub-ms query into zero; NowNanos is what a query trace reads, where a
/// microsecond tick would flatten every stage of a cache hit into zero.
class Clock {
 public:
  virtual ~Clock() = default;
  virtual std::uint64_t NowMs() const = 0;
  virtual std::uint64_t NowMicros() const { return NowMs() * 1000; }
  virtual std::uint64_t NowNanos() const { return NowMicros() * 1000; }
};

/// The real monotonic clock.
class SystemClock : public Clock {
 public:
  /// The process-wide instance: the default wherever a Clock is optional.
  static const SystemClock* Default() {
    static const SystemClock clock;
    return &clock;
  }

  std::uint64_t NowMs() const override {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }
  std::uint64_t NowMicros() const override {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }
  std::uint64_t NowNanos() const override {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }
};

/// Test clock: time moves only when told to. Thread-safe so a server
/// worker can read stats ages while the test thread advances time.
/// Stores microseconds internally; the ms interface is unchanged.
class ManualClock : public Clock {
 public:
  explicit ManualClock(std::uint64_t start_ms = 0)
      : now_us_(start_ms * 1000) {}
  std::uint64_t NowMs() const override {
    return now_us_.load(std::memory_order_acquire) / 1000;
  }
  std::uint64_t NowMicros() const override {
    return now_us_.load(std::memory_order_acquire);
  }
  void AdvanceMs(std::uint64_t delta_ms) {
    now_us_.fetch_add(delta_ms * 1000, std::memory_order_acq_rel);
  }
  void AdvanceMicros(std::uint64_t delta_us) {
    now_us_.fetch_add(delta_us, std::memory_order_acq_rel);
  }
  void SetMs(std::uint64_t now_ms) {
    now_us_.store(now_ms * 1000, std::memory_order_release);
  }

 private:
  std::atomic<std::uint64_t> now_us_;
};

}  // namespace islabel

#endif  // ISLABEL_UTIL_CLOCK_H_
