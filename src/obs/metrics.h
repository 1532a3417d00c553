// MetricRegistry: the project's one counter system (DESIGN.md §16).
//
// Three instrument kinds — Counter (monotone, relaxed atomic), Gauge
// (settable/deltable int64), Histogram (fixed power-of-two microsecond
// buckets over per-thread cells, p50/p95/p99/p999 by linear
// interpolation) — plus callback gauges evaluated only at scrape time.
// The record path (Inc/Add/Set/RecordNanos) is allocation-free and
// wait-free: registration hands out a stable pointer once, and recording
// is a relaxed atomic update behind a relaxed enabled-flag load.
// Registration and rendering take a Mutex; they are cold by
// construction.
//
// Exposition is Prometheus text format, terminated with an OpenMetrics
// "# EOF" line so the multi-line `metrics` verb response self-delimits
// over the line protocol.
//
// Naming convention (enforced by tools/lint_invariants.py rule
// `metric-names`): family names are static string literals at the
// registration call site, prefixed `islabel_`, and listed in the
// DESIGN.md metric-names marker block. Per-dataset / per-shard /
// per-verb variation goes into labels, never into names.
//
// The registry-wide enabled flag exists for the bench A/B overhead leg:
// set_enabled(false) turns every record path registered through this
// registry into a load+branch no-op, so instrumented-vs-noop QPS is
// measurable in one binary.

#ifndef ISLABEL_OBS_METRICS_H_
#define ISLABEL_OBS_METRICS_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace islabel {
namespace obs {

/// Label set of one time series, e.g. {{"verb", "distance"}}. Order is
/// preserved into the exposition; keep call sites consistent.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing event count. Wait-free; values survive a
/// disabled interval but do not advance during one.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Inc(std::uint64_t n = 1) {
    if (!RecordingEnabled()) return;
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t Value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricRegistry;
  bool RecordingEnabled() const {
    return enabled_ == nullptr || enabled_->load(std::memory_order_relaxed);
  }
  std::atomic<std::uint64_t> value_{0};
  const std::atomic<bool>* enabled_ = nullptr;  // registry flag; null = on
};

/// Point-in-time level: pool occupancy, open connections, queue depth.
/// Add/Sub deltas let several owners (pool instances, partitions) share
/// one gauge; Set is for single-writer levels like generations.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(std::int64_t v) {
    if (!RecordingEnabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }
  void Add(std::int64_t delta) {
    if (!RecordingEnabled()) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t Value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricRegistry;
  bool RecordingEnabled() const {
    return enabled_ == nullptr || enabled_->load(std::memory_order_relaxed);
  }
  std::atomic<std::int64_t> value_{0};
  const std::atomic<bool>* enabled_ = nullptr;
};

/// Latency distribution over fixed log-scale buckets: bucket i counts
/// observations with value ≤ 2^i microseconds (1µs … ~67s), plus one
/// overflow bucket. Observations arrive in nanoseconds; the sum keeps
/// them, and the bucket is the one holding the value rounded up to a
/// whole µs, so every `le` bound stays exact. Quantiles interpolate
/// linearly inside the bucket holding the rank, so the worst-case
/// quantile error is the bucket width — a factor of 2, which is what a
/// log-scale histogram promises.
///
/// The record path is per-thread: each of the first ThreadCells()
/// recording threads of the process owns one cell of every histogram and
/// updates it with a relaxed load and store, so no two workers write the
/// same cache line. Later threads, and a thread past its exit, share
/// cell 0 through fetch_add. A read sums every cell.
class Histogram {
 public:
  /// Finite buckets: upper bounds 2^0 … 2^26 µs. Index kNumFiniteBuckets
  /// is the +Inf overflow bucket.
  static constexpr int kNumFiniteBuckets = 27;

  /// Exclusive per-thread cells: one per hardware thread, which is the
  /// TCP server's default worker count. Fixed for the process.
  static int ThreadCells();

  Histogram();
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void RecordNanos(std::uint64_t ns) {
    if (!RecordingEnabled()) return;
    int cell = t_cell_;
    if (cell < 0) cell = ClaimCell();
    Cell& c = cells_[cell];
    // ceil(ns / 1000) µs without overflow; 0 stays 0.
    const std::uint64_t micros = ns == 0 ? 0 : (ns - 1) / 1000 + 1;
    std::atomic<std::uint64_t>& bucket = c.buckets[BucketIndex(micros)];
    if (cell != kSharedCell) {
      // The only writer of this cell: no read-modify-write needed.
      bucket.store(bucket.load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
      c.sum_ns.store(c.sum_ns.load(std::memory_order_relaxed) + ns,
                     std::memory_order_relaxed);
    } else {
      bucket.fetch_add(1, std::memory_order_relaxed);
      c.sum_ns.fetch_add(ns, std::memory_order_relaxed);
    }
  }

  std::uint64_t Count() const;
  std::uint64_t SumNanos() const;
  std::uint64_t BucketCount(int i) const;

  /// Upper bound of finite bucket i, in microseconds (2^i).
  static std::uint64_t BucketUpperMicros(int i) {
    return std::uint64_t{1} << i;
  }

  /// Smallest bucket index whose upper bound is ≥ micros (the overflow
  /// bucket for anything past 2^26 µs).
  static int BucketIndex(std::uint64_t micros) {
    if (micros <= 1) return 0;
    // ceil(log2(micros))
    const int i = static_cast<int>(std::bit_width(micros - 1));
    return i < kNumFiniteBuckets ? i : kNumFiniteBuckets;
  }

  /// Interpolated quantile in microseconds, q in [0,1]. Returns 0 on an
  /// empty histogram; observations in the overflow bucket resolve to the
  /// top finite bound (a floor, not a lie — documented in DESIGN.md §16).
  double QuantileMicros(double q) const;

 private:
  friend class MetricRegistry;
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> buckets[kNumFiniteBuckets + 1] = {};
    std::atomic<std::uint64_t> sum_ns{0};
  };
  static constexpr int kSharedCell = 0;

  bool RecordingEnabled() const {
    return enabled_ == nullptr || enabled_->load(std::memory_order_relaxed);
  }
  /// First record of this thread: claims the lowest free thread cell
  /// (released at thread exit), or the shared cell when none is free.
  static int ClaimCell();

  /// This thread's cell index, shared by every histogram; -1 until the
  /// thread's first record.
  static inline thread_local int t_cell_ = -1;

  /// kSharedCell, then ThreadCells() exclusive cells.
  std::unique_ptr<Cell[]> cells_;
  const std::atomic<bool>* enabled_ = nullptr;
};

/// Named metric store. Get* calls are get-or-create keyed on
/// (name, labels): asking again with the same key returns the SAME
/// pointer, which is what lets a reloaded dataset or a reset engine
/// pool keep appending to its existing series. Returned pointers stay
/// valid for the registry's lifetime.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  Counter* GetCounter(const std::string& name, const std::string& help,
                      const Labels& labels = {});
  Gauge* GetGauge(const std::string& name, const std::string& help,
                  const Labels& labels = {});
  Histogram* GetHistogram(const std::string& name, const std::string& help,
                          const Labels& labels = {});

  /// Gauge whose value is computed at scrape time. The callback runs
  /// under the registry mutex during RenderPrometheus: it must be cheap,
  /// must not call back into this registry, and must outlive it.
  /// Re-registering the same (name, labels) replaces the callback — the
  /// seam a replica agent uses across reconnects.
  void RegisterCallbackGauge(const std::string& name, const std::string& help,
                             const Labels& labels,
                             std::function<double()> fn);

  /// Flips every record path registered through this registry between
  /// live and no-op. Exists for the bench A/B overhead leg.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Prometheus text format, "# EOF"-terminated.
  std::string RenderPrometheus() const;

  /// Registered family names in registration order (tests, linting).
  std::vector<std::string> FamilyNames() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram, kCallbackGauge };

  struct Series {
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::function<double()> callback;
  };
  struct Family {
    std::string name;
    std::string help;
    Kind kind;
    std::vector<std::unique_ptr<Series>> series;
  };

  Family* GetFamily(const std::string& name, const std::string& help,
                    Kind kind) REQUIRES(mu_);
  Series* GetSeries(Family* family, const Labels& labels) REQUIRES(mu_);

  mutable Mutex mu_;
  std::vector<std::unique_ptr<Family>> families_ GUARDED_BY(mu_);
  std::atomic<bool> enabled_{true};

  // Returned on a kind-mismatched re-registration (a programmer error
  // the metric-names lint rule makes loud): recording still works, the
  // series is just never rendered, and nothing crashes.
  Counter scratch_counter_;
  Gauge scratch_gauge_;
  Histogram scratch_histogram_;
};

}  // namespace obs
}  // namespace islabel

#endif  // ISLABEL_OBS_METRICS_H_
