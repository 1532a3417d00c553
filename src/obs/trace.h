// QueryTrace: request-scoped span recorder for the serving path
// (DESIGN.md §16). One trace lives on the dispatcher's stack per
// request; a thread-local current-trace pointer lets the layers below
// (cache lookup in the DistanceIndex template method, lease wait in the
// engine pool, the kernel itself) attribute time to named stages
// without any signature change. When no trace is installed — stdin
// tools, tests, benches driving indexes directly — a StageTimer is one
// thread-local load and a branch: zero clock reads.
//
// Stages: parse → cache lookup → pool lease wait → kernel → encode.
// They tile the request: every stage boundary is one nanosecond clock
// read, shared by the stage it closes and the stage it opens, so the
// stages of a query sum to its total and a cache hit costs three reads.
// Time comes from the injected Clock seam (util/clock.h), so trace and
// slow-query tests run on a ManualClock with zero real sleeps.

#ifndef ISLABEL_OBS_TRACE_H_
#define ISLABEL_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/clock.h"

namespace islabel {
namespace obs {

enum class Stage : int {
  kParse = 0,
  kCacheLookup = 1,
  kPoolWait = 2,
  kKernel = 3,
  kEncode = 4,
};
inline constexpr int kNumStages = 5;

const char* StageName(Stage stage);

/// Per-request stage accumulator. Single-threaded by design: the worker
/// that owns the request creates it, installs it via TraceScope, and
/// reads it back after the verb completes. Stages hit more than once
/// (per-part pool waits in a partitioned query) accumulate.
class QueryTrace {
 public:
  /// Reads the clock once: the request's first stage boundary.
  explicit QueryTrace(const Clock* clock)
      : clock_(clock), start_ns_(clock->NowNanos()), boundary_ns_(start_ns_) {}

  /// Reads the clock once, charges the time since the previous boundary
  /// to `stage`, and makes that read the new boundary.
  void Close(Stage stage) {
    const std::uint64_t now = clock_->NowNanos();
    stage_ns_[static_cast<int>(stage)] += now - boundary_ns_;
    boundary_ns_ = now;
  }
  /// Reads the clock once and makes it the new boundary, charging no
  /// stage: how a request that is not broken into stages ends.
  void Mark() { boundary_ns_ = clock_->NowNanos(); }

  /// Charges time measured outside the trace (the front end's parse,
  /// which precedes the trace) to `stage`.
  void Add(Stage stage, std::uint64_t micros) {
    stage_ns_[static_cast<int>(stage)] += micros * 1000;
  }
  std::uint64_t StageNanos(Stage stage) const {
    return stage_ns_[static_cast<int>(stage)];
  }
  std::uint64_t StageMicros(Stage stage) const {
    return StageNanos(stage) / 1000;
  }
  /// Construction to the last boundary, plus the parse time the front
  /// end measured before the trace existed.
  std::uint64_t TotalNanos() const {
    return boundary_ns_ - start_ns_ + StageNanos(Stage::kParse);
  }

  /// Nesting guard for KernelSpan: a catalog handle's QueryUncached
  /// runs the inner index's template method, and only the OUTERMOST
  /// span may attribute kernel time or it would double-count. Returns
  /// true when this frame is outermost; every Begin pairs with an End.
  bool BeginKernel() { return kernel_depth_++ == 0; }
  void EndKernel() { --kernel_depth_; }
  bool InKernel() const { return kernel_depth_ > 0; }

  /// Distributed trace id (DESIGN.md §17): minted by the client, carried
  /// as the trailing `tid=<hex>` wire token, stitched across failover
  /// retries. 0 = untagged request.
  void set_trace_id(std::uint64_t id) { trace_id_ = id; }
  std::uint64_t trace_id() const { return trace_id_; }

  /// Set by the distance-cache lookup path on a hit, so the flight
  /// recorder can tell cached answers from computed ones.
  void set_cache_hit(bool hit) { cache_hit_ = hit; }
  bool cache_hit() const { return cache_hit_; }

 private:
  const Clock* clock_;
  std::uint64_t start_ns_;
  std::uint64_t boundary_ns_;
  std::uint64_t stage_ns_[kNumStages] = {};
  int kernel_depth_ = 0;
  std::uint64_t trace_id_ = 0;
  bool cache_hit_ = false;
};

/// The trace installed for the current thread, or null.
QueryTrace* CurrentTrace();

/// Installs `trace` as the thread's current trace for its scope,
/// restoring the previous one on exit (null uninstalls).
class TraceScope {
 public:
  explicit TraceScope(QueryTrace* trace);
  ~TraceScope();

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  QueryTrace* prev_;
};

/// RAII stage against the current trace: reads no clock on entry and
/// closes `stage` on exit, so the stage also takes whatever ran since
/// the previous boundary. Opened inside a kernel span (a pool wait), it
/// first closes the kernel's time so far. No trace installed → no clock
/// reads at all.
class StageTimer {
 public:
  explicit StageTimer(Stage stage) : trace_(CurrentTrace()), stage_(stage) {
    if (trace_ != nullptr && trace_->InKernel()) trace_->Close(Stage::kKernel);
  }
  ~StageTimer() {
    if (trace_ != nullptr) trace_->Close(stage_);
  }

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  QueryTrace* trace_;
  Stage stage_;
};

/// RAII kernel span against the current trace: reads no clock on entry,
/// and the outermost span closes kKernel on exit. A pool wait inside it
/// closes the kernel's time before its own (StageTimer), so the kernel
/// is charged everything else. Only the outermost span records, so a
/// backend call that re-enters DistanceIndex::Query is counted once. No
/// trace installed → no clock reads at all.
class KernelSpan {
 public:
  KernelSpan() : trace_(CurrentTrace()) {
    if (trace_ != nullptr) outermost_ = trace_->BeginKernel();
  }
  ~KernelSpan() {
    if (trace_ == nullptr) return;
    trace_->EndKernel();
    if (outermost_) trace_->Close(Stage::kKernel);
  }

  KernelSpan(const KernelSpan&) = delete;
  KernelSpan& operator=(const KernelSpan&) = delete;

 private:
  QueryTrace* trace_;
  bool outermost_ = false;
};

/// Wire form of a trace id: 1-16 lowercase hex digits, no "0x" prefix
/// (DESIGN.md §17). FormatTraceId never emits leading zeros; 0 formats
/// as "0" but is never a valid wire id.
std::string FormatTraceId(std::uint64_t id);

/// Strict parse of the wire form: 1-16 hex digits (either case),
/// nonzero. False on anything else.
bool ParseTraceId(std::string_view token, std::uint64_t* out);

}  // namespace obs
}  // namespace islabel

#endif  // ISLABEL_OBS_TRACE_H_
