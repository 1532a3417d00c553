// RequestDispatcher: executes parsed protocol requests against an index
// or a multi-dataset catalog.
//
// Shared by the stdin serve loop and the TCP server's worker threads so
// request semantics (which API each verb maps to, error formatting,
// request/error counting) and telemetry (InstallMetrics) are defined
// exactly once; the TCP server is a transport over the dispatcher it is
// given. Both modes execute query verbs through the one DistanceIndex
// virtual surface — Catalog::Handle IS-A DistanceIndex, so there is
// exactly one verb→API mapping, not one per backend type. Two modes:
//
//   * single-index: constructed over any DistanceIndex; the catalog
//     verbs (use / datasets / reload) answer an error.
//   * catalog: constructed over a Catalog plus a default dataset name;
//     each connection carries a Session whose selected dataset routes
//     its query verbs, `use` switches it, and `reload` hot-swaps a
//     dataset in place (executed on the calling worker, so the event
//     loop never blocks on a load).
//
// Thread-safe: the index/handle entry points lease engines internally,
// the counters are atomic, and a Session is only ever touched by the one
// worker currently processing its connection.
//
// kNone and kQuit are front-end concerns (no response / session close)
// and are not handled here.

#ifndef ISLABEL_SERVER_DISPATCHER_H_
#define ISLABEL_SERVER_DISPATCHER_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "core/distance_index.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/protocol.h"
#include "util/clock.h"

namespace islabel {
namespace server {

/// Seam through which the replication layer (src/repl/) answers the
/// replication verbs. The server library defines only this interface —
/// a primary installs hooks that serve snapshots out of its catalog, a
/// replica installs hooks that report its lag — so server/ never links
/// against repl/ and a server without hooks cleanly reports
/// NotSupported. Implementations must be thread-safe: hooks run on
/// whichever worker thread carries the request.
class ReplicationHooks {
 public:
  virtual ~ReplicationHooks() = default;

  /// Response to `version`: "version: name:gen ..." over every hosted
  /// dataset.
  virtual std::string HandleVersion() = 0;

  /// Response to `heartbeat` ("pong", possibly with detail).
  virtual std::string HandleHeartbeat() = 0;

  /// Response to `replicate NAME GEN` where GEN is the caller's current
  /// generation: "uptodate NAME GEN", a framed multi-line snapshot
  /// stream, or an "error: ..." line. May be large; the front end
  /// treats it as one response blob.
  virtual std::string HandleReplicate(const std::string& name,
                                      std::uint64_t have_gen) = 0;
};

class RequestDispatcher {
 public:
  /// Single-index mode, over any DistanceIndex backend.
  explicit RequestDispatcher(DistanceIndex* index) : index_(index) {}

  /// Catalog mode: query verbs route to `default_dataset` until a
  /// connection switches with `use`.
  RequestDispatcher(Catalog* catalog, std::string default_dataset)
      : catalog_(catalog), default_dataset_(std::move(default_dataset)) {}

  /// Per-connection dispatcher state. Owned by the front end, one per
  /// connection/session. The resolved handle is cached so the query hot
  /// path never takes the catalog-wide lookup lock: a Handle stays
  /// valid across reloads (it tracks the dataset record, not an index
  /// version), so it is resolved once at `use` time / first query.
  struct Session {
    std::string dataset;      // empty = the dispatcher's default
    Catalog::Handle handle;   // cached resolution of `dataset`
  };

  /// Returns the response line (no trailing '\n') for a kDistance,
  /// kOneToMany, kPath, kUse, kDatasets, kReload, kMetrics or kInvalid
  /// request, bumping the request/error counters as a side effect. With
  /// metrics installed, also runs the request under a QueryTrace: the
  /// per-verb latency histogram, the per-stage histograms and the
  /// slow-query counter and event all record here, once, for both front
  /// ends.
  std::string Execute(const Request& req, Session* session);

  /// Session-less convenience for single-index callers.
  std::string Execute(const Request& req) {
    Session session;
    return Execute(req, &session);
  }

  /// Telemetry wiring (DESIGN.md §16-17). Install before serving
  /// starts — not thread-safe against in-flight requests, and counts
  /// recorded before installation stay in the private counters. At
  /// least one of registry / flight_recorder must be set for tracing
  /// to run; each is optional on its own.
  struct MetricsOptions {
    obs::MetricRegistry* registry = nullptr;
    /// Clock for request/stage timing; null uses the system clock.
    const Clock* clock = nullptr;
    /// Requests with total latency >= this many ms bump
    /// islabel_server_slow_queries_total and, with an event log, emit
    /// islabel.server.slow_query; 0 disables both.
    std::uint64_t slow_query_threshold_ms = 0;
    /// Flight recorder behind the `tracez` verb (DESIGN.md §17): every
    /// dispatched request except tracez itself is recorded. Must
    /// outlive the dispatcher; null answers tracez with NotSupported.
    obs::FlightRecorder* flight_recorder = nullptr;
    /// Structured event log for slow queries and lifecycle events.
    /// Must outlive the dispatcher.
    obs::EventLog* event_log = nullptr;
  };
  void InstallMetrics(const MetricsOptions& options);

  /// The registry installed via InstallMetrics, or null. The `metrics`
  /// verb renders exactly this registry, and a TcpServer serving this
  /// dispatcher registers its connection instruments there.
  obs::MetricRegistry* metrics() const { return metrics_; }
  /// The installed clock (the process-wide SystemClock until
  /// InstallMetrics sets one); never null. Front ends time parses,
  /// idle sweeps and shutdown drains with it.
  const Clock* clock() const { return clock_; }
  /// The installed event log, or null. Front ends log their lifecycle
  /// events to it.
  obs::EventLog* event_log() const { return event_log_; }
  /// True when per-request tracing should run (registry present and
  /// enabled) — front ends consult this before timing parses.
  bool metrics_enabled() const {
    return metrics_ != nullptr && metrics_->enabled();
  }
  /// True when requests run under a QueryTrace at all: metrics on, or
  /// the flight recorder on. What front ends actually consult before
  /// timing parses.
  bool tracing_enabled() const {
    return metrics_enabled() ||
           (recorder_ != nullptr && recorder_->enabled());
  }

  std::uint64_t requests() const { return requests_c_->Value(); }
  std::uint64_t errors() const { return errors_c_->Value(); }

  /// Installs the replication verb handlers. Not thread-safe against
  /// in-flight requests — install before serving starts. `hooks` must
  /// outlive the dispatcher; nullptr uninstalls.
  void set_replication_hooks(ReplicationHooks* hooks) { repl_hooks_ = hooks; }

 private:
  /// One entry per hosted dataset, for the `datasets` verb.
  std::vector<DatasetCounters> DatasetCountersSnapshot() const;
  std::string ExecuteOnHandle(const Request& req, Session* session);
  std::string ExecuteInternal(const Request& req, Session* session);

  DistanceIndex* index_ = nullptr;
  Catalog* catalog_ = nullptr;
  ReplicationHooks* repl_hooks_ = nullptr;
  std::string default_dataset_;

  // One counter system: private instruments until InstallMetrics
  // re-points them at registry series (requests()/errors() keep working
  // either way).
  obs::Counter own_requests_, own_errors_;
  obs::Counter* requests_c_ = &own_requests_;
  obs::Counter* errors_c_ = &own_errors_;

  obs::MetricRegistry* metrics_ = nullptr;
  obs::FlightRecorder* recorder_ = nullptr;
  obs::EventLog* event_log_ = nullptr;
  const Clock* clock_ = SystemClock::Default();
  std::uint64_t slow_query_threshold_ms_ = 0;
  obs::Counter* slow_queries_ = nullptr;
  // Indexed by RequestKind; null for kinds never dispatched (kNone,
  // kQuit).
  std::array<obs::Histogram*, 16> verb_hist_{};
  std::array<obs::Histogram*, obs::kNumStages> stage_hist_{};
};

}  // namespace server
}  // namespace islabel

#endif  // ISLABEL_SERVER_DISPATCHER_H_
