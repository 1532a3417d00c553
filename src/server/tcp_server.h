// TcpServer: epoll-based TCP front end for the IS-LABEL wire protocol.
//
// Threading model (one event loop + a worker pool):
//
//   * The event-loop thread owns every file descriptor: it accepts
//     non-blocking connections, reads request bytes, parses complete
//     lines (server/protocol.h), writes buffered responses, and is the
//     only thread that ever calls epoll_ctl / close. Sockets are
//     edge-triggered, so reads and writes always drain to EAGAIN.
//   * Worker threads execute parsed requests through RequestDispatcher
//     (each index entry point leases an engine from the QueryEnginePool),
//     append responses to the connection's output buffer, and wake the
//     event loop through an eventfd to flush.
//
// A connection is scheduled to at most one worker at a time, so
// pipelined requests on one connection are answered strictly in request
// order while different connections run in parallel. The only state
// shared between the loop and a worker is the per-connection
// {pending requests, output buffer, flags} record, guarded by the
// connection mutex; fd lifecycle stays loop-private, which keeps the
// whole server ThreadSanitizer-clean.
//
// Shutdown: Stop() (async-signal-safe: an atomic store plus an eventfd
// write, also reachable from the optional SIGINT/SIGTERM handlers) makes
// the loop stop accepting, flush every connection's buffered responses,
// close drained connections, and force-close stragglers after
// drain_timeout_ms. Wait() joins the loop and the workers.

#ifndef ISLABEL_SERVER_TCP_SERVER_H_
#define ISLABEL_SERVER_TCP_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/index.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "server/dispatcher.h"
#include "server/protocol.h"
#include "util/clock.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace islabel {
namespace server {

struct TcpServerOptions {
  /// IPv4 dotted quad, or "localhost". "0.0.0.0" binds every interface.
  std::string host = "127.0.0.1";
  /// 0 requests an ephemeral port; read the real one back with port().
  std::uint16_t port = 0;
  /// Request-executing workers; 0 = hardware concurrency.
  std::uint32_t num_workers = 0;
  /// A request line longer than this (no '\n' seen) closes the
  /// connection with an error response.
  std::size_t max_line_bytes = 1u << 20;
  int listen_backlog = 128;
  /// How long Stop() keeps draining buffered responses before
  /// force-closing connections.
  std::uint32_t drain_timeout_ms = 5000;
  /// Install SIGINT/SIGTERM handlers that call Stop() (CLI mode).
  bool install_signal_handlers = false;
  /// Slowloris guard: a connection that has neither delivered bytes nor
  /// had a response flushed for this long is answered "error: timeout"
  /// and closed. 0 disables (default; the `serve` CLI enables it).
  std::uint32_t idle_timeout_ms = 0;
  /// Cap on unparsed buffered input per connection (bytes before a
  /// '\n'). A connection exceeding it is answered "error: timeout" and
  /// closed — dribbling bytes forever cannot pin memory. 0 disables
  /// (the per-line max_line_bytes still applies).
  std::size_t max_buffered_bytes = 0;
  /// Time source for idle sweeps, the shutdown drain deadline, and (when
  /// metrics are on) request/stage latency timing. nullptr = the
  /// process-wide SystemClock; tests inject a ManualClock to drive
  /// timeouts without real sleeps. Must outlive the server.
  const Clock* clock = nullptr;
  /// Metric registry (DESIGN.md §16). When set, the server registers its
  /// connection/byte/queue instruments there and installs it on the
  /// dispatcher (per-verb histograms, stage traces, the `metrics` verb).
  /// nullptr in catalog mode falls back to the catalog's registry;
  /// nullptr in single-index mode falls back to a registry the server
  /// owns, so `metrics` and the telemetry counters work in both modes
  /// out of the box. Must outlive the server when set.
  obs::MetricRegistry* metrics = nullptr;
  /// Requests slower than this many ms bump
  /// islabel_server_slow_queries_total and, with an event log, emit
  /// islabel.server.slow_query (0 = off).
  std::uint64_t slow_query_threshold_ms = 0;
  /// Flight recorder behind the `tracez` verb (DESIGN.md §17). Null
  /// answers tracez with NotSupported. Must outlive the server.
  obs::FlightRecorder* flight_recorder = nullptr;
  /// Structured event log (server lifecycle + slow-query events,
  /// DESIGN.md §17). Null disables. Must outlive the server.
  obs::EventLog* event_log = nullptr;
};

struct TcpServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_open = 0;
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  /// Connections shed in the accept loop under fd exhaustion.
  std::uint64_t accept_shed = 0;
  /// Connections closed by the idle-timeout / input-cap guard.
  std::uint64_t idle_closed = 0;
};

class TcpServer {
 public:
  /// Single-index server. `index` must outlive the server. A result
  /// cache is installed on the index itself (set_distance_cache).
  TcpServer(ISLabelIndex* index, const TcpServerOptions& options);

  /// Catalog server: hosts every dataset in `catalog` (which must
  /// outlive the server). Connections start on `default_dataset` and
  /// switch with the `use` verb; `reload NAME` hot-swaps a dataset while
  /// the other workers keep serving.
  TcpServer(Catalog* catalog, const std::string& default_dataset,
            const TcpServerOptions& options);

  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Binds, listens, and starts the event loop + workers.
  Status Start();

  /// Requests shutdown. Async-signal-safe, callable from any thread,
  /// idempotent. Returns immediately; use Wait() to block until drained.
  void Stop();

  /// Blocks until the event loop and all workers have exited.
  void Wait();

  /// The bound port (resolves port 0 after Start()).
  std::uint16_t port() const { return bound_port_; }

  /// Installs replication verb handlers on the dispatcher. Call before
  /// Start(); `hooks` must outlive the server.
  void SetReplicationHooks(ReplicationHooks* hooks) {
    dispatcher_.set_replication_hooks(hooks);
  }

  TcpServerStats stats() const;

  /// The resolved metric registry: options, the catalog's, or (in
  /// single-index mode) the server-owned default. Never null after
  /// construction.
  obs::MetricRegistry* metrics() const { return dispatcher_.metrics(); }

 private:
  struct Connection;

  /// Resolves the registry (options > catalog > none) and registers the
  /// server-level instruments + dispatcher metrics. Constructor-time.
  void InitMetrics();

  void EventLoop();
  void WorkerLoop();
  void AcceptAll();
  /// Frees one fd under EMFILE/ENFILE: closes the oldest idle
  /// connection, or accepts-and-drops via the reserve fd. True if the
  /// accept loop should retry.
  bool ShedForAccept();
  /// Closes connections idle past options_.idle_timeout_ms.
  void SweepIdle();
  /// Queues "error: timeout" on `conn` and closes it once flushed.
  void TimeoutConn(const std::shared_ptr<Connection>& conn);
  void HandleWake();
  void BeginShutdown();
  void HandleRead(const std::shared_ptr<Connection>& conn);
  void ParseLines(const std::shared_ptr<Connection>& conn);
  void Flush(const std::shared_ptr<Connection>& conn);
  void CloseConn(const std::shared_ptr<Connection>& conn);
  void ProcessConnection(const std::shared_ptr<Connection>& conn);
  void NotifyFlush(std::shared_ptr<Connection> conn);
  void UpdateEpollOut(const std::shared_ptr<Connection>& conn, bool want);

  TcpServerOptions options_;
  const Clock* clock_ = nullptr;  // never null after construction
  /// Fallback registry for single-index servers with no injected one,
  /// so `metrics` and the telemetry counters work in both modes.
  obs::MetricRegistry own_registry_;
  RequestDispatcher dispatcher_;
  bool stop_event_logged_ = false;  // Wait()-caller private

  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  int wake_fd_ = -1;
  /// Spare fd (open on /dev/null) released under EMFILE so the stuck
  /// accept can complete and the newcomer be closed instead of the
  /// listen queue wedging. Loop-thread private after Start().
  int reserve_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  bool started_ = false;
  bool signal_handlers_installed_ = false;

  std::thread loop_thread_;
  std::vector<std::thread> workers_;

  // Loop-thread-private connection table (fd → connection).
  std::unordered_map<int, std::shared_ptr<Connection>> conns_;
  bool stopping_ = false;  // loop-thread private

  std::atomic<bool> stop_requested_{false};

  // Worker queue: connections with pending requests.
  Mutex work_mu_;
  CondVar work_cv_;
  std::deque<std::shared_ptr<Connection>> work_queue_ GUARDED_BY(work_mu_);
  bool workers_shutdown_ GUARDED_BY(work_mu_) = false;

  // Flush queue: connections with fresh output, drained by the loop.
  Mutex flush_mu_;
  std::deque<std::shared_ptr<Connection>> flush_queue_ GUARDED_BY(flush_mu_);

  // Series of the resolved registry, set once by InitMetrics and never
  // null afterwards: the loop/worker threads update them unconditionally.
  obs::Counter* accepted_ = nullptr;
  obs::Gauge* open_ = nullptr;
  obs::Counter* bytes_in_ = nullptr;
  obs::Counter* bytes_out_ = nullptr;
  obs::Counter* accept_shed_ = nullptr;
  obs::Counter* idle_closed_ = nullptr;
  obs::Gauge* queue_depth_ = nullptr;
};

}  // namespace server
}  // namespace islabel

#endif  // ISLABEL_SERVER_TCP_SERVER_H_
