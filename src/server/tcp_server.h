// TcpServer: epoll-based TCP front end for the IS-LABEL wire protocol.
//
// A transport: it parses, schedules and writes lines for the
// RequestDispatcher it is given, and takes everything else from that
// dispatcher — the metric registry its connection instruments record
// into, the clock, and the event log. Telemetry is configured once, by
// RequestDispatcher::InstallMetrics, for this and the stdin front end.
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
// close drained connections, and force-close stragglers after a 5 s
// drain timeout. Wait() joins the loop and the workers.

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

#include "obs/metrics.h"
#include "server/dispatcher.h"
#include "server/protocol.h"
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
  /// Install SIGINT/SIGTERM handlers that call Stop() (CLI mode).
  bool install_signal_handlers = false;
  /// Slowloris guard: a connection that has neither delivered bytes nor
  /// had a response flushed for this long is answered "error: timeout"
  /// and closed. 0 disables (default; the `serve` CLI enables it).
  std::uint32_t idle_timeout_ms = 0;
  /// Cap on unparsed buffered input per connection (bytes before a
  /// '\n'). A connection exceeding it is answered "error: timeout" and
  /// closed — dribbling bytes forever cannot pin memory. 0 disables
  /// (the 1 MiB request-line limit still applies).
  std::size_t max_buffered_bytes = 0;
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
  /// Serves `dispatcher`, which must outlive the server and have its
  /// telemetry installed.
  TcpServer(RequestDispatcher* dispatcher, const TcpServerOptions& options);

  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Binds, listens, and starts the event loop + workers.
  /// FailedPrecondition, before any socket is opened, when the
  /// dispatcher has no registry.
  Status Start();

  /// Requests shutdown. Async-signal-safe, callable from any thread,
  /// idempotent. Returns immediately; use Wait() to block until drained.
  void Stop();

  /// Blocks until the event loop and all workers have exited.
  void Wait();

  /// The bound port (resolves port 0 after Start()).
  std::uint16_t port() const { return bound_port_; }

  /// Reads the connection instruments and the dispatcher's counters.
  /// Valid after a successful Start().
  TcpServerStats stats() const;

 private:
  struct Connection;

  /// Registers the server-level instruments in `registry`.
  void InitMetrics(obs::MetricRegistry* registry);

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
  RequestDispatcher* dispatcher_;
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

  // Series of the dispatcher's registry, set by InitMetrics before any
  // thread starts: the loop/worker threads update them unconditionally.
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
