#include "server/tcp_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <csignal>
#include <cstring>

#include "util/parallel.h"

namespace islabel {
namespace server {

namespace {

constexpr int kListenBacklog = 128;
/// How long shutdown keeps draining buffered responses before
/// force-closing connections.
constexpr std::uint64_t kDrainTimeoutMs = 5000;

/// The server whose Stop() the SIGINT/SIGTERM handlers call. One server
/// per process may install handlers (the CLI case).
std::atomic<TcpServer*> g_signal_server{nullptr};

void HandleStopSignal(int /*signo*/) {
  // Stop() is an atomic store plus an eventfd write — async-signal-safe.
  TcpServer* s = g_signal_server.load(std::memory_order_acquire);
  if (s != nullptr) s->Stop();
}

}  // namespace

/// Per-connection state. The fd, the unparsed input tail and the
/// EPOLLOUT arm flag belong to the event-loop thread alone; everything a
/// worker touches lives behind `mu`.
struct TcpServer::Connection {
  int fd = -1;                  // loop-thread private; -1 once closed
  std::string in;               // loop-thread private: bytes before '\n'
  bool epollout_armed = false;  // loop-thread private
  /// Last time the peer delivered bytes or a response was flushed (the
  /// dispatcher's clock, in ms). Loop-thread private (read/written only
  /// by the event loop).
  std::uint64_t last_activity_ms = 0;

  Mutex mu;
  std::string out GUARDED_BY(mu);              // response bytes awaiting write
  std::deque<Request> pending GUARDED_BY(mu);  // parsed, awaiting execution
  bool scheduled GUARDED_BY(mu) = false;   // queued for / held by a worker
  bool want_close GUARDED_BY(mu) = false;  // close once drained, !scheduled
  // Selected catalog dataset. Guarded by mu like the rest, but only the
  // (single) worker holding the connection ever reads or writes it.
  RequestDispatcher::Session session GUARDED_BY(mu);
};

TcpServer::TcpServer(RequestDispatcher* dispatcher,
                     const TcpServerOptions& options)
    : options_(options), dispatcher_(dispatcher) {}

void TcpServer::InitMetrics(obs::MetricRegistry* registry) {
  accepted_ = registry->GetCounter("islabel_server_connections_accepted_total",
                                   "Connections accepted since start.");
  open_ = registry->GetGauge("islabel_server_connections_open",
                             "Currently open connections.");
  bytes_in_ = registry->GetCounter("islabel_server_bytes_in_total",
                                   "Request bytes read from peers.");
  bytes_out_ = registry->GetCounter("islabel_server_bytes_out_total",
                                    "Response bytes written to peers.");
  accept_shed_ = registry->GetCounter(
      "islabel_server_accept_shed_total",
      "Connections shed in the accept loop under fd exhaustion.");
  idle_closed_ = registry->GetCounter(
      "islabel_server_idle_closed_total",
      "Connections closed by the idle-timeout / input-cap guard.");
  queue_depth_ = registry->GetGauge(
      "islabel_server_worker_queue_depth",
      "Connections queued for (or held by) a worker right now.");
}

TcpServer::~TcpServer() {
  Stop();
  Wait();
  if (signal_handlers_installed_) {
    g_signal_server.store(nullptr, std::memory_order_release);
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (reserve_fd_ >= 0) ::close(reserve_fd_);
}

Status TcpServer::Start() {
  if (started_) return Status::FailedPrecondition("server already started");
  if (dispatcher_->metrics() == nullptr) {
    return Status::FailedPrecondition(
        "dispatcher has no metric registry: call InstallMetrics first");
  }
  InitMetrics(dispatcher_->metrics());

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  const std::string host =
      options_.host == "localhost" ? "127.0.0.1" : options_.host;
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("cannot parse listen host " +
                                   options_.host);
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Status st = Status::IOError("bind " + options_.host + ": " +
                                std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  if (::listen(listen_fd_, kListenBacklog) != 0) {
    Status st = Status::IOError(std::string("listen: ") +
                                std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    bound_port_ = ntohs(bound.sin_port);
  }

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    return Status::IOError("epoll_create1/eventfd failed");
  }
  // Held in reserve for fd exhaustion (see ShedForAccept). Failure to
  // open it is not fatal — the idle-eviction path still works.
  reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET;
  ev.data.fd = listen_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
    return Status::IOError("epoll_ctl(listen) failed");
  }
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    return Status::IOError("epoll_ctl(wake) failed");
  }

  if (options_.install_signal_handlers) {
    g_signal_server.store(this, std::memory_order_release);
    std::signal(SIGINT, HandleStopSignal);
    std::signal(SIGTERM, HandleStopSignal);
    signal_handlers_installed_ = true;
  }

  // The default matches obs::Histogram::ThreadCells(): one cell per worker.
  const unsigned workers = EffectiveThreads(options_.num_workers);
  workers_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  loop_thread_ = std::thread([this] { EventLoop(); });
  started_ = true;
  if (dispatcher_->event_log() != nullptr) {
    dispatcher_->event_log()->Log(
        obs::EventLevel::kInfo, "islabel.server.started",
        {{"host", options_.host},
         {"port", obs::EventLog::U64(bound_port_)},
         {"workers", obs::EventLog::U64(workers)}});
  }
  return Status::OK();
}

void TcpServer::Stop() {
  stop_requested_.store(true, std::memory_order_release);
  if (wake_fd_ >= 0) {
    const std::uint64_t tick = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd_, &tick, sizeof(tick));
  }
}

void TcpServer::Wait() {
  if (loop_thread_.joinable()) loop_thread_.join();
  {
    MutexLock lock(&work_mu_);
    workers_shutdown_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  if (started_ && !stop_event_logged_ && dispatcher_->event_log() != nullptr) {
    stop_event_logged_ = true;
    const TcpServerStats s = stats();
    dispatcher_->event_log()->Log(
        obs::EventLevel::kInfo, "islabel.server.stopped",
        {{"requests", obs::EventLog::U64(s.requests)},
         {"errors", obs::EventLog::U64(s.errors)},
         {"connections", obs::EventLog::U64(s.connections_accepted)}});
  }
}

// ---- Event loop (all fd operations happen on this thread) ----

void TcpServer::EventLoop() {
  std::array<epoll_event, 64> events;
  std::uint64_t drain_deadline_ms = 0;
  for (;;) {
    int timeout_ms = stopping_ ? 50 : -1;
    if (!stopping_ && options_.idle_timeout_ms > 0) {
      // Wake often enough that an idle connection overstays by at most
      // ~a quarter of the timeout.
      timeout_ms = static_cast<int>(std::clamp<std::uint32_t>(
          options_.idle_timeout_ms / 4, 10, 1000));
    }
    const int n =
        ::epoll_wait(epoll_fd_, events.data(),
                     static_cast<int>(events.size()), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const epoll_event& ev = events[i];
      if (ev.data.fd == wake_fd_) {
        HandleWake();
        continue;
      }
      if (ev.data.fd == listen_fd_) {
        AcceptAll();
        continue;
      }
      auto it = conns_.find(ev.data.fd);
      if (it == conns_.end()) continue;  // already closed this batch
      std::shared_ptr<Connection> conn = it->second;
      if (ev.events & (EPOLLHUP | EPOLLERR)) {
        MutexLock lock(&conn->mu);
        conn->want_close = true;
      }
      if (ev.events & (EPOLLIN | EPOLLRDHUP)) HandleRead(conn);
      if (ev.events & EPOLLOUT) Flush(conn);
      if (ev.events & (EPOLLHUP | EPOLLERR)) Flush(conn);
    }
    if (!stopping_) SweepIdle();
    if (stop_requested_.load(std::memory_order_acquire) && !stopping_) {
      BeginShutdown();
      drain_deadline_ms = dispatcher_->clock()->NowMs() + kDrainTimeoutMs;
    }
    if (stopping_) {
      if (conns_.empty()) break;
      if (dispatcher_->clock()->NowMs() >= drain_deadline_ms) {
        auto snapshot = conns_;  // CloseConn mutates conns_
        for (auto& [fd, conn] : snapshot) CloseConn(conn);
        break;
      }
    }
  }
}

void TcpServer::BeginShutdown() {
  stopping_ = true;
  if (listen_fd_ >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  auto snapshot = conns_;  // Flush may close and erase
  for (auto& [fd, conn] : snapshot) {
    {
      MutexLock lock(&conn->mu);
      conn->want_close = true;
    }
    Flush(conn);
  }
}

void TcpServer::HandleWake() {
  std::uint64_t ticks = 0;
  while (::read(wake_fd_, &ticks, sizeof(ticks)) > 0) {
  }
  std::deque<std::shared_ptr<Connection>> ready;
  {
    MutexLock lock(&flush_mu_);
    ready.swap(flush_queue_);
  }
  for (auto& conn : ready) Flush(conn);
}

void TcpServer::AcceptAll() {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      // The listen fd is edge-triggered: a transient failure must not
      // strand already-queued connections behind it.
      if (errno == ECONNABORTED || errno == EINTR) continue;
      // Out of fds: shed load (evict an idle connection or drop the
      // newcomer via the reserve fd) rather than wedging the listen
      // queue until some client goes away.
      if ((errno == EMFILE || errno == ENFILE) && ShedForAccept()) continue;
      break;  // EAGAIN (drained) or a real error: stop
    }
    if (stopping_) {
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->last_activity_ms = dispatcher_->clock()->NowMs();
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP | EPOLLET;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    conns_.emplace(fd, std::move(conn));
    accepted_->Inc();
    open_->Add(1);
  }
}

bool TcpServer::ShedForAccept() {
  // Prefer evicting the oldest idle connection: nothing pending, nothing
  // buffered, no worker holding it — closing it loses no responses.
  std::shared_ptr<Connection> victim;
  for (auto& [fd, conn] : conns_) {
    bool idle = false;
    {
      MutexLock lock(&conn->mu);
      idle = !conn->scheduled && conn->pending.empty() && conn->out.empty();
    }
    if (!idle) continue;
    if (victim == nullptr ||
        conn->last_activity_ms < victim->last_activity_ms) {
      victim = conn;
    }
  }
  if (victim != nullptr) {
    CloseConn(victim);
    accept_shed_->Inc();
    return true;  // a slot is free: retry the accept
  }
  // Every connection is busy: momentarily give back the reserve fd so
  // the queued connection can be accepted, then drop it — the client
  // sees a clean close instead of hanging in the backlog.
  if (reserve_fd_ < 0) return false;
  ::close(reserve_fd_);
  reserve_fd_ = -1;
  const int fd =
      ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
  if (fd >= 0) ::close(fd);
  reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  accept_shed_->Inc();
  return true;  // keep draining the backlog
}

void TcpServer::SweepIdle() {
  if (options_.idle_timeout_ms == 0 || conns_.empty()) return;
  const std::uint64_t now_ms = dispatcher_->clock()->NowMs();
  auto snapshot = conns_;  // TimeoutConn may flush-close and erase
  for (auto& [fd, conn] : snapshot) {
    if (now_ms - conn->last_activity_ms < options_.idle_timeout_ms) continue;
    conn->last_activity_ms = now_ms;  // one timeout per offender
    idle_closed_->Inc();
    TimeoutConn(conn);
  }
}

void TcpServer::TimeoutConn(const std::shared_ptr<Connection>& conn) {
  // Route the error through the pending pipeline (like the overlong-line
  // path): an invalid sentinel then a quit, so it sequences correctly
  // after any in-flight responses even if a worker holds the connection.
  bool enqueue = false;
  {
    MutexLock lock(&conn->mu);
    if (conn->want_close) return;
    Request err;
    err.kind = RequestKind::kInvalid;
    err.error = "error: timeout";
    conn->pending.push_back(std::move(err));
    Request quit;
    quit.kind = RequestKind::kQuit;
    conn->pending.push_back(std::move(quit));
    if (!conn->scheduled) {
      conn->scheduled = true;
      enqueue = true;
    }
  }
  if (enqueue) {
    {
      MutexLock lock(&work_mu_);
      work_queue_.push_back(conn);
    }
    queue_depth_->Add(1);
    work_cv_.NotifyOne();
  }
}

void TcpServer::HandleRead(const std::shared_ptr<Connection>& conn) {
  if (conn->fd < 0) return;
  bool peer_done = false;
  char buf[65536];
  for (;;) {  // edge-triggered: drain to EAGAIN
    const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      bytes_in_->Inc(static_cast<std::uint64_t>(n));
      conn->in.append(buf, static_cast<std::size_t>(n));
      conn->last_activity_ms = dispatcher_->clock()->NowMs();
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    peer_done = true;  // EOF or hard error
    break;
  }
  ParseLines(conn);
  if (peer_done) {
    {
      MutexLock lock(&conn->mu);
      conn->want_close = true;
    }
    Flush(conn);
  }
}

void TcpServer::ParseLines(const std::shared_ptr<Connection>& conn) {
  // Parse latency feeds the request's QueryTrace; only pay the clock
  // reads when telemetry (metrics or the flight recorder) is on.
  const bool time_parse = dispatcher_->tracing_enabled();
  const Clock* clock = dispatcher_->clock();
  std::deque<Request> parsed;
  std::size_t begin = 0;
  for (;;) {
    const std::size_t nl = conn->in.find('\n', begin);
    if (nl == std::string::npos) break;
    const std::uint64_t t0 = time_parse ? clock->NowMicros() : 0;
    Request req = ParseRequest(
        std::string_view(conn->in).substr(begin, nl - begin));
    if (time_parse) {
      req.parse_us = static_cast<std::uint32_t>(clock->NowMicros() - t0);
    }
    begin = nl + 1;
    if (req.kind != RequestKind::kNone) parsed.push_back(std::move(req));
  }
  conn->in.erase(0, begin);
  // A request line longer than the protocol's limit (no '\n' seen yet)
  // closes the connection with an error response.
  const bool overlong = conn->in.size() > kMaxRequestLineBytes;
  const bool overcap = !overlong && options_.max_buffered_bytes > 0 &&
                       conn->in.size() > options_.max_buffered_bytes;
  if (overlong || overcap) {
    // Sequence the error and the close AFTER the responses to the valid
    // requests parsed from the same read: an invalid sentinel followed
    // by a quit, flowing through the normal pending pipeline. The
    // buffered-input cap (slowloris guard) reports "error: timeout".
    conn->in.clear();
    if (overcap) idle_closed_->Inc();
    Request err;
    err.kind = RequestKind::kInvalid;
    err.error = overcap ? "error: timeout" : kLineTooLongError;
    parsed.push_back(std::move(err));
    Request quit;
    quit.kind = RequestKind::kQuit;
    parsed.push_back(std::move(quit));
  }
  if (parsed.empty()) return;

  bool enqueue = false;
  {
    MutexLock lock(&conn->mu);
    // Nothing after a quit (or a peer close) is answered.
    if (conn->want_close) return;
    for (Request& req : parsed) conn->pending.push_back(std::move(req));
    if (!conn->scheduled && !conn->pending.empty()) {
      conn->scheduled = true;
      enqueue = true;
    }
  }
  if (enqueue) {
    {
      MutexLock lock(&work_mu_);
      work_queue_.push_back(conn);
    }
    queue_depth_->Add(1);
    work_cv_.NotifyOne();
  }
}

void TcpServer::Flush(const std::shared_ptr<Connection>& conn) {
  if (conn->fd < 0) return;
  bool want_out = false;
  bool can_close = false;
  {
    MutexLock lock(&conn->mu);
    while (!conn->out.empty()) {  // edge-triggered: write to EAGAIN
      const ssize_t n =
          ::send(conn->fd, conn->out.data(), conn->out.size(), MSG_NOSIGNAL);
      if (n > 0) {
        bytes_out_->Inc(static_cast<std::uint64_t>(n));
        conn->out.erase(0, static_cast<std::size_t>(n));
        conn->last_activity_ms = dispatcher_->clock()->NowMs();
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      conn->want_close = true;  // peer gone; drop what it will never read
      conn->out.clear();
      break;
    }
    want_out = !conn->out.empty();
    can_close = conn->want_close && conn->out.empty() && !conn->scheduled;
  }
  if (can_close) {
    CloseConn(conn);
    return;
  }
  UpdateEpollOut(conn, want_out);
}

void TcpServer::UpdateEpollOut(const std::shared_ptr<Connection>& conn,
                               bool want) {
  if (conn->fd < 0 || conn->epollout_armed == want) return;
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLRDHUP | EPOLLET | (want ? EPOLLOUT : 0u);
  ev.data.fd = conn->fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev) == 0) {
    conn->epollout_armed = want;
  }
}

void TcpServer::CloseConn(const std::shared_ptr<Connection>& conn) {
  if (conn->fd < 0) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  conns_.erase(conn->fd);
  conn->fd = -1;
  open_->Add(-1);
}

// ---- Workers ----

void TcpServer::WorkerLoop() {
  for (;;) {
    std::shared_ptr<Connection> conn;
    {
      MutexLock lock(&work_mu_);
      while (!workers_shutdown_ && work_queue_.empty()) {
        work_cv_.Wait(&work_mu_);
      }
      if (work_queue_.empty()) return;  // shutdown and drained
      conn = std::move(work_queue_.front());
      work_queue_.pop_front();
    }
    queue_depth_->Add(-1);
    ProcessConnection(conn);
  }
}

void TcpServer::ProcessConnection(const std::shared_ptr<Connection>& conn) {
  // Keep draining: lines parsed while this worker was busy land in
  // `pending` without a second enqueue (scheduled stays true), so the
  // worker owns the connection until pending is empty. Responses are
  // appended under the lock before scheduled can flip, preserving
  // request order.
  for (;;) {
    std::deque<Request> batch;
    RequestDispatcher::Session session;
    {
      MutexLock lock(&conn->mu);
      if (conn->pending.empty()) {
        conn->scheduled = false;
        break;
      }
      batch.swap(conn->pending);
      session = conn->session;
    }
    std::string responses;
    bool quit = false;
    for (const Request& req : batch) {
      if (req.kind == RequestKind::kQuit) {
        quit = true;
        break;
      }
      responses += dispatcher_->Execute(req, &session);
      responses += '\n';
    }
    {
      MutexLock lock(&conn->mu);
      conn->out += responses;
      conn->session = std::move(session);
      if (quit) {
        conn->want_close = true;
        conn->pending.clear();
      }
    }
  }
  NotifyFlush(conn);
}

void TcpServer::NotifyFlush(std::shared_ptr<Connection> conn) {
  {
    MutexLock lock(&flush_mu_);
    flush_queue_.push_back(std::move(conn));
  }
  const std::uint64_t tick = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &tick, sizeof(tick));
}

// ---- Stats ----

TcpServerStats TcpServer::stats() const {
  TcpServerStats s;
  s.connections_accepted = accepted_->Value();
  s.connections_open = static_cast<std::uint64_t>(open_->Value());
  s.requests = dispatcher_->requests();
  s.errors = dispatcher_->errors();
  s.bytes_in = bytes_in_->Value();
  s.bytes_out = bytes_out_->Value();
  s.accept_shed = accept_shed_->Value();
  s.idle_closed = idle_closed_->Value();
  return s;
}

}  // namespace server
}  // namespace islabel
