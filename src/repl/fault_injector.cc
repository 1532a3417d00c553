#include "repl/fault_injector.h"

#include <algorithm>
#include <utility>

namespace islabel {
namespace repl {

namespace {

bool Matches(const FaultRule& rule, FaultRule::Kind kind,
             const std::string& endpoint) {
  return rule.kind == kind && rule.fire_count != 0 &&
         (rule.endpoint_substr.empty() ||
          endpoint.find(rule.endpoint_substr) != std::string::npos);
}

}  // namespace

void FaultInjector::AddRule(FaultRule rule) {
  MutexLock lock(&mu_);
  rules_.push_back(std::move(rule));
}

FaultStats FaultInjector::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

bool FaultInjector::Fire(FaultRule::Kind kind, const std::string& endpoint,
                         std::uint64_t* arg) {
  MutexLock lock(&mu_);
  for (FaultRule& rule : rules_) {
    if (!Matches(rule, kind, endpoint)) continue;
    if (rule.fire_count > 0) --rule.fire_count;
    if (arg != nullptr) *arg = rule.arg;
    switch (kind) {
      case FaultRule::Kind::kFailConnect: ++stats_.connects_failed; break;
      case FaultRule::Kind::kCutAfterRecvBytes: ++stats_.connections_cut; break;
      case FaultRule::Kind::kCorruptRecvByte: ++stats_.bytes_corrupted; break;
      case FaultRule::Kind::kTimeoutRecv: ++stats_.recv_timeouts; break;
      case FaultRule::Kind::kDropSend: ++stats_.sends_dropped; break;
      case FaultRule::Kind::kDuplicateSend: ++stats_.sends_duplicated; break;
      case FaultRule::Kind::kPartialSend: ++stats_.sends_truncated; break;
    }
    return true;
  }
  return false;
}

bool FaultInjector::Peek(FaultRule::Kind kind, const std::string& endpoint,
                         std::uint64_t* arg) const {
  MutexLock lock(&mu_);
  for (const FaultRule& rule : rules_) {
    if (!Matches(rule, kind, endpoint)) continue;
    if (arg != nullptr) *arg = rule.arg;
    return true;
  }
  return false;
}

namespace {

class FaultConnection : public Connection {
 public:
  FaultConnection(std::unique_ptr<Connection> inner, FaultInjector* faults,
                  std::string endpoint)
      : inner_(std::move(inner)),
        faults_(faults),
        endpoint_(std::move(endpoint)) {}

  Status Send(std::string_view data) override {
    std::uint64_t arg = 0;
    if (faults_->Fire(FaultRule::Kind::kDropSend, endpoint_, nullptr)) {
      return Status::OK();  // swallowed by the "network"
    }
    if (faults_->Fire(FaultRule::Kind::kPartialSend, endpoint_, &arg)) {
      const std::size_t keep =
          std::min<std::size_t>(static_cast<std::size_t>(arg), data.size());
      (void)inner_->Send(data.substr(0, keep));
      inner_->Close();
      return Status::Unavailable("injected partial write");
    }
    if (faults_->Fire(FaultRule::Kind::kDuplicateSend, endpoint_, nullptr)) {
      ISLABEL_RETURN_IF_ERROR(inner_->Send(data));
    }
    return inner_->Send(data);
  }

  Status Recv(char* buf, std::size_t cap, std::size_t* received,
              const Deadline& deadline) override {
    *received = 0;
    if (faults_->Fire(FaultRule::Kind::kTimeoutRecv, endpoint_, nullptr)) {
      return Status::DeadlineExceeded("injected recv timeout");
    }
    std::uint64_t cut_at = 0;
    const bool cut_armed =
        faults_->Peek(FaultRule::Kind::kCutAfterRecvBytes, endpoint_, &cut_at);
    if (cut_armed) {
      if (recv_offset_ >= cut_at) {
        faults_->Fire(FaultRule::Kind::kCutAfterRecvBytes, endpoint_, nullptr);
        inner_->Close();
        return Status::Unavailable("injected connection cut");
      }
      // Clamp so the cut lands on an exact byte boundary.
      cap = std::min<std::size_t>(
          cap, static_cast<std::size_t>(cut_at - recv_offset_));
    }
    ISLABEL_RETURN_IF_ERROR(inner_->Recv(buf, cap, received, deadline));
    std::uint64_t flip_at = 0;
    while (faults_->Peek(FaultRule::Kind::kCorruptRecvByte, endpoint_,
                         &flip_at) &&
           flip_at >= recv_offset_ && flip_at < recv_offset_ + *received) {
      faults_->Fire(FaultRule::Kind::kCorruptRecvByte, endpoint_, nullptr);
      buf[flip_at - recv_offset_] ^= 0x01;
    }
    recv_offset_ += *received;
    return Status::OK();
  }

  void Close() override { inner_->Close(); }

 private:
  std::unique_ptr<Connection> inner_;
  FaultInjector* faults_;
  std::string endpoint_;
  std::uint64_t recv_offset_ = 0;
};

}  // namespace

Result<std::unique_ptr<Connection>> FaultInjectingTransport::Connect(
    const std::string& endpoint, std::uint64_t timeout_ms) {
  if (faults_->Fire(FaultRule::Kind::kFailConnect, endpoint, nullptr)) {
    return Status::Unavailable("injected connect failure to " + endpoint);
  }
  Result<std::unique_ptr<Connection>> conn =
      inner_->Connect(endpoint, timeout_ms);
  if (!conn.ok()) return conn;
  return std::unique_ptr<Connection>(new FaultConnection(
      std::move(conn).value(), faults_, endpoint));
}

}  // namespace repl
}  // namespace islabel
