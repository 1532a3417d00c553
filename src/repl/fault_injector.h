// FaultInjector: deterministic network misbehaviour for the replication
// tests (mongodb-repl style). A FaultInjectingTransport wraps any
// Transport; rules registered on the shared FaultInjector fire on
// matching endpoints and make connects fail, cut a connection after N
// delivered bytes (a peer dying mid-snapshot-transfer), flip a byte at
// an exact stream offset, time a read out, or drop / duplicate /
// truncate a send — all without real networks, partitions or sleeps.
// Each rule fires a bounded number of times, so "the first transfer
// dies, the retry succeeds" is a two-line setup.

#ifndef ISLABEL_REPL_FAULT_INJECTOR_H_
#define ISLABEL_REPL_FAULT_INJECTOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "repl/transport.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace islabel {
namespace repl {

struct FaultRule {
  enum class Kind {
    /// Connect() to a matching endpoint fails with Unavailable.
    kFailConnect,
    /// The connection is severed once `arg` bytes have been delivered to
    /// the reader — the deterministic "peer killed mid-transfer".
    kCutAfterRecvBytes,
    /// XOR-flips the low bit of the received byte at stream offset `arg`.
    kCorruptRecvByte,
    /// One Recv call fails with DeadlineExceeded (a stalled peer).
    kTimeoutRecv,
    /// Send silently discards the payload and reports success.
    kDropSend,
    /// Send transmits the payload twice (a retransmit-style duplicate).
    kDuplicateSend,
    /// Send writes only the first `arg` bytes, then severs the
    /// connection and reports Unavailable (a partial write).
    kPartialSend,
  };

  Kind kind = Kind::kFailConnect;
  /// Applies to endpoints containing this substring ("" matches all).
  std::string endpoint_substr;
  /// Byte count / offset, per Kind.
  std::uint64_t arg = 0;
  /// How many times the rule triggers before going inert (-1 = forever).
  int fire_count = 1;
};

/// Trigger counters, for test assertions.
struct FaultStats {
  std::uint64_t connects_failed = 0;
  std::uint64_t connections_cut = 0;
  std::uint64_t bytes_corrupted = 0;
  std::uint64_t recv_timeouts = 0;
  std::uint64_t sends_dropped = 0;
  std::uint64_t sends_duplicated = 0;
  std::uint64_t sends_truncated = 0;
};

/// Shared rule table. Thread-safe; register rules before or between
/// operations and they apply to subsequent matching traffic.
class FaultInjector {
 public:
  void AddRule(FaultRule rule);
  FaultStats stats() const;

  // -- Used by FaultInjectingTransport and its connections; tests only
  // need AddRule/stats. --

  /// Consumes one firing of the first live rule of `kind` matching
  /// `endpoint`; returns false if none. `arg` (nullable) receives the
  /// rule's argument.
  bool Fire(FaultRule::Kind kind, const std::string& endpoint,
            std::uint64_t* arg);
  /// Like Fire but does not consume — for rules (cut-after-bytes) that
  /// must stay armed while the stream approaches the trigger point.
  bool Peek(FaultRule::Kind kind, const std::string& endpoint,
            std::uint64_t* arg) const;

 private:
  mutable Mutex mu_;
  std::vector<FaultRule> rules_ GUARDED_BY(mu_);
  FaultStats stats_ GUARDED_BY(mu_);
};

/// Transport decorator applying a FaultInjector's rules. The injector
/// must outlive the transport and every connection it opened.
class FaultInjectingTransport : public Transport {
 public:
  FaultInjectingTransport(Transport* inner, FaultInjector* faults)
      : inner_(inner), faults_(faults) {}

  Result<std::unique_ptr<Connection>> Connect(
      const std::string& endpoint, std::uint64_t timeout_ms) override;

 private:
  Transport* inner_;
  FaultInjector* faults_;
};

}  // namespace repl
}  // namespace islabel

#endif  // ISLABEL_REPL_FAULT_INJECTOR_H_
