// ReplicaAgent: the replica side of the replication protocol — a
// deterministic pull/install state machine.
//
// The agent periodically polls the primary's `version` line, pulls a
// framed snapshot (repl/primary.h) for every dataset whose generation
// is behind, stages the container into
// `<root>/<dataset>/.staging-<gen>`, renames it to
// `<root>/<dataset>/gen-<gen>`, and publishes through
// Catalog::ReloadFrom — the proven generation-ordered hot-swap path. A
// transfer that dies mid-stream leaves the staging directory behind
// and the old version serving; a truncated or bit-flipped container is
// rejected as Corruption before a byte is written. Between successful
// polls the replica keeps answering queries from whatever generation
// it has (stale-but-consistent) and reports its lag in the
// islabel_repl_* gauges of the `metrics` verb.
//
// Determinism: time comes from an injected Clock, the network from an
// injected Transport — drive Tick() with a ManualClock and a
// FaultInjectingTransport and the whole failover story runs without
// real networks or sleeps. Production wires SystemClock + TcpTransport
// and RunBackground(), which just calls Tick() on a cadence.
//
// The agent doubles as the replica's ReplicationHooks: its server
// answers `version` (own generations — how clients measure staleness)
// and `heartbeat`. `replicate` is refused — chained replication is out
// of scope.

#ifndef ISLABEL_REPL_REPLICA_H_
#define ISLABEL_REPL_REPLICA_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "catalog/catalog.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "repl/transport.h"
#include "server/dispatcher.h"
#include "util/clock.h"
#include "util/mutex.h"
#include "util/random.h"
#include "util/retry.h"
#include "util/thread_annotations.h"

namespace islabel {
namespace repl {

struct ReplicaOptions {
  /// The primary's "host:port".
  std::string primary;
  /// Root directory for staged/installed snapshot generations.
  std::string root;
  /// How often to poll the primary when healthy.
  std::uint64_t poll_interval_ms = 1000;
  /// Per network exchange (connect, one request/response round).
  std::uint64_t request_timeout_ms = 10'000;
  /// The primary counts as down once it has been silent this long.
  std::uint64_t primary_timeout_ms = 5000;
  /// Snapshots larger than this are refused before allocation.
  std::uint64_t max_snapshot_bytes = 1ull << 32;
  /// Backoff between failed sync attempts (capped, jittered).
  BackoffPolicy backoff;
  /// Structured event log for sync/install outcomes (DESIGN.md §17).
  /// Null disables. Must outlive the agent.
  obs::EventLog* event_log = nullptr;
};

class ReplicaAgent : public server::ReplicationHooks {
 public:
  /// All pointees must outlive the agent. `catalog` is the replica's
  /// serving catalog; datasets discovered on the primary are
  /// auto-registered (Catalog::AddEmpty) on first contact.
  ReplicaAgent(Catalog* catalog, Transport* transport, Clock* clock,
               Rng* rng, ReplicaOptions options);
  ~ReplicaAgent() override;

  /// Runs one step of the state machine: syncs with the primary if the
  /// next poll (or backoff retry) is due, else does nothing. Returns
  /// true iff a sync was attempted. Not reentrant; call from one driver
  /// (test loop or RunBackground thread).
  bool Tick();

  /// Forces a sync attempt now, regardless of schedule.
  Status SyncNow();

  /// Spawns a thread that calls Tick() on a short real-time cadence.
  void RunBackground();
  void StopBackground();

  /// True while the last contact with the primary is fresher than
  /// primary_timeout_ms.
  bool primary_up() const;

  struct Stats {
    std::uint64_t polls = 0;      // sync attempts
    std::uint64_t pulls = 0;      // snapshot streams received
    std::uint64_t installs = 0;   // generations published
    std::uint64_t failures = 0;   // failed sync attempts
    std::uint64_t lag_gens = 0;   // sum over datasets of primary - local
    std::uint64_t ms_since_contact = ~0ull;  // ~0 before first contact
    bool primary_up = false;
  };
  Stats stats() const;

  // -- ReplicationHooks: the serving face of a replica. --
  std::string HandleVersion() override;
  std::string HandleHeartbeat() override;
  std::string HandleReplicate(const std::string& name,
                              std::uint64_t have_gen) override;

 private:
  Status SyncOnce(std::uint64_t trace_id);
  Status PullDataset(Channel* channel, const std::string& name,
                     std::uint64_t local_gen, std::uint64_t target_gen,
                     std::uint64_t trace_id);
  /// Registers the replica's counters and the live lag / contact /
  /// primary-up callback gauges in the catalog's registry. The dtor
  /// re-registers the callbacks with frozen final values, since the
  /// registry (owned by the catalog) outlives the agent.
  void InstallMetrics();
  void FreezeMetrics();

  Catalog* catalog_;
  Transport* transport_;
  Clock* clock_;
  Rng* rng_;  // mints the per-sync trace id (DESIGN.md §17)
  ReplicaOptions options_;

  mutable Mutex mu_;
  Backoff backoff_ GUARDED_BY(mu_);
  std::uint64_t next_due_ms_ GUARDED_BY(mu_) = 0;  // next scheduled sync
  bool contacted_ GUARDED_BY(mu_) = false;  // ever heard from the primary
  // last_contact_ms_ is meaningless until contacted_.
  std::uint64_t last_contact_ms_ GUARDED_BY(mu_) = 0;
  std::uint64_t lag_gens_ GUARDED_BY(mu_) = 0;
  // Registry series (catalog registry, DESIGN.md §16) — atomics, bumped
  // wherever convenient without mu_.
  obs::Counter* polls_c_;
  obs::Counter* pulls_c_;
  obs::Counter* installs_c_;
  obs::Counter* failures_c_;

  std::atomic<bool> bg_stop_{false};
  std::thread bg_thread_;
};

}  // namespace repl
}  // namespace islabel

#endif  // ISLABEL_REPL_REPLICA_H_
