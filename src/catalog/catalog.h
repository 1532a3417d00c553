// Catalog: named multi-dataset hosting with hot-swap reload.
//
// One process, many indexes: the catalog maps dataset names to
// PartitionedIndex instances, loads each on the thread that adds it, and
// can atomically replace a dataset's index from its directory while
// queries are in flight ("reload"). The serving layer (stdin loop and TCP
// server) routes each connection's requests to its selected dataset.
//
// Lifetime model — why reload is safe under load:
//   * the current index of a dataset is held as a shared_ptr; Handle
//     query calls snapshot it, so an in-flight query keeps the old index
//     alive until the call returns, no matter how many reloads land;
//   * the swap itself is a pointer assignment under the dataset mutex —
//     queries never block on a reload (they only take the mutex for the
//     snapshot copy). Every install (Add, AddIndex, Reload, ReloadFrom)
//     swaps through one routine, Catalog::Publish.
//
// Cache coherence across a swap: each dataset may carry a DistanceCache
// (installed by the serving layer). A handle's Query (the DistanceIndex
// template method, reading Handle::distance_cache()) snapshots the cache
// generation BEFORE QueryUncached snapshots the index, and Publish
// swaps the new index in BEFORE bumping the generation. Any answer
// computed on the old index therefore inserts under a generation that
// has moved on by the time the new index is visible, so the cache (whose
// Insert drops stale-generation entries by contract) can never serve an
// answer that outlives a swapped index. See DESIGN.md §12 for the
// interleaving argument.

#ifndef ISLABEL_CATALOG_CATALOG_H_
#define ISLABEL_CATALOG_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "catalog/partitioned_index.h"
#include "core/distance_cache.h"
#include "obs/log.h"
#include "util/mutex.h"
#include "util/result.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace islabel {

/// State of a catalog dataset. Add loads before it registers, so a
/// dataset is never seen half loaded.
enum class DatasetState : std::uint8_t {
  kReady = 1,
  /// Add could not load its directory; queries answer FailedPrecondition
  /// with the load error until a Reload or ReloadFrom installs an index.
  kFailed = 2,
  /// Registered but holding no data yet (a replica awaiting its first
  /// snapshot). Queries answer FailedPrecondition until an install.
  kEmpty = 3,
};

/// Returns "ready" / "failed" / "empty".
const char* DatasetStateName(DatasetState state);

/// Point-in-time counters for one dataset (the `datasets` listing).
struct DatasetInfo {
  std::string name;
  DatasetState state = DatasetState::kEmpty;
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;
  std::uint64_t reloads = 0;
  /// Monotonic data version: 1 once Add or AddIndex installs an index,
  /// bumped by every Reload, set explicitly by ReloadFrom (snapshot
  /// installs). 0 while no data has ever been served. The replication
  /// protocol ships and compares exactly this number.
  std::uint64_t generation = 0;
  std::uint32_t parts = 0;
  std::uint64_t vertices = 0;
  /// Per-part backend summary (PartitionedIndex::BackendSummary), empty
  /// until the index is loaded.
  std::string backends;
};

class Catalog {
 public:
  /// A catalog always has a metric registry (DESIGN.md §16): the
  /// injected one when given, an owned one otherwise. Per-dataset
  /// request/error/reload counters, the generation and index-size gauges
  /// and the reload duration histogram register there, and every loaded
  /// index gets InstallMetrics so backend pools feed the same registry.
  /// An injected registry must outlive the catalog.
  explicit Catalog(obs::MetricRegistry* metrics = nullptr);

  obs::MetricRegistry* metrics() const { return metrics_; }

  /// Structured event log for load/reload outcomes (DESIGN.md §17).
  /// Install before Add/serving starts; must outlive the catalog.
  void set_event_log(obs::EventLog* log) { event_log_ = log; }
  obs::EventLog* event_log() const { return event_log_; }

  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  struct Dataset;

  /// Ref-counted dataset handle — itself a DistanceIndex, so the serving
  /// layer programs against one query surface whether it holds a raw
  /// backend, a partitioned index, or a hot-swappable catalog dataset.
  /// Copyable and cheap; keeps the dataset record (not any particular
  /// index version) alive. Query calls snapshot the current index, so
  /// they are safe across Reload.
  ///
  /// Caching: distance_cache() returns the dataset's DistanceCache
  /// (SetDistanceCache), so the DistanceIndex template method consults it
  /// with the generation-before-snapshot ordering described above — NOT
  /// DistanceIndex::set_distance_cache, whose per-instance cache would
  /// not survive Handle copies.
  class Handle : public DistanceIndex {
   public:
    Handle() = default;
    Handle(const Handle&) = default;
    Handle(Handle&&) = default;
    Handle& operator=(const Handle&) = default;
    Handle& operator=(Handle&&) = default;

    explicit operator bool() const { return dataset_ != nullptr; }
    DatasetState state() const;

    /// Snapshot of the current index (nullptr until loaded). Holding the
    /// returned pointer pins that index version across reloads.
    std::shared_ptr<PartitionedIndex> index() const;

    /// The dataset's distance cache, if the serving layer installed one;
    /// the one Query consults.
    DistanceCache* distance_cache() const override;

    // -- DistanceIndex surface: routes to the current index snapshot and
    // bumps the per-dataset request/error counters. All thread-safe. --
    Status ShortestPath(VertexId s, VertexId t, std::vector<VertexId>* path,
                        Distance* dist) override;
    Status QueryOneToMany(VertexId s, const std::vector<VertexId>& targets,
                          std::vector<Distance>* out) override;

    /// 0 while the dataset holds no index (failed or empty; its queries
    /// fail in QueryUncached with FailedPrecondition, not OutOfRange — see
    /// CheckQueryable).
    VertexId NumVertices() const override;
    bool has_vias() const override;
    /// The current index's Info, or state()-only info while not ready.
    DistanceIndexInfo Info() const override;

   protected:
    /// Index snapshot + route after a cache miss; counts the dataset
    /// error on failure.
    Status QueryUncached(VertexId s, VertexId t, Distance* out) override;
    /// Counts the dataset request (once per Query, cache hits included)
    /// and returns OK: range validation belongs to the index snapshot
    /// taken inside QueryUncached. The base range check against
    /// NumVertices() would misreport a failed or empty dataset (0
    /// vertices) as OutOfRange instead of FailedPrecondition.
    Status CheckQueryable(VertexId s, VertexId t) const override;

   private:
    friend class Catalog;
    explicit Handle(std::shared_ptr<Dataset> dataset)
        : dataset_(std::move(dataset)) {}

    Status Ready(std::shared_ptr<PartitionedIndex>* index) const;

    std::shared_ptr<Dataset> dataset_;
  };

  /// Loads `dir` on the calling thread (PartitionedIndex::Load — both
  /// catalog and plain index directories), then registers `name`: ready
  /// at generation 1, or failed if the load failed. A failed load still
  /// returns OK; WaitReady reports it, its queries answer
  /// FailedPrecondition, and Reload retries the directory. Fails only if
  /// the name is empty or already registered.
  Status Add(const std::string& name, const std::string& dir,
             bool labels_in_memory = true);

  /// Registers an already-built index under `name` (ready at generation
  /// 1). `dir` may be empty; Reload then fails for want of a directory.
  Status AddIndex(const std::string& name, PartitionedIndex index,
                  std::string dir = "");

  /// Registers `name` with no data (state kEmpty) — how a replica creates
  /// a dataset it has only heard of. Queries fail with FailedPrecondition
  /// until the first ReloadFrom installs a snapshot.
  Status AddEmpty(const std::string& name);

  /// The load error of the first failed dataset, in registration order;
  /// OK if none failed. Add loads before it returns, so nothing is left
  /// to wait for: callers gate serving on this status.
  Status WaitReady();

  /// Handle for `name`; an empty Handle if the name is unknown.
  Handle Get(const std::string& name) const;

  /// Reloads `name` from its directory and atomically swaps the fresh
  /// index in as the next generation. In-flight queries keep the old
  /// index alive; the dataset's cache generation is bumped after the swap
  /// so no cached answer outlives it. Blocking (call from a worker, not
  /// the event loop).
  Status Reload(const std::string& name);

  /// Installs a fully-written index directory as generation `gen` of
  /// `name` through the same path as Reload, and repoints the dataset's
  /// backing directory at `dir`. Rejects gen <= the current generation
  /// (FailedPrecondition) so installs are strictly generation-ordered —
  /// a stale or duplicated snapshot can never roll a replica back. The
  /// load runs before any state changes: a corrupt directory leaves the
  /// old version serving untouched.
  Status ReloadFrom(const std::string& name, const std::string& dir,
                    std::uint64_t gen);

  /// The dataset's current generation (0 if unknown or never loaded).
  std::uint64_t Generation(const std::string& name) const;

  /// The dataset's current backing directory ("" if unknown or none) —
  /// what a primary packs into a snapshot. Tracks ReloadFrom installs.
  std::string Dir(const std::string& name) const;

  /// Installs a distance cache for `name` (consulted by Handle::Query).
  /// Not thread-safe against concurrent queries on the same dataset —
  /// install caches before serving starts.
  Status SetDistanceCache(const std::string& name,
                          std::shared_ptr<DistanceCache> cache);

  /// Registered dataset names, in registration order.
  std::vector<std::string> Names() const;

  /// Counters for every dataset, in registration order.
  std::vector<DatasetInfo> List() const;

 private:
  std::shared_ptr<Dataset> Find(const std::string& name) const;
  /// Add, AddIndex and AddEmpty: the one name check. Lists `ds` unless
  /// its name is empty or taken, publishing `index` (when given) as
  /// generation 1 first.
  Status Register(std::shared_ptr<Dataset> ds,
                  std::shared_ptr<PartitionedIndex> index,
                  const std::string& dir);
  /// The one install: swaps `index` in as generation `gen` (nullopt: the
  /// current one + 1) backed by `dir`, then bumps the cache generation,
  /// and returns the generation published. Refuses a generation that is
  /// not newer, changing nothing.
  Result<std::uint64_t> Publish(Dataset& ds,
                                std::shared_ptr<PartitionedIndex> index,
                                const std::string& dir,
                                std::optional<std::uint64_t> gen);
  /// Reload and ReloadFrom: load `dir` off-lock, Publish, then count and
  /// log the install.
  Status Install(Dataset& ds, const std::string& dir,
                 std::optional<std::uint64_t> gen);

  std::unique_ptr<obs::MetricRegistry> own_metrics_;
  obs::MetricRegistry* metrics_ = nullptr;  // never null after construction
  obs::Histogram* reload_seconds_ = nullptr;  // resolved with metrics_
  obs::EventLog* event_log_ = nullptr;      // set before serving starts

  mutable Mutex mu_;
  std::vector<std::shared_ptr<Dataset>> datasets_ GUARDED_BY(mu_);
};

}  // namespace islabel

#endif  // ISLABEL_CATALOG_CATALOG_H_
