// DistanceIndex: the abstract query surface every distance backend serves.
//
// The serving stack (engine pool → cache → catalog → TCP server) programs
// against this interface instead of a concrete index type, so one server
// can host IS-LABEL indexes, contraction hierarchies, or any mix of them
// across datasets and components. Concrete backends: ISLabelIndex
// (core/index.h), CHIndex (backends/ch_index.h), PartitionedIndex
// (catalog/partitioned_index.h, composing one backend per component) and
// Catalog::Handle (catalog/catalog.h, routing to a hot-swapped snapshot).
//
// Contract (see DESIGN.md §13 for the full argument):
//
//   * Thread-safety: every query entry point may be called from any
//     number of threads concurrently once the index is built/loaded.
//     Backends lease per-query scratch from an EnginePool
//     (core/engine_pool.h); the index structure itself is immutable at
//     query time. Mutation (updates, Save/Load) must be quiesced by the
//     caller.
//
//   * Cache generations: Query() is a template method and the only
//     place a result cache is consulted. It reads the cache through
//     distance_cache() and enforces the ordering that makes cached
//     answers safe across mutation: the generation is snapshotted
//     BEFORE the backend computes, and the answer is inserted under that
//     snapshot — any concurrent generation bump (update, reload) makes
//     the insert a no-op, so a cached answer can only describe the index
//     state current when its generation was minted. Backends signal
//     "answers may have changed" with BumpCacheGeneration(); they never
//     touch cache entries directly.
//
//   * Persistence: Save() writes a self-identifying directory (each
//     backend has its own magic-tagged files); backends/registry.h sniffs
//     and loads them, and the partitioned catalog records each part's
//     backend by name in its manifest. Unknown names fail with
//     Status::Corruption naming the offender — never misparse.
//
//   * Updates: update semantics are backend-specific and deliberately
//     NOT part of this interface. IS-LABEL supports the paper's §8.3
//     lazy insert/delete through its concrete type; CH is rebuild-only.

#ifndef ISLABEL_CORE_DISTANCE_INDEX_H_
#define ISLABEL_CORE_DISTANCE_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/distance_cache.h"
#include "graph/graph_defs.h"
#include "util/status.h"

namespace islabel {

namespace obs {
class MetricRegistry;  // obs/metrics.h
}  // namespace obs

/// The concrete index families a catalog can host. kAuto is a build-time
/// selector only (resolved per component by the registry's road-likeness
/// heuristic); a built index always reports kISLabel or kCH.
enum class BackendKind : std::uint8_t {
  kISLabel = 0,
  kCH = 1,
  kAuto = 2,
};

/// "islabel" / "ch" / "auto" — the names used by `--backend` flags and
/// the partition manifest.
const char* BackendKindName(BackendKind kind);

/// Parses a backend name; false (out untouched) for unknown names.
bool ParseBackendKind(std::string_view name, BackendKind* out);

/// Operator-facing size summary of one backend instance (the catalog's
/// index-size gauges and the partition-build per-part report).
struct DistanceIndexInfo {
  std::string backend;        // BackendKindName of the concrete backend
  VertexId vertices = 0;
  std::uint64_t entries = 0;  // label entries (IS-LABEL) / up-edges (CH)
  std::uint64_t bytes = 0;    // in-memory footprint of those entries
  std::string detail;         // backend-specific, e.g. "k=5" / "shortcuts=99"
};

/// Abstract exact point-to-point distance index over original-graph
/// vertex ids. See the file comment for the thread-safety, cache and
/// persistence contract.
class DistanceIndex {
 public:
  virtual ~DistanceIndex();

  // ---- Queries (all thread-safe) ----

  /// Exact distance from s to t; kInfDistance if disconnected.
  /// Non-virtual template method: consults distance_cache() with the
  /// generation snapshotted before QueryUncached runs, and attributes
  /// the QueryUncached span to the active trace's kernel stage.
  Status Query(VertexId s, VertexId t, Distance* out);

  /// Exact shortest path (original-graph vertices, s first, t last);
  /// empty path + kInfDistance when disconnected. Backends built without
  /// path support fail with FailedPrecondition.
  virtual Status ShortestPath(VertexId s, VertexId t,
                              std::vector<VertexId>* path, Distance* dist) = 0;

  /// Answers every (s, t) pair, parallelized with `num_threads` workers
  /// (0 = hardware concurrency). out->size() == pairs.size(); pairs that
  /// fail individually get kInfDistance in *out and their error in
  /// *statuses when provided — otherwise the first per-pair error becomes
  /// the return value (the batch still completes).
  virtual Status QueryBatch(
      const std::vector<std::pair<VertexId, VertexId>>& pairs,
      std::vector<Distance>* out, std::uint32_t num_threads = 0,
      std::vector<Status>* statuses = nullptr);

  /// Distances from s to every target. All endpoints validated up front;
  /// any invalid endpoint fails the whole call.
  virtual Status QueryOneToMany(VertexId s, const std::vector<VertexId>& targets,
                                std::vector<Distance>* out);

  // ---- Persistence / introspection ----

  /// Writes a self-identifying index directory; NotSupported by default
  /// (e.g. routing wrappers persist nothing themselves).
  virtual Status Save(const std::string& dir) const;

  virtual VertexId NumVertices() const = 0;
  /// True iff ShortestPath is available on this instance.
  virtual bool has_vias() const = 0;
  virtual DistanceIndexInfo Info() const = 0;

  // ---- Optional query-result cache ----

  /// Installs a distance cache consulted by Query (pass nullptr to
  /// remove). Install before serving starts; not thread-safe against
  /// in-flight queries.
  void set_distance_cache(std::shared_ptr<DistanceCache> cache) {
    distance_cache_ = std::move(cache);
  }
  /// The cache Query consults: the installed one by default. A routing
  /// wrapper whose cache outlives the instance (Catalog::Handle)
  /// overrides this to return it.
  virtual DistanceCache* distance_cache() const {
    return distance_cache_.get();
  }

  // ---- Optional telemetry (DESIGN.md §16) ----

  /// Registers backend-owned instruments (engine-pool gauges and
  /// counters) into `registry`. Idempotent; composite backends forward
  /// to their parts. Default: no-op. Call before serving; updates keep
  /// the pool, and with it the wiring.
  virtual void InstallMetrics(obs::MetricRegistry* registry);

 protected:
  DistanceIndex() = default;
  DistanceIndex(const DistanceIndex&) = default;
  DistanceIndex& operator=(const DistanceIndex&) = default;
  DistanceIndex(DistanceIndex&&) = default;
  DistanceIndex& operator=(DistanceIndex&&) = default;

  /// The backend computation behind Query(); runs after CheckQueryable
  /// and a cache miss. Must be thread-safe.
  virtual Status QueryUncached(VertexId s, VertexId t, Distance* out) = 0;

  /// Endpoint validation, run before the cache is consulted (so e.g. a
  /// cached pair naming a since-deleted endpoint still fails). Default:
  /// range check against NumVertices().
  virtual Status CheckQueryable(VertexId s, VertexId t) const;

  /// Invalidates every cached answer. A backend whose answers can change
  /// in place (IS-LABEL's InsertVertex / DeleteVertex) calls it at the
  /// end of every update.
  void BumpCacheGeneration() {
    if (distance_cache_ != nullptr) distance_cache_->BumpGeneration();
  }

 private:
  std::shared_ptr<DistanceCache> distance_cache_;
};

}  // namespace islabel

#endif  // ISLABEL_CORE_DISTANCE_INDEX_H_
