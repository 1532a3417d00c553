// ISLabelIndex: the public facade of the library.
//
// Build() runs the full §6 pipeline — vertex hierarchy (Algorithms 2+3),
// top-down labeling (Algorithm 4) — and the resulting index answers exact
// point-to-point distance queries (Equation 1 + Algorithm 1), shortest-path
// queries (§8.1), and supports the lazy update maintenance of §8.3.
// Save()/Load() persist the index with disk-resident labels, reproducing
// the paper's disk-based query mode (one label I/O per endpoint); Load()
// with labels_in_memory = true is the paper's IM-ISL.
//
// Query serving is concurrent: the hierarchy and labels are immutable at
// query time and every query entry point leases a private QueryEngine from
// an internal QueryEnginePool, so any number of threads may call Query /
// ShortestPath / the batched APIs on one index simultaneously (both IM and
// disk-resident modes). Updates and Save/Load are NOT safe to run
// concurrently with queries — quiesce traffic first.

#ifndef ISLABEL_CORE_INDEX_H_
#define ISLABEL_CORE_INDEX_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/distance_cache.h"
#include "core/distance_index.h"
#include "core/engine_pool.h"
#include "core/hierarchy.h"
#include "core/label_arena.h"
#include "core/labeling.h"
#include "core/options.h"
#include "core/query.h"
#include "graph/graph.h"
#include "util/bit_vector.h"
#include "util/result.h"

namespace islabel {

/// Construction metrics — the columns of Tables 3, 6 and 7.
struct BuildStats {
  std::uint32_t k = 0;
  std::uint64_t core_vertices = 0;   // |V_{G_k}|
  std::uint64_t core_edges = 0;      // |E_{G_k}|
  std::uint64_t label_entries = 0;   // Σ_v |label(v)|
  std::uint64_t label_bytes = 0;     // in-memory footprint of the labels
  double hierarchy_seconds = 0.0;
  double labeling_seconds = 0.0;
  double total_seconds = 0.0;
  IoStats io;                        // external-pipeline I/O (if used)
  std::vector<LevelStats> level_stats;
};

/// Exact point-to-point distance index (undirected). Movable, not copyable.
/// All query entry points are thread-safe (engines come from an internal
/// pool); updates and persistence must not overlap with queries.
///
/// The DistanceIndex base provides Query() (with the cache template
/// method) and carries the optional distance cache; InsertVertex and
/// DeleteVertex end by bumping its generation, so no cached answer
/// survives an update.
class ISLabelIndex : public DistanceIndex {
 public:
  ISLabelIndex() = default;
  ISLabelIndex(ISLabelIndex&&) = default;
  ISLabelIndex& operator=(ISLabelIndex&&) = default;

  /// Builds the index over `g`. See IndexOptions for σ, forced k, vertex
  /// order, path support and the external-memory pipeline.
  static Result<ISLabelIndex> Build(const Graph& g,
                                    const IndexOptions& options = {});

  using DistanceIndex::Query;
  /// Measured query for the paper-table benches and the CLI: validates
  /// the endpoints, leases one engine and fills *stats (Time (a)/(b),
  /// label I/Os, search counters). Never consults the cache and never
  /// enters the active trace, so it always measures the real engine.
  Status Query(VertexId s, VertexId t, Distance* out, QueryStats* stats);

  /// Exact shortest path (sequence of original-graph vertices, s first,
  /// t last). Requires the index to have been built with keep_vias.
  /// Outputs an empty path and kInfDistance when disconnected.
  /// Thread-safe.
  Status ShortestPath(VertexId s, VertexId t, std::vector<VertexId>* path,
                      Distance* dist) override;

  // ---- Batched queries ----

  /// Answers every (s, t) pair, parallelized over the engine pool with
  /// `num_threads` workers (0 = hardware concurrency). out->size() ==
  /// pairs.size(); pairs that fail individually (deleted endpoint, id out
  /// of range) get kInfDistance in *out and their error in *statuses when
  /// provided — otherwise the first per-pair error becomes the return
  /// value (the batch still completes). Thread-safe.
  Status QueryBatch(const std::vector<std::pair<VertexId, VertexId>>& pairs,
                    std::vector<Distance>* out, std::uint32_t num_threads = 0,
                    std::vector<Status>* statuses = nullptr) override;

  /// Distances from s to every target on one engine, fetching label(s) and
  /// seeding its forward search once for the whole batch (the shared
  /// "forward ball" — see QueryEngine::QueryOneToMany). All endpoints are
  /// validated up front; any deleted/out-of-range endpoint fails the whole
  /// call. Thread-safe.
  Status QueryOneToMany(VertexId s, const std::vector<VertexId>& targets,
                        std::vector<Distance>* out) override;

  // ---- Update maintenance (§8.3; implemented in updates.cc) ----

  /// Inserts a new vertex with id == NumVertices() and the given (neighbor,
  /// weight) adjacency. The vertex joins G_k (level k); labels of affected
  /// descendants are patched lazily per §8.3.
  Status InsertVertex(VertexId v,
                      const std::vector<std::pair<VertexId, Weight>>& adj);

  /// Deletes a vertex per the paper's lazy scheme. Exact when the vertex is
  /// in G_k and appears in no label; otherwise distances involving paths
  /// through it may become stale until the index is rebuilt (the paper's
  /// "rebuild periodically"). Queries naming the deleted vertex itself as
  /// an endpoint fail with NotFound in every mode.
  Status DeleteVertex(VertexId v);

  bool IsDeleted(VertexId v) const {
    return v < deleted_.size() && deleted_[v];
  }

  // ---- Persistence ----

  /// Writes `<dir>/labels.isl`, `<dir>/core.islg`, `<dir>/meta.islm`.
  Status Save(const std::string& dir) const override;

  /// Loads a saved index. labels_in_memory = true materializes all labels
  /// (IM-ISL); false keeps them disk-resident, one read per query label.
  static Result<ISLabelIndex> Load(const std::string& dir,
                                   bool labels_in_memory = true);

  // ---- Introspection ----

  VertexId NumVertices() const override { return hierarchy_->NumVertices(); }
  std::uint32_t k() const { return hierarchy_->k; }
  std::uint32_t LevelOf(VertexId v) const { return hierarchy_->level[v]; }
  bool InCore(VertexId v) const { return hierarchy_->InCore(v); }
  const VertexHierarchy& hierarchy() const { return *hierarchy_; }
  /// In-memory label arena; empty in disk-resident mode. §8.3 updates are
  /// served through its overflow side-table.
  const LabelArena& labels() const { return *labels_; }
  bool labels_on_disk() const { return store_ != nullptr; }
  LabelStore* label_store() { return store_.get(); }
  const BuildStats& build_stats() const { return build_stats_; }
  /// True iff the index carries intermediate vertices for path queries
  /// (IndexOptions::keep_vias at build time; persisted across Save/Load).
  bool has_vias() const override { return vias_enabled_; }
  /// Backend name + label counts/bytes (valid after Build and Load alike,
  /// unlike build_stats(), which Load leaves mostly empty).
  DistanceIndexInfo Info() const override;
  /// The engine pool behind the query entry points — for callers that want
  /// to hold a lease across many queries (serve loops, benches).
  QueryEnginePool* engine_pool() { return pool_.get(); }

  /// Wires the engine pool's occupancy gauge and creation counter into
  /// `registry`. The pool lives as long as the index, updates included;
  /// the shared Add/Inc instruments mean partitioned parts and reloaded
  /// indexes all feed the same series.
  void InstallMetrics(obs::MetricRegistry* registry) override;

 protected:
  /// Leases an engine and runs the real query; the base class has already
  /// validated endpoints and missed the cache.
  Status QueryUncached(VertexId s, VertexId t, Distance* out) override;
  /// Adds the built/deleted-endpoint checks to the base range check.
  Status CheckQueryable(VertexId s, VertexId t) const override;

 private:
  /// Creates the engine pool over the hierarchy and the labels (arena or
  /// store). Build and Load call it once, so the query entry points never
  /// construct shared state lazily (and thus never race); updates keep
  /// the pool, and each engine absorbs them at its next query.
  void CreatePool();

  // Rebuilds the G_k CSR from an edge list after an update (updates.cc).
  void RebuildCore(EdgeList edges);

  std::unique_ptr<VertexHierarchy> hierarchy_;
  std::unique_ptr<LabelArena> labels_ = std::make_unique<LabelArena>();
  std::unique_ptr<LabelStore> store_;
  std::unique_ptr<QueryEnginePool> pool_;
  BuildStats build_stats_;
  BitVector deleted_;
  bool vias_enabled_ = true;
};

}  // namespace islabel

#endif  // ISLABEL_CORE_INDEX_H_
