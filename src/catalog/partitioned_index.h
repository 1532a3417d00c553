// PartitionedIndex: per-connected-component sub-indexes behind the
// DistanceIndex query surface — with a pluggable backend per component.
//
// The paper's large instances (BTC, web-uk, the DIMACS road networks)
// are disconnected in the raw data, yet a monolithic index burns a full
// bidirectional search to conclude "unreachable" for every
// cross-component pair. This layer decomposes the input before indexing:
// ComponentPartitioner splits the graph into connected components with
// densely renumbered per-part vertex ids, Build() indexes each component
// independently (in parallel across components), and queries route
// through the vertex→component map — same-component pairs are translated
// into the owning sub-index (answers and paths are mapped back to
// original ids), cross-component pairs answer kInfDistance in O(1)
// without ever touching a backend.
//
// Each component picks its own backend (PartitionOptions::backend):
// IS-LABEL, CH, or auto — where the registry's road-likeness heuristic
// decides per component, so one dataset can host a road-like component
// on CH next to a scale-free one on IS-LABEL. The manifest records each
// part's backend by name; loading a manifest naming an unknown backend
// fails with Corruption (never a misparse).
//
// Invariants that make routed answers bit-identical to a monolithic
// index on the same graph:
//   * the sub-graph of a component contains exactly its induced edges,
//     so every s-t path of the original graph survives the remap;
//   * local ids are assigned in ascending global-id order per part, and
//     part_global_ids(PartOf(v))[LocalId(v)] == v for every vertex;
//   * singleton components build no sub-index at all — the only
//     same-component query they can receive is s == t, answered 0
//     directly (and `{s}` for paths), exactly as a backend would.
//
// Thread-safety follows the DistanceIndex contract: the routing arrays
// are immutable after Build/Load and every sub-index entry point leases
// engines/scratch internally, so all query entry points may be called
// concurrently.

#ifndef ISLABEL_CATALOG_PARTITIONED_INDEX_H_
#define ISLABEL_CATALOG_PARTITIONED_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/distance_index.h"
#include "core/index.h"
#include "graph/graph.h"
#include "util/result.h"

namespace islabel {

/// One connected component extracted by ComponentPartitioner, with the
/// id remapping that produced it.
struct GraphPart {
  /// The component id (index into GraphPartition::part_of_component).
  std::uint32_t component = 0;
  /// Induced subgraph over the component, vertices renumbered densely in
  /// ascending global-id order.
  Graph graph;
  /// Local id -> original id (ascending).
  std::vector<VertexId> global_ids;
};

/// Full result of a partitioning pass. Components of size 1 get no part
/// (part_of_component[c] == kNoPart): they carry no edges, so there is
/// nothing to index.
struct GraphPartition {
  static constexpr std::uint32_t kNoPart = UINT32_MAX;

  /// component[v] = connected-component id in [0, num_components).
  std::vector<std::uint32_t> component;
  /// local_id[v] = v's dense id inside its part (0 for singletons).
  std::vector<VertexId> local_id;
  /// component id -> part index, or kNoPart for singletons.
  std::vector<std::uint32_t> part_of_component;
  std::vector<GraphPart> parts;
  std::uint32_t num_components = 0;
};

/// Splits a graph into its connected components with per-part dense
/// renumbering (see GraphPartition). Deterministic: components, parts and
/// local ids are all ordered by smallest global vertex id.
class ComponentPartitioner {
 public:
  static GraphPartition Partition(const Graph& g);
};

/// Options for PartitionedIndex::Build.
struct PartitionOptions {
  /// Per-component build options for IS-LABEL parts (σ, forced k, vias,
  /// labeling threads...). CH parts ignore it.
  IndexOptions index;
  /// Worker threads ACROSS components (0 = hardware concurrency). Within
  /// a component, labeling uses index.num_threads as usual.
  std::uint32_t num_threads = 0;
  /// Index family per component; kAuto picks per component via the
  /// registry's road-likeness heuristic, so components may mix.
  BackendKind backend = BackendKind::kISLabel;
};

/// A DistanceIndex composed of one sub-index per connected component,
/// each on its own backend. Movable, not copyable. All query entry
/// points are thread-safe; the index is immutable after Build/Load.
class PartitionedIndex : public DistanceIndex {
 public:
  PartitionedIndex() = default;
  PartitionedIndex(PartitionedIndex&&) = default;
  PartitionedIndex& operator=(PartitionedIndex&&) = default;

  /// Partitions `g` and builds one sub-index per multi-vertex component,
  /// components built in parallel (PartitionOptions::num_threads).
  static Result<PartitionedIndex> Build(const Graph& g,
                                       const PartitionOptions& options = {});

  /// Wraps an already-built monolithic index as a single-part
  /// partitioned index (identity id mapping, every vertex in part 0) —
  /// how plain `islabel build` directories enter the catalog.
  static PartitionedIndex FromMonolithic(ISLabelIndex index);

  /// Same, for any backend instance.
  static PartitionedIndex FromBackend(std::unique_ptr<DistanceIndex> index,
                                      BackendKind backend);

  // ---- Query surface (original-graph ids). Query and QueryBatch come
  // from DistanceIndex; cross-component pairs are answered kInfDistance
  // in O(1) from the partition map. ----

  /// Exact shortest path in original-graph ids (empty + kInfDistance when
  /// disconnected, including the O(1) cross-component case). Thread-safe.
  Status ShortestPath(VertexId s, VertexId t, std::vector<VertexId>* path,
                      Distance* dist) override;

  /// Distances from s to every target. Targets in s's component share one
  /// backend call; targets elsewhere are answered unreachable without
  /// touching it. All endpoints validated up front, any invalid endpoint
  /// fails the whole call. Thread-safe.
  Status QueryOneToMany(VertexId s, const std::vector<VertexId>& targets,
                        std::vector<Distance>* out) override;

  // ---- Persistence ----

  /// Writes `<dir>/partition.islp` (the vertex→component/local-id map
  /// plus each part's backend name) and one backend directory per part
  /// under `<dir>/partNNNNN`.
  Status Save(const std::string& dir) const override;

  /// Loads a saved catalog directory. Falls back to a monolithic backend
  /// directory (sniffed by the registry, wrapped via FromBackend) when
  /// `<dir>/partition.islp` is absent, so both layouts are servable.
  /// A manifest naming an unknown backend yields Corruption with the
  /// offending name.
  static Result<PartitionedIndex> Load(const std::string& dir,
                                       bool labels_in_memory = true);

  // ---- Introspection ----

  /// Forwards to every part's backend, so a mixed-backend catalog feeds
  /// the shared pool gauges from all of its IS-LABEL parts.
  void InstallMetrics(obs::MetricRegistry* registry) override {
    for (auto& part : parts_) {
      if (part.index != nullptr) part.index->InstallMetrics(registry);
    }
  }

  VertexId NumVertices() const override {
    return static_cast<VertexId>(component_.size());
  }
  std::uint32_t num_components() const { return num_components_; }
  std::uint32_t num_parts() const {
    return static_cast<std::uint32_t>(parts_.size());
  }
  std::uint32_t ComponentOf(VertexId v) const { return component_[v]; }
  /// Part owning v, or GraphPartition::kNoPart for singleton vertices.
  std::uint32_t PartOf(VertexId v) const {
    return part_of_component_[component_[v]];
  }
  VertexId LocalId(VertexId v) const { return local_id_[v]; }
  const DistanceIndex& part(std::uint32_t p) const {
    return *parts_[p].index;
  }
  DistanceIndex* mutable_part(std::uint32_t p) {
    return parts_[p].index.get();
  }
  BackendKind part_backend(std::uint32_t p) const {
    return parts_[p].backend;
  }
  const std::vector<VertexId>& part_global_ids(std::uint32_t p) const {
    return parts_[p].global_ids;
  }
  bool has_vias() const override { return vias_enabled_; }

  /// Aggregated across parts: entries/bytes summed, backend naming the
  /// single family or "mixed", detail = BackendSummary().
  DistanceIndexInfo Info() const override;

  /// Per-part "p<idx>=<backend>/<entries>" summary (comma-joined, first
  /// 8 parts, "+N" for the rest) for the `datasets` verb — colon- and
  /// space-free so it stays one wire token.
  std::string BackendSummary() const;

 protected:
  /// Routes one validated pair: O(1) for cross-component/singleton,
  /// otherwise the owning part's backend.
  Status QueryUncached(VertexId s, VertexId t, Distance* out) override;
  Status CheckQueryable(VertexId s, VertexId t) const override;

 private:
  struct PartEntry {
    std::uint32_t component = 0;
    std::vector<VertexId> global_ids;
    std::unique_ptr<DistanceIndex> index;
    BackendKind backend = BackendKind::kISLabel;
  };

  std::vector<std::uint32_t> component_;
  std::vector<VertexId> local_id_;
  std::vector<std::uint32_t> part_of_component_;
  std::vector<PartEntry> parts_;
  std::uint32_t num_components_ = 0;
  bool vias_enabled_ = true;
};

}  // namespace islabel

#endif  // ISLABEL_CATALOG_PARTITIONED_INDEX_H_
