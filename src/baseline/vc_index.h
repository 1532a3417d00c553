// VC-Index: re-implementation of the vertex-cover distance index of
// Cheng, Ke, Chu, Cheng (SIGMOD 2012), the strongest baseline the IS-LABEL
// paper compares against (§7.3, Tables 8/9).
//
// Construction removes, per level, an independent set W_i (the complement
// of a vertex cover C_i of G_i) and preserves distances by clique-joining
// each removed vertex's neighborhood — the same reduction IS-LABEL uses,
// so the index is IS-LABEL's own hierarchy (BuildHierarchy with default
// options, min-degree-first sets and τ = σ = 0.95, without vias), and the
// two indexes have comparable build costs. The difference is the query
// algorithm: VC-Index answers *single-source* queries by lifting the
// source to the top graph, running a full Dijkstra there, and sweeping
// distances back down level by level. Following §7.3, the P2P conversion
// simply stops as soon as t's distance is final — the remaining per-level
// sweeps still touch many irrelevant vertices, which is exactly the
// inefficiency Table 8 quantifies.

#ifndef ISLABEL_BASELINE_VC_INDEX_H_
#define ISLABEL_BASELINE_VC_INDEX_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/hierarchy.h"
#include "graph/graph.h"
#include "util/result.h"

namespace islabel {

/// Vertex-cover hierarchy distance index (exact).
class VcIndex {
 public:
  VcIndex() = default;
  VcIndex(VcIndex&&) = default;
  VcIndex& operator=(VcIndex&&) = default;

  static Result<VcIndex> Build(const Graph& g);

  /// P2P distance: the single-source query halted once dist(s, t) is
  /// final. `settled` (optional) receives the number of vertices touched.
  Distance QueryP2P(VertexId s, VertexId t, std::uint64_t* settled = nullptr);

  /// Full single-source distances (the index's native query; used by tests).
  std::vector<Distance> Sssp(VertexId s);

  std::uint32_t num_levels() const { return num_levels_; }
  std::uint64_t top_vertices() const { return top_vertices_; }
  std::uint64_t top_edges() const { return top_graph_.NumEdges(); }

  /// Index footprint: removed adjacency lists + top graph + level array —
  /// the "Index size" column of Table 9.
  std::uint64_t SizeBytes() const;

 private:
  // level_[v]: 1-based level at which v was removed; num_levels_ for
  // vertices that survive in the top graph.
  std::vector<std::uint32_t> level_;
  std::uint32_t num_levels_ = 0;
  std::vector<std::vector<HierEdge>> removed_adj_;
  // Removed vertices of each level, in id order (levels are 1-based).
  std::vector<std::vector<VertexId>> waves_;
  Graph top_graph_;
  std::uint64_t top_vertices_ = 0;

  // The one query behind QueryP2P and Sssp, in three phases: lift s
  // through the removal DAG, a multi-source Dijkstra on the top graph, and
  // a sweep down one whole level at a time. A target t ends the top search
  // once t is settled there, or else the sweep at t's level; with
  // t = kInvalidVertex the sweep runs down to level 1. Leaves the
  // distances under the current epoch and returns the vertices touched.
  std::uint64_t Search(VertexId s, VertexId t);
  Distance DistOf(VertexId v) const {
    return stamp_[v] == epoch_ ? dist_[v] : kInfDistance;
  }

  // Reusable scratch for queries, sized n at the first query. A distance
  // or a popped mark is valid only when stamped with the current epoch,
  // so no query clears an O(n) array.
  std::vector<Distance> dist_;
  std::vector<std::uint32_t> stamp_;
  std::vector<std::uint32_t> popped_;
  std::uint32_t epoch_ = 0;
  // Lift frontier of each level (bucket_[level_[v]]) and the top graph's
  // heap of (distance, vertex); both keep their capacity across queries.
  std::vector<std::vector<VertexId>> bucket_;
  std::vector<std::pair<Distance, VertexId>> heap_;
};

}  // namespace islabel

#endif  // ISLABEL_BASELINE_VC_INDEX_H_
