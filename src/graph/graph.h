// Immutable CSR (compressed sparse row) weighted undirected graph.
//
// This is the in-memory adjacency-list representation the paper assumes
// (§2): vertices are dense ids, each adjacency list is sorted by neighbor
// id, and each undirected edge {u,v} is stored in both lists. The optional
// per-edge `via` array carries augmenting-edge provenance for shortest-path
// reconstruction (§8.1); plain input graphs do not allocate it.

#ifndef ISLABEL_GRAPH_GRAPH_H_
#define ISLABEL_GRAPH_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/edge_list.h"
#include "graph/graph_defs.h"

namespace islabel {

/// Immutable weighted undirected graph in CSR form.
class Graph {
 public:
  Graph() = default;

  /// Builds a CSR graph from an edge list. The list is normalized
  /// (self-loops dropped, parallel edges merged with min weight) first.
  /// `keep_vias` controls whether the via array is materialized.
  static Graph FromEdgeList(EdgeList edges, bool keep_vias = false);

  VertexId NumVertices() const {
    return offsets_.empty() ? 0 : static_cast<VertexId>(offsets_.size() - 1);
  }
  /// Number of undirected edges |E|.
  std::uint64_t NumEdges() const { return targets_.size() / 2; }
  /// |G| = |V| + |E| as defined in §2; the hierarchy termination criterion
  /// compares these sizes across levels.
  std::uint64_t SizeVE() const { return NumVertices() + NumEdges(); }

  std::uint32_t Degree(VertexId v) const {
    return static_cast<std::uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  /// Neighbor ids of v, sorted ascending.
  std::span<const VertexId> Neighbors(VertexId v) const {
    return {targets_.data() + offsets_[v],
            targets_.data() + offsets_[v + 1]};
  }
  /// Weights aligned with Neighbors(v).
  std::span<const Weight> NeighborWeights(VertexId v) const {
    return {weights_.data() + offsets_[v], weights_.data() + offsets_[v + 1]};
  }
  /// Via vertices aligned with Neighbors(v); only valid if has_vias().
  std::span<const VertexId> NeighborVias(VertexId v) const {
    return {vias_.data() + offsets_[v], vias_.data() + offsets_[v + 1]};
  }
  bool has_vias() const { return !vias_.empty(); }

  /// True iff the edge {u,v} exists (binary search, O(log deg)).
  bool HasEdge(VertexId u, VertexId v) const;
  /// Weight of {u,v}, or kInfDistance if absent.
  Distance EdgeWeight(VertexId u, VertexId v) const;

  /// Reconstructs the (normalized) edge list; each undirected edge once.
  EdgeList ToEdgeList() const;

  /// This graph with vertex v renamed new_id[v], over old_id.size()
  /// vertices; adjacency lists come out sorted by the new ids. The maps
  /// must be inverse on every vertex that has an edge (old_id[new_id[v]]
  /// == v); old_id holds kInvalidVertex for new ids with no old vertex.
  /// O(|V| + |E|), no sort.
  Graph Renumbered(const std::vector<VertexId>& new_id,
                   const std::vector<VertexId>& old_id) const;

  /// Approximate heap footprint, used to report index/graph sizes.
  std::uint64_t MemoryBytes() const {
    return offsets_.size() * sizeof(std::uint64_t) +
           targets_.size() * sizeof(VertexId) +
           weights_.size() * sizeof(Weight) + vias_.size() * sizeof(VertexId);
  }

  /// Size of the graph in the plain text edge-list form used to report the
  /// "disk size" column of Table 2 (estimated, without materializing it).
  std::uint64_t TextDiskSizeBytes() const;

 private:
  std::vector<std::uint64_t> offsets_;  // size NumVertices()+1
  std::vector<VertexId> targets_;       // size 2|E|
  std::vector<Weight> weights_;         // size 2|E|
  std::vector<VertexId> vias_;          // size 2|E| or 0
};

}  // namespace islabel

#endif  // ISLABEL_GRAPH_GRAPH_H_
