// Immutable CSR (compressed sparse row) weighted undirected graph.
//
// This is the in-memory adjacency-list representation the paper assumes
// (§2): vertices are dense ids, each adjacency list is sorted by neighbor
// id, and each undirected edge {u,v} is stored in both lists. The one
// exception is the searched core VertexHierarchy::g_k, whose lists are
// sorted by (weight, neighbor id) for the G_k search (Csr::SortListsByWeight,
// DESIGN §7.5): HasEdge and EdgeWeight do not apply to it. The lists
// live in the Csr base (graph/csr.h), so Neighbors, NeighborWeights,
// NeighborVias and Degree read it directly; the optional per-edge `via`
// array carries augmenting-edge provenance for shortest-path
// reconstruction (§8.1), and plain input graphs do not allocate it.

#ifndef ISLABEL_GRAPH_GRAPH_H_
#define ISLABEL_GRAPH_GRAPH_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/csr.h"
#include "graph/edge_list.h"
#include "graph/graph_defs.h"

namespace islabel {

/// Immutable weighted undirected graph in CSR form.
class Graph : public Csr {
 public:
  Graph() = default;

  /// Builds a CSR graph from an edge list. The list is normalized
  /// (self-loops dropped, parallel edges merged with min weight) first.
  /// `keep_vias` controls whether the via array is materialized.
  static Graph FromEdgeList(EdgeList edges, bool keep_vias = false);

  /// Number of undirected edges |E|.
  std::uint64_t NumEdges() const { return NumArcs() / 2; }
  /// |G| = |V| + |E| as defined in §2; the hierarchy termination criterion
  /// compares these sizes across levels.
  std::uint64_t SizeVE() const { return NumVertices() + NumEdges(); }

  /// True iff the edge {u,v} exists (binary search, O(log deg); u's list
  /// must be id-ordered, see Csr::ArcWeight).
  bool HasEdge(VertexId u, VertexId v) const {
    return ArcWeight(u, v) != kInfDistance;
  }
  /// Weight of {u,v}, or kInfDistance if absent.
  Distance EdgeWeight(VertexId u, VertexId v) const { return ArcWeight(u, v); }

  /// Reconstructs the (normalized) edge list; each undirected edge once.
  EdgeList ToEdgeList() const;

  /// This graph with vertex v renamed new_id[v], over old_id.size()
  /// vertices; adjacency lists come out sorted by the new ids, whatever
  /// the order of this graph's lists. The maps must be inverse on every
  /// vertex that has an edge (old_id[new_id[v]] == v); old_id holds
  /// kInvalidVertex for new ids with no old vertex.
  /// O(|V| + |E|), no sort. The transpose that sorts the lists holds only
  /// because every edge sits in both of its endpoints' lists.
  Graph Renumbered(const std::vector<VertexId>& new_id,
                   const std::vector<VertexId>& old_id) const;

  /// Size of the graph in the plain text edge-list form used to report the
  /// "disk size" column of Table 2 (estimated, without materializing it).
  std::uint64_t TextDiskSizeBytes() const;

 private:
  explicit Graph(Csr lists) : Csr(std::move(lists)) {}
};

}  // namespace islabel

#endif  // ISLABEL_GRAPH_GRAPH_H_
