// CSR weighted *directed* graph, the substrate for the directed IS-LABEL
// variant (§8.2). Stores both out- and in-adjacency, one Csr
// (graph/csr.h) each, so that forward and reverse traversals are
// symmetric in cost.

#ifndef ISLABEL_GRAPH_DIGRAPH_H_
#define ISLABEL_GRAPH_DIGRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.h"
#include "graph/graph_defs.h"

namespace islabel {

/// Weighted directed graph with out- and in-CSR, immutable but for
/// SortListsByWeight.
class DiGraph {
 public:
  DiGraph() = default;

  /// Builds from an arc list. Self-loops dropped; parallel arcs merged with
  /// min weight; vias dropped. `num_vertices` may exceed the max endpoint
  /// + 1.
  static DiGraph FromArcs(std::vector<Arc> arcs, VertexId num_vertices = 0);

  /// Out-lists: v's list holds the head u and weight of each arc v -> u.
  const Csr& out() const { return out_; }
  /// In-lists: v's list holds the tail u and weight of each arc u -> v.
  const Csr& in() const { return in_; }

  VertexId NumVertices() const { return out_.NumVertices(); }
  std::uint64_t NumArcs() const { return out_.NumArcs(); }
  std::uint32_t OutDegree(VertexId v) const { return out_.Degree(v); }
  std::uint32_t InDegree(VertexId v) const { return in_.Degree(v); }
  /// In-neighbors: u such that (u -> v) is an arc.
  std::span<const VertexId> InNeighbors(VertexId v) const {
    return in_.Neighbors(v);
  }

  /// Weight of arc u -> v, or kInfDistance if absent (u's out-list must be
  /// id-ordered, see Csr::ArcWeight).
  Distance ArcWeight(VertexId u, VertexId v) const {
    return out_.ArcWeight(u, v);
  }

  /// Reorders the out- and in-lists by (weight, id), as the G_k search
  /// reads a core (Csr::SortListsByWeight).
  void SortListsByWeight() {
    out_.SortListsByWeight();
    in_.SortListsByWeight();
  }

 private:
  Csr out_;
  Csr in_;
};

}  // namespace islabel

#endif  // ISLABEL_GRAPH_DIGRAPH_H_
