// LevelGraph: the mutable working graph G_i used during hierarchy
// construction. Adjacency lists are kept sorted by target id — the on-disk
// "adjacency list representation" of the paper, materialized in memory for
// the in-memory pipeline. An undirected G_i is one LevelGraph; a directed
// one is two, its out- and in-lists (core/augment.h).

#ifndef ISLABEL_CORE_LEVEL_GRAPH_H_
#define ISLABEL_CORE_LEVEL_GRAPH_H_

#include <cstdint>
#include <vector>

#include "core/hierarchy.h"
#include "graph/graph.h"
#include "util/bit_vector.h"

namespace islabel {

/// Mutable adjacency over the full vertex-id space; vertices removed at
/// earlier levels have alive=false and empty lists.
struct LevelGraph {
  std::vector<std::vector<HierEdge>> adj;
  BitVector alive;
  std::uint64_t num_alive = 0;

  /// The lists of `g`: an undirected Graph, or a DiGraph's out() or in().
  static LevelGraph FromGraph(const Csr& g) {
    LevelGraph lg;
    const VertexId n = g.NumVertices();
    lg.adj.resize(n);
    lg.alive.Resize(n, true);
    lg.num_alive = n;
    for (VertexId v = 0; v < n; ++v) {
      auto nbrs = g.Neighbors(v);
      auto ws = g.NeighborWeights(v);
      lg.adj[v].reserve(nbrs.size());
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        lg.adj[v].emplace_back(nbrs[i], ws[i],
                               g.has_vias() ? g.NeighborVias(v)[i]
                                            : kInvalidVertex);
      }
    }
    return lg;
  }

  /// Entries over all lists: |A| of a directed out- or in-graph.
  std::uint64_t CountArcs() const {
    std::uint64_t arcs = 0;
    for (const auto& list : adj) arcs += list.size();
    return arcs;
  }

  /// Undirected edge count (each edge appears in two lists).
  std::uint64_t CountEdges() const { return CountArcs() / 2; }

  /// |G| = |V| + |E| (§2), the quantity the σ criterion compares.
  std::uint64_t SizeVE() const { return num_alive + CountEdges(); }

  /// Converts the remaining graph to an immutable CSR Graph spanning the
  /// full original id space (removed vertices keep empty adjacency).
  Graph ToGraph(bool keep_vias) const {
    EdgeList edges(static_cast<VertexId>(adj.size()));
    for (VertexId v = 0; v < adj.size(); ++v) {
      for (const HierEdge& e : adj[v]) {
        if (v < e.to) {
          edges.Add(v, e.to, e.w, keep_vias ? e.via : kInvalidVertex);
        }
      }
    }
    return Graph::FromEdgeList(std::move(edges), keep_vias);
  }
};

}  // namespace islabel

#endif  // ISLABEL_CORE_LEVEL_GRAPH_H_
