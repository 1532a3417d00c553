// Dijkstra's algorithm: the exactness oracle for every test in the suite
// and the building block of several baselines. Uses the indexed binary
// heap with decrease-key (§6.2 prescribes a binary heap).

#ifndef ISLABEL_BASELINE_DIJKSTRA_H_
#define ISLABEL_BASELINE_DIJKSTRA_H_

#include <cstdint>
#include <vector>

#include "graph/csr.h"
#include "graph/digraph.h"
#include "graph/graph.h"

namespace islabel {

/// Full single-source shortest paths.
struct SsspResult {
  std::vector<Distance> dist;     // kInfDistance = unreachable
  std::vector<VertexId> parent;   // kInvalidVertex = source/unreachable
};

/// Over an undirected Graph, or any Csr's lists read as arcs v -> u.
SsspResult DijkstraSssp(const Csr& g, VertexId source);
/// Over the out-arcs.
SsspResult DijkstraSssp(const DiGraph& g, VertexId source);

/// Point-to-point with early termination once t is settled.
/// `settled` (optional) receives the number of settled vertices.
Distance DijkstraP2P(const Csr& g, VertexId s, VertexId t,
                     std::uint64_t* settled = nullptr);

}  // namespace islabel

#endif  // ISLABEL_BASELINE_DIJKSTRA_H_
