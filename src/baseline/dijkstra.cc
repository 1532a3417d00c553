#include "baseline/dijkstra.h"

#include "util/indexed_heap.h"

namespace islabel {

SsspResult DijkstraSssp(const Csr& g, VertexId source) {
  SsspResult r;
  r.dist.assign(g.NumVertices(), kInfDistance);
  r.parent.assign(g.NumVertices(), kInvalidVertex);
  IndexedHeap heap(g.NumVertices());
  r.dist[source] = 0;
  heap.Push(source, 0);
  while (!heap.Empty()) {
    auto [v, d] = heap.PopMin();
    auto nbrs = g.Neighbors(v);
    auto ws = g.NeighborWeights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId u = nbrs[i];
      const Distance nd = d + ws[i];
      if (nd < r.dist[u]) {
        r.dist[u] = nd;
        r.parent[u] = v;
        heap.PushOrDecrease(u, nd);
      }
    }
  }
  return r;
}

SsspResult DijkstraSssp(const DiGraph& g, VertexId source) {
  return DijkstraSssp(g.out(), source);
}

Distance DijkstraP2P(const Csr& g, VertexId s, VertexId t,
                     std::uint64_t* settled) {
  if (s == t) return 0;
  std::vector<Distance> dist(g.NumVertices(), kInfDistance);
  IndexedHeap heap(g.NumVertices());
  dist[s] = 0;
  heap.Push(s, 0);
  std::uint64_t count = 0;
  while (!heap.Empty()) {
    auto [v, d] = heap.PopMin();
    ++count;
    if (v == t) {
      if (settled != nullptr) *settled = count;
      return d;
    }
    auto nbrs = g.Neighbors(v);
    auto ws = g.NeighborWeights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId u = nbrs[i];
      const Distance nd = d + ws[i];
      if (nd < dist[u]) {
        dist[u] = nd;
        heap.PushOrDecrease(u, nd);
      }
    }
  }
  if (settled != nullptr) *settled = count;
  return kInfDistance;
}

}  // namespace islabel
