#include "graph/digraph.h"

#include <algorithm>
#include <utility>

namespace islabel {

DiGraph DiGraph::FromArcs(std::vector<Arc> arcs, VertexId num_vertices) {
  // Drop self-loops; find vertex count.
  std::size_t out = 0;
  VertexId n = num_vertices;
  for (std::size_t i = 0; i < arcs.size(); ++i) {
    if (arcs[i].from == arcs[i].to) continue;
    arcs[out++] = arcs[i];
    n = std::max(n, std::max(arcs[i].from, arcs[i].to) + 1);
  }
  arcs.resize(out);

  // Merge parallel arcs keeping min weight.
  std::sort(arcs.begin(), arcs.end(), [](const Arc& a, const Arc& b) {
    if (a.from != b.from) return a.from < b.from;
    if (a.to != b.to) return a.to < b.to;
    return a.w < b.w;
  });
  out = 0;
  for (std::size_t i = 0; i < arcs.size(); ++i) {
    if (out > 0 && arcs[out - 1].from == arcs[i].from &&
        arcs[out - 1].to == arcs[i].to) {
      continue;
    }
    arcs[out++] = arcs[i];
  }
  arcs.resize(out);

  DiGraph g;
  g.out_ = Csr::FromSortedArcs(arcs, n, /*keep_vias=*/false);
  // The in-lists are the out-lists of the reversed arcs.
  for (Arc& a : arcs) std::swap(a.from, a.to);
  std::sort(arcs.begin(), arcs.end(), kArcOrder);
  g.in_ = Csr::FromSortedArcs(arcs, n, /*keep_vias=*/false);
  return g;
}

}  // namespace islabel
