#include "graph/graph.h"

#include <algorithm>
#include <string>
#include <utility>

namespace islabel {

Graph Graph::FromEdgeList(EdgeList edges, bool keep_vias) {
  edges.Normalize();

  // Expand each undirected edge into its two arcs and sort by (from, to);
  // a single global sort leaves every adjacency list sorted.
  std::vector<Arc> arcs;
  arcs.reserve(edges.size() * 2);
  for (const Edge& e : edges.edges()) {
    arcs.emplace_back(e.u, e.v, e.w, e.via);
    arcs.emplace_back(e.v, e.u, e.w, e.via);
  }
  std::sort(arcs.begin(), arcs.end(), kArcOrder);
  return Graph(Csr::FromSortedArcs(arcs, edges.num_vertices(), keep_vias));
}

EdgeList Graph::ToEdgeList() const {
  EdgeList out(NumVertices());
  out.Reserve(NumEdges());
  for (VertexId u = 0; u < NumVertices(); ++u) {
    auto nbrs = Neighbors(u);
    auto ws = NeighborWeights(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (u < nbrs[i]) {
        out.Add(u, nbrs[i], ws[i],
                has_vias() ? NeighborVias(u)[i] : kInvalidVertex);
      }
    }
  }
  return out;
}

Graph Graph::Renumbered(const std::vector<VertexId>& new_id,
                        const std::vector<VertexId>& old_id) const {
  const auto old_degree = [&](VertexId t) {
    const VertexId u = old_id[t];
    return u < NumVertices() ? Degree(u) : 0u;
  };
  Graph out;
  out.offsets_.assign(old_id.size() + 1, 0);
  for (VertexId t = 0; t < old_id.size(); ++t) {
    out.offsets_[t + 1] = out.offsets_[t] + old_degree(t);
  }
  out.targets_.resize(targets_.size());
  out.weights_.resize(weights_.size());
  out.vias_.resize(vias_.size());
  // Symmetric transpose: walking sources in ascending new id and appending
  // each to its neighbors' lists leaves every list sorted, with no sort.
  std::vector<std::uint64_t> cursor(out.offsets_.begin(),
                                    out.offsets_.end() - 1);
  for (VertexId t = 0; t < old_id.size(); ++t) {
    if (old_degree(t) == 0) continue;
    const VertexId u = old_id[t];
    for (std::uint64_t i = offsets_[u]; i < offsets_[u + 1]; ++i) {
      const std::uint64_t dst = cursor[new_id[targets_[i]]]++;
      out.targets_[dst] = t;
      out.weights_[dst] = weights_[i];
      if (has_vias()) out.vias_[dst] = vias_[i];
    }
  }
  return out;
}

std::uint64_t Graph::TextDiskSizeBytes() const {
  std::uint64_t bytes = 0;
  for (VertexId u = 0; u < NumVertices(); ++u) {
    auto nbrs = Neighbors(u);
    auto ws = NeighborWeights(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (u < nbrs[i]) {
        bytes += std::to_string(u).size() + std::to_string(nbrs[i]).size() +
                 std::to_string(ws[i]).size() + 3;  // two spaces + newline
      }
    }
  }
  return bytes;
}

}  // namespace islabel
