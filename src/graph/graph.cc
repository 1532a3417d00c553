#include "graph/graph.h"

#include <algorithm>
#include <string>
#include <utility>

namespace islabel {

namespace {

// A directed copy of an undirected edge, used transiently during CSR build.
struct DirectedEdge {
  VertexId src;
  VertexId dst;
  Weight w;
  VertexId via;
};

}  // namespace

Graph Graph::FromEdgeList(EdgeList edges, bool keep_vias) {
  edges.Normalize();
  const VertexId n = edges.num_vertices();

  // Expand each undirected edge into its two directed copies and sort by
  // (src, dst); a single global sort leaves every adjacency list sorted.
  std::vector<DirectedEdge> directed;
  directed.reserve(edges.size() * 2);
  for (const Edge& e : edges.edges()) {
    directed.push_back({e.u, e.v, e.w, e.via});
    directed.push_back({e.v, e.u, e.w, e.via});
  }
  std::sort(directed.begin(), directed.end(),
            [](const DirectedEdge& a, const DirectedEdge& b) {
              if (a.src != b.src) return a.src < b.src;
              return a.dst < b.dst;
            });

  Graph g;
  g.offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  g.targets_.resize(directed.size());
  g.weights_.resize(directed.size());
  if (keep_vias) g.vias_.resize(directed.size());

  for (const DirectedEdge& e : directed) ++g.offsets_[e.src + 1];
  for (std::size_t i = 1; i < g.offsets_.size(); ++i) {
    g.offsets_[i] += g.offsets_[i - 1];
  }
  for (std::size_t i = 0; i < directed.size(); ++i) {
    g.targets_[i] = directed[i].dst;
    g.weights_[i] = directed[i].w;
    if (keep_vias) g.vias_[i] = directed[i].via;
  }
  return g;
}

bool Graph::HasEdge(VertexId u, VertexId v) const {
  auto nbrs = Neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

Distance Graph::EdgeWeight(VertexId u, VertexId v) const {
  auto nbrs = Neighbors(u);
  auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
  if (it == nbrs.end() || *it != v) return kInfDistance;
  return NeighborWeights(u)[static_cast<std::size_t>(it - nbrs.begin())];
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
