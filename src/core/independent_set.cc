#include "core/independent_set.h"

#include <algorithm>
#include <cstdint>

namespace islabel {

std::vector<VertexId> ComputeIndependentSet(
    std::initializer_list<const LevelGraph*> graphs, IsOrder order, Rng* rng) {
  const LevelGraph& first = **graphs.begin();
  const VertexId n = static_cast<VertexId>(first.adj.size());

  // Collect alive vertices in the configured consideration order. This is
  // the "sort adjacency lists by degree" step of Algorithm 2; in memory the
  // sort is over vertex ids keyed by a degree array instead of list
  // payloads.
  std::vector<VertexId> scan_order;
  scan_order.reserve(first.num_alive);
  std::vector<std::uint64_t> degree(n, 0);
  for (VertexId v = 0; v < n; ++v) {
    if (!first.alive[v]) continue;
    scan_order.push_back(v);
    for (const LevelGraph* g : graphs) degree[v] += g->adj[v].size();
  }
  switch (order) {
    case IsOrder::kMinDegree:
      std::stable_sort(scan_order.begin(), scan_order.end(),
                       [&degree](VertexId a, VertexId b) {
                         return degree[a] < degree[b];
                       });
      break;
    case IsOrder::kMaxDegree:
      std::stable_sort(scan_order.begin(), scan_order.end(),
                       [&degree](VertexId a, VertexId b) {
                         return degree[a] > degree[b];
                       });
      break;
    case IsOrder::kRandom:
      for (std::size_t i = scan_order.size(); i > 1; --i) {
        std::swap(scan_order[i - 1], scan_order[rng->Uniform(i)]);
      }
      break;
  }

  // Greedy scan with the L' exclusion set.
  BitVector excluded(n);
  std::vector<VertexId> selected;
  for (VertexId u : scan_order) {
    if (excluded[u]) continue;
    selected.push_back(u);
    for (const LevelGraph* g : graphs) {
      for (const HierEdge& e : g->adj[u]) excluded.Set(e.to);
    }
  }
  std::sort(selected.begin(), selected.end());
  return selected;
}

}  // namespace islabel
