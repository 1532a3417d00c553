// CSR (compressed sparse row) weighted adjacency lists: the one adjacency
// type behind the undirected Graph (graph/graph.h), which stores each edge
// in both endpoints' lists, and the DiGraph (graph/digraph.h), which holds
// one Csr of out-lists and one of in-lists. The arcs of vertex v are
// positions [offsets[v], offsets[v + 1]) of three aligned arrays: target
// ids, weights and, optionally, the via of each augmenting edge for
// shortest-path reconstruction (§8.1); lists without vias do not allocate
// that array.
//
// Lists are built sorted by target id, and ArcWeight's binary search needs
// that order. The searched cores (VertexHierarchy::g_k and the directed
// index's core) are reordered by (weight, target id) once built
// (SortListsByWeight), so that the G_k search can leave a list at its
// first edge that cannot beat µ (DESIGN §7.5); nothing looks up an arc
// by id in them.

#ifndef ISLABEL_GRAPH_CSR_H_
#define ISLABEL_GRAPH_CSR_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph_defs.h"
#include "util/logging.h"

namespace islabel {

/// The arc order Csr::FromSortedArcs requires: by tail, then by head.
inline constexpr auto kArcOrder = [](const Arc& a, const Arc& b) {
  return a.from != b.from ? a.from < b.from : a.to < b.to;
};

/// Weighted adjacency lists in CSR form, each sorted by target id unless
/// SortListsByWeight reordered them. Immutable but for that reorder.
class Csr {
 public:
  Csr() = default;

  /// The lists of `arcs` over num_vertices vertices. The arcs must be
  /// strictly increasing in kArcOrder, with every endpoint below
  /// num_vertices, so each list comes out sorted by target id. `keep_vias`
  /// controls whether the via array is materialized. O(|V| + |A|).
  static Csr FromSortedArcs(std::span<const Arc> arcs, VertexId num_vertices,
                            bool keep_vias) {
    Csr c;
    c.offsets_.assign(static_cast<std::size_t>(num_vertices) + 1, 0);
    c.targets_.resize(arcs.size());
    c.weights_.resize(arcs.size());
    if (keep_vias) c.vias_.resize(arcs.size());
    for (std::size_t i = 0; i < arcs.size(); ++i) {
      ISLABEL_DCHECK(i == 0 || kArcOrder(arcs[i - 1], arcs[i]))
          << "arc " << i << " is out of (from, to) order";
      ++c.offsets_[arcs[i].from + 1];
      c.targets_[i] = arcs[i].to;
      c.weights_[i] = arcs[i].w;
      if (keep_vias) c.vias_[i] = arcs[i].via;
    }
    for (std::size_t i = 1; i < c.offsets_.size(); ++i) {
      c.offsets_[i] += c.offsets_[i - 1];
    }
    return c;
  }

  VertexId NumVertices() const {
    return offsets_.empty() ? 0 : static_cast<VertexId>(offsets_.size() - 1);
  }
  /// Entries over all lists.
  std::uint64_t NumArcs() const { return targets_.size(); }

  std::uint32_t Degree(VertexId v) const {
    return static_cast<std::uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  /// Target ids of v's list: ascending, or in ascending weight (ties by
  /// id) after SortListsByWeight.
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

  /// Weight of the entry v in u's list, or kInfDistance if absent (binary
  /// search, O(log deg)). u's list must be in target-id order: a lookup on
  /// a weight-ordered list fails an ISLABEL_DCHECK.
  Distance ArcWeight(VertexId u, VertexId v) const {
    const auto nbrs = Neighbors(u);
    ISLABEL_DCHECK(std::is_sorted(nbrs.begin(), nbrs.end()))
        << "id lookup in vertex " << u << "'s list, which is not id-ordered";
    const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
    if (it == nbrs.end() || *it != v) return kInfDistance;
    return NeighborWeights(u)[static_cast<std::size_t>(it - nbrs.begin())];
  }

  /// Reorders every list by (weight, target id), each entry keeping its
  /// weight and via. Binary searches by id (ArcWeight) are then invalid.
  /// O(|A| log max degree), through one scratch buffer for all lists.
  void SortListsByWeight() {
    // One (w << 32 | to) key per entry orders by (weight, id) in a single
    // integer compare; the via rides along. A list names a target once,
    // so the keys are distinct and the order is total.
    static_assert(sizeof(Weight) == 4 && sizeof(VertexId) == 4);
    std::vector<std::pair<std::uint64_t, VertexId>> list;
    for (VertexId v = 0; v < NumVertices(); ++v) {
      const std::uint64_t begin = offsets_[v], end = offsets_[v + 1];
      list.clear();
      for (std::uint64_t i = begin; i < end; ++i) {
        list.emplace_back((std::uint64_t{weights_[i]} << 32) | targets_[i],
                          has_vias() ? vias_[i] : kInvalidVertex);
      }
      std::sort(list.begin(), list.end(), [](const auto& a, const auto& b) {
        return a.first < b.first;
      });
      for (std::uint64_t i = begin; i < end; ++i) {
        const auto& [key, via] = list[i - begin];
        weights_[i] = static_cast<Weight>(key >> 32);
        targets_[i] = static_cast<VertexId>(key);
        if (has_vias()) vias_[i] = via;
      }
    }
  }

  /// Approximate heap footprint, used to report index/graph sizes.
  std::uint64_t MemoryBytes() const {
    return offsets_.size() * sizeof(std::uint64_t) +
           targets_.size() * sizeof(VertexId) +
           weights_.size() * sizeof(Weight) + vias_.size() * sizeof(VertexId);
  }

 protected:
  std::vector<std::uint64_t> offsets_;  // size NumVertices()+1
  std::vector<VertexId> targets_;       // size NumArcs()
  std::vector<Weight> weights_;         // size NumArcs()
  std::vector<VertexId> vias_;          // size NumArcs() or 0
};

}  // namespace islabel

#endif  // ISLABEL_GRAPH_CSR_H_
