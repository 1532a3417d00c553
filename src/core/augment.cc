#include "core/augment.h"

#include <algorithm>
#include <limits>

#include "util/bit_vector.h"

namespace islabel {

Status DropVertices(LevelGraph* g, const std::vector<VertexId>& removed,
                    const std::vector<std::vector<HierEdge>>& named_by) {
  BitVector in_removed(static_cast<VertexId>(g->adj.size()));
  for (VertexId v : removed) in_removed.Set(v);

  // Line 2 of Algorithm 3: delete the removed vertices and their incident
  // edges. A filter pass over each surviving list preserves sort order.
  for (VertexId v : removed) {
    if (!g->alive[v]) {
      return Status::FailedPrecondition("removing a dead vertex");
    }
    g->adj[v].clear();
    g->adj[v].shrink_to_fit();
    g->alive.Clear(v);
  }
  g->num_alive -= removed.size();
  // Only lists that name a removed vertex need filtering; find them from
  // `named_by` rather than scanning every list.
  for (VertexId v : removed) {
    for (const HierEdge& e : named_by[v]) {
      if (in_removed[e.to]) {
        return Status::FailedPrecondition(
            "removed set is not independent: edge inside L_i");
      }
      auto& list = g->adj[e.to];
      std::size_t out = 0;
      for (std::size_t i = 0; i < list.size(); ++i) {
        if (!in_removed[list[i].to]) list[out++] = list[i];
      }
      list.resize(out);
    }
  }
  return Status::OK();
}

Status EmitAugmentingArcs(const std::vector<VertexId>& removed,
                          const std::vector<std::vector<HierEdge>>& in,
                          const std::vector<std::vector<HierEdge>>& out,
                          std::vector<EaRecord>* ea) {
  // Lines 3-6: the 2-hop self-join producing EA.
  for (VertexId v : removed) {
    for (const HierEdge& from : in[v]) {
      for (const HierEdge& to : out[v]) {
        if (from.to == to.to) continue;  // no self-loop u -> u
        const std::uint64_t wide = static_cast<std::uint64_t>(from.w) + to.w;
        if (wide > std::numeric_limits<Weight>::max()) {
          return Status::OutOfRange(
              "augmenting edge weight overflows the Weight type");
        }
        ea->push_back({from.to, to.to, static_cast<Weight>(wide), v});
      }
    }
  }
  return Status::OK();
}

AugmentStats MergeAugmentingArcs(std::vector<EaRecord>* records,
                                 LevelGraph* g) {
  AugmentStats stats;
  std::vector<EaRecord>& ea = *records;

  // Line 7: sort EA by vertex ids (weight as tiebreak so the min-weight
  // copy of duplicate pairs comes first).
  std::sort(ea.begin(), ea.end(), [](const EaRecord& a, const EaRecord& b) {
    if (a.src != b.src) return a.src < b.src;
    if (a.dst != b.dst) return a.dst < b.dst;
    if (a.w != b.w) return a.w < b.w;
    // Deterministic tie-break among equal-weight duplicates so that the
    // surviving via vertex is pipeline-independent.
    return a.via < b.via;
  });

  // Collapse duplicate (src, dst) records; the sort put the minimum-weight
  // copy first, so keeping the first occurrence applies the min() rule.
  ea.erase(std::unique(ea.begin(), ea.end(),
                       [](const EaRecord& a, const EaRecord& b) {
                         return a.src == b.src && a.dst == b.dst;
                       }),
           ea.end());

  // Line 8: merge EA into the (sorted) adjacency lists, keeping the smaller
  // weight for duplicates. Process one source vertex's run at a time.
  std::size_t pos = 0;
  std::vector<HierEdge> merged;
  while (pos < ea.size()) {
    const VertexId src = ea[pos].src;
    std::size_t end = pos;
    while (end < ea.size() && ea[end].src == src) ++end;

    auto& list = g->adj[src];
    merged.clear();
    merged.reserve(list.size() + (end - pos));
    std::size_t li = 0;
    std::size_t ei = pos;
    while (li < list.size() || ei < end) {
      if (ei >= end || (li < list.size() && list[li].to < ea[ei].dst)) {
        merged.push_back(list[li++]);
      } else if (li >= list.size() || ea[ei].dst < list[li].to) {
        merged.emplace_back(ea[ei].dst, ea[ei].w, ea[ei].via);
        ++stats.edges_inserted;
        ++ei;
      } else {
        // Same target: keep the smaller weight (and its via).
        if (ea[ei].w < list[li].w) {
          merged.emplace_back(ea[ei].dst, ea[ei].w, ea[ei].via);
          ++stats.weights_lowered;
        } else {
          merged.push_back(list[li]);
        }
        ++li;
        ++ei;
      }
    }
    list.swap(merged);
    pos = end;
  }
  return stats;
}

Result<AugmentStats> AugmentInPlace(
    LevelGraph* g, const std::vector<VertexId>& removed,
    const std::vector<std::vector<HierEdge>>& removed_adj) {
  ISLABEL_RETURN_IF_ERROR(DropVertices(g, removed, removed_adj));
  std::vector<EaRecord> ea;
  ISLABEL_RETURN_IF_ERROR(
      EmitAugmentingArcs(removed, removed_adj, removed_adj, &ea));
  AugmentStats stats = MergeAugmentingArcs(&ea, g);
  // Each edge arrives as both of its arcs, which the symmetric lists
  // treat alike.
  stats.edges_inserted /= 2;
  stats.weights_lowered /= 2;
  return stats;
}

}  // namespace islabel
