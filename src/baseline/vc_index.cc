#include "baseline/vc_index.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <utility>

namespace islabel {

Result<VcIndex> VcIndex::Build(const Graph& g) {
  IndexOptions options;
  options.keep_vias = false;
  ISLABEL_ASSIGN_OR_RETURN(VertexHierarchy h, BuildHierarchy(g, options));
  VcIndex idx;
  idx.top_graph_ = h.GlobalCore();
  idx.top_vertices_ = h.core_vertex.size();
  idx.num_levels_ = h.k;
  idx.level_ = std::move(h.level);
  idx.removed_adj_ = std::move(h.removed_adj);
  idx.waves_ = std::move(h.levels);
  return idx;
}

std::uint64_t VcIndex::SizeBytes() const {
  std::uint64_t bytes = level_.size() * sizeof(std::uint32_t);
  for (const auto& adj : removed_adj_) bytes += adj.size() * sizeof(HierEdge);
  bytes += top_graph_.MemoryBytes();
  return bytes;
}

std::uint64_t VcIndex::Search(VertexId s, VertexId t) {
  const VertexId n = static_cast<VertexId>(level_.size());
  // Fresh scratch at the first query and before the epoch would wrap: a
  // stamp is valid by equality, so no epoch value may come round again
  // while stamps from its last use survive.
  if (dist_.size() != n ||
      epoch_ == std::numeric_limits<std::uint32_t>::max()) {
    dist_.assign(n, kInfDistance);
    stamp_.assign(n, 0);
    popped_.assign(n, 0);
    bucket_.assign(num_levels_ + 1, {});
    epoch_ = 0;
  }
  const std::uint32_t epoch = ++epoch_;
  std::uint64_t touched = 0;
  auto relax = [&](VertexId v, Distance d) {
    if (d < DistOf(v)) {
      dist_[v] = d;
      stamp_[v] = epoch;
      return true;
    }
    return false;
  };

  // Phase 1: lift s through the removal DAG (offsets = shortest strictly
  // level-increasing walks from s). Levels are a topological order.
  for (auto& b : bucket_) b.clear();
  relax(s, 0);
  bucket_[level_[s]].push_back(s);
  for (std::uint32_t lvl = level_[s]; lvl < num_levels_; ++lvl) {
    for (std::size_t bi = 0; bi < bucket_[lvl].size(); ++bi) {
      const VertexId v = bucket_[lvl][bi];
      ++touched;
      for (const HierEdge& e : removed_adj_[v]) {
        // Push on improvement; duplicates re-expand harmlessly since a
        // vertex's value is final once its level's turn arrives.
        if (relax(e.to, DistOf(v) + e.w)) {
          bucket_[level_[e.to]].push_back(e.to);
        }
      }
    }
  }

  // Phase 2: multi-source Dijkstra on the top graph (early exit only when
  // t itself lives there).
  const auto later = std::greater<std::pair<Distance, VertexId>>();
  heap_.clear();
  for (VertexId v : bucket_[num_levels_]) {
    heap_.emplace_back(DistOf(v), v);
    std::push_heap(heap_.begin(), heap_.end(), later);
  }
  const bool t_on_top = t != kInvalidVertex && level_[t] == num_levels_;
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const auto [d, v] = heap_.back();
    heap_.pop_back();
    if (popped_[v] == epoch || d != DistOf(v)) continue;
    popped_[v] = epoch;
    ++touched;
    if (t_on_top && v == t) return touched;
    auto nbrs = top_graph_.Neighbors(v);
    auto ws = top_graph_.NeighborWeights(v);
    for (std::size_t j = 0; j < nbrs.size(); ++j) {
      if (relax(nbrs[j], d + ws[j])) {
        heap_.emplace_back(d + ws[j], nbrs[j]);
        std::push_heap(heap_.begin(), heap_.end(), later);
      }
    }
  }
  if (t_on_top) return touched;

  // Phase 3: sweep distances down, one whole level at a time, stopping at
  // t's level — the P2P conversion of §7.3. Every vertex of every swept
  // level is touched, which is the "wasted computation" the comparison
  // quantifies.
  const std::uint32_t last = t == kInvalidVertex ? 1 : level_[t];
  for (std::uint32_t lvl = num_levels_; lvl-- > last;) {
    for (VertexId w : waves_[lvl]) {
      ++touched;
      Distance best = DistOf(w);  // lift offset, if any
      for (const HierEdge& e : removed_adj_[w]) {
        const Distance du = DistOf(e.to);
        if (du != kInfDistance) best = std::min(best, du + e.w);
      }
      if (best != kInfDistance) relax(w, best);
    }
  }
  return touched;
}

Distance VcIndex::QueryP2P(VertexId s, VertexId t, std::uint64_t* settled) {
  const VertexId n = static_cast<VertexId>(level_.size());
  if (s >= n || t >= n) return kInfDistance;
  if (s == t) return 0;
  const std::uint64_t touched = Search(s, t);
  if (settled != nullptr) *settled = touched;
  return DistOf(t);
}

std::vector<Distance> VcIndex::Sssp(VertexId s) {
  const VertexId n = static_cast<VertexId>(level_.size());
  std::vector<Distance> out(n, kInfDistance);
  if (s >= n) return out;
  Search(s, kInvalidVertex);
  for (VertexId v = 0; v < n; ++v) out[v] = DistOf(v);
  return out;
}

}  // namespace islabel
