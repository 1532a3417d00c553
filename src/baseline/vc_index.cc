#include "baseline/vc_index.h"

#include <algorithm>
#include <queue>
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

Distance VcIndex::QueryP2P(VertexId s, VertexId t, std::uint64_t* settled) {
  const VertexId n = static_cast<VertexId>(level_.size());
  if (s >= n || t >= n) return kInfDistance;
  if (s == t) return 0;

  if (dist_.size() != n) {
    dist_.assign(n, kInfDistance);
    stamp_.assign(n, 0);
  }
  ++epoch_;
  const std::uint32_t epoch = epoch_;
  std::uint64_t touched = 0;

  auto get = [&](VertexId v) -> Distance {
    return stamp_[v] == epoch ? dist_[v] : kInfDistance;
  };
  auto relax = [&](VertexId v, Distance d) {
    if (d < get(v)) {
      dist_[v] = d;
      stamp_[v] = epoch;
      return true;
    }
    return false;
  };

  // Phase 1: lift s through the removal DAG (offsets = shortest strictly
  // level-increasing walks from s). Levels are a topological order.
  std::vector<std::vector<VertexId>> bucket(num_levels_ + 1);
  relax(s, 0);
  bucket[level_[s]].push_back(s);
  for (std::uint32_t lvl = level_[s]; lvl < num_levels_; ++lvl) {
    for (std::size_t bi = 0; bi < bucket[lvl].size(); ++bi) {
      const VertexId v = bucket[lvl][bi];
      ++touched;
      for (const HierEdge& e : removed_adj_[v]) {
        // Push on improvement; duplicates re-expand harmlessly since a
        // vertex's value is final once its level's turn arrives.
        if (relax(e.to, get(v) + e.w)) bucket[level_[e.to]].push_back(e.to);
      }
    }
  }

  // Phase 2: multi-source Dijkstra on the top graph (early exit only when
  // t itself lives there).
  using PqEntry = std::pair<Distance, VertexId>;
  std::priority_queue<PqEntry, std::vector<PqEntry>, std::greater<PqEntry>>
      pq;
  for (VertexId v : bucket[num_levels_]) pq.push({get(v), v});
  const bool t_on_top = (level_[t] == num_levels_);
  std::vector<bool> popped(n, false);
  while (!pq.empty()) {
    const auto [d, v] = pq.top();
    pq.pop();
    if (popped[v] || d != get(v)) continue;
    popped[v] = true;
    ++touched;
    if (t_on_top && v == t) {
      if (settled != nullptr) *settled = touched;
      return d;
    }
    auto nbrs = top_graph_.Neighbors(v);
    auto ws = top_graph_.NeighborWeights(v);
    for (std::size_t j = 0; j < nbrs.size(); ++j) {
      if (relax(nbrs[j], d + ws[j])) pq.push({d + ws[j], nbrs[j]});
    }
  }
  if (t_on_top) {
    if (settled != nullptr) *settled = touched;
    return get(t);
  }

  // Phase 3: sweep distances down, one whole level at a time, stopping at
  // t's level — the P2P conversion of §7.3. Every vertex of every swept
  // level is touched, which is the "wasted computation" the comparison
  // quantifies.
  for (std::uint32_t lvl = num_levels_; lvl-- > level_[t];) {
    if (lvl == 0) break;
    for (VertexId w : waves_[lvl]) {
      ++touched;
      Distance best = get(w);  // lift offset, if any
      for (const HierEdge& e : removed_adj_[w]) {
        const Distance du = get(e.to);
        if (du != kInfDistance) best = std::min(best, du + e.w);
      }
      if (best != kInfDistance) relax(w, best);
    }
  }
  if (settled != nullptr) *settled = touched;
  return get(t);
}

std::vector<Distance> VcIndex::Sssp(VertexId s) {
  const VertexId n = static_cast<VertexId>(level_.size());
  std::vector<Distance> out(n, kInfDistance);
  if (s >= n) return out;
  // Reuse the P2P machinery's phases by querying down to level 1: pick any
  // target at level 1 if one exists; otherwise t = s (the sweep below still
  // fills everything because we force a full sweep here).
  // Simpler: replicate the phases inline with a full sweep.
  if (dist_.size() != n) {
    dist_.assign(n, kInfDistance);
    stamp_.assign(n, 0);
  }
  ++epoch_;
  const std::uint32_t epoch = epoch_;
  auto get = [&](VertexId v) -> Distance {
    return stamp_[v] == epoch ? dist_[v] : kInfDistance;
  };
  auto relax = [&](VertexId v, Distance d) {
    if (d < get(v)) {
      dist_[v] = d;
      stamp_[v] = epoch;
      return true;
    }
    return false;
  };

  std::vector<std::vector<VertexId>> bucket(num_levels_ + 1);
  relax(s, 0);
  bucket[level_[s]].push_back(s);
  for (std::uint32_t lvl = level_[s]; lvl < num_levels_; ++lvl) {
    for (std::size_t bi = 0; bi < bucket[lvl].size(); ++bi) {
      const VertexId v = bucket[lvl][bi];
      for (const HierEdge& e : removed_adj_[v]) {
        // Push on improvement; duplicates re-expand harmlessly since a
        // vertex's value is final once its level's turn arrives.
        if (relax(e.to, get(v) + e.w)) bucket[level_[e.to]].push_back(e.to);
      }
    }
  }
  using PqEntry = std::pair<Distance, VertexId>;
  std::priority_queue<PqEntry, std::vector<PqEntry>, std::greater<PqEntry>>
      pq;
  for (VertexId v : bucket[num_levels_]) pq.push({get(v), v});
  std::vector<bool> popped(n, false);
  while (!pq.empty()) {
    const auto [d, v] = pq.top();
    pq.pop();
    if (popped[v] || d != get(v)) continue;
    popped[v] = true;
    auto nbrs = top_graph_.Neighbors(v);
    auto ws = top_graph_.NeighborWeights(v);
    for (std::size_t j = 0; j < nbrs.size(); ++j) {
      if (relax(nbrs[j], d + ws[j])) pq.push({d + ws[j], nbrs[j]});
    }
  }
  for (std::uint32_t lvl = num_levels_; lvl-- >= 1;) {
    if (lvl == 0) break;
    for (VertexId w : waves_[lvl]) {
      Distance best = get(w);
      for (const HierEdge& e : removed_adj_[w]) {
        const Distance du = get(e.to);
        if (du != kInfDistance) best = std::min(best, du + e.w);
      }
      if (best != kInfDistance) relax(w, best);
    }
  }
  for (VertexId v = 0; v < n; ++v) out[v] = get(v);
  return out;
}

}  // namespace islabel
