#include "core/directed.h"

#include <algorithm>
#include <limits>

#include "core/label.h"
#include "core/search_order.h"
#include "util/bit_vector.h"
#include "util/random.h"

namespace islabel {

namespace {

// Mutable directed working graph for the hierarchy construction.
struct DiLevelGraph {
  std::vector<std::vector<HierEdge>> out;  // arcs v -> e.to
  std::vector<std::vector<HierEdge>> in;   // arcs e.to -> v (stored on v)
  BitVector alive;
  std::uint64_t num_alive = 0;

  std::uint64_t CountArcs() const {
    std::uint64_t a = 0;
    for (const auto& l : out) a += l.size();
    return a;
  }
  std::uint64_t SizeVE() const { return num_alive + CountArcs(); }
};

void FilterList(std::vector<HierEdge>* list, const BitVector& drop) {
  std::size_t out = 0;
  for (std::size_t i = 0; i < list->size(); ++i) {
    if (!drop[(*list)[i].to]) (*list)[out++] = (*list)[i];
  }
  list->resize(out);
}

// Sorted-merge of candidate arcs into a sorted adjacency list, min rule.
void MergeArcs(std::vector<HierEdge>* list, std::vector<HierEdge>& add) {
  if (add.empty()) return;
  std::sort(add.begin(), add.end(), [](const HierEdge& a, const HierEdge& b) {
    if (a.to != b.to) return a.to < b.to;
    return a.w < b.w;
  });
  std::vector<HierEdge> merged;
  merged.reserve(list->size() + add.size());
  std::size_t li = 0, ai = 0;
  while (li < list->size() || ai < add.size()) {
    if (ai < add.size() && ai + 1 < add.size() &&
        add[ai].to == add[ai + 1].to) {
      // Duplicate candidates: min-weight copy sorts first, drop the rest.
      add[ai + 1] = add[ai];
      ++ai;
      continue;
    }
    if (ai >= add.size() ||
        (li < list->size() && (*list)[li].to < add[ai].to)) {
      merged.push_back((*list)[li++]);
    } else if (li >= list->size() || add[ai].to < (*list)[li].to) {
      merged.push_back(add[ai++]);
    } else {
      merged.push_back(add[ai].w < (*list)[li].w ? add[ai] : (*list)[li]);
      ++li;
      ++ai;
    }
  }
  list->swap(merged);
}

}  // namespace

Result<DirectedISLabel> DirectedISLabel::Build(const DiGraph& g,
                                               const IndexOptions& options) {
  ISLABEL_RETURN_IF_ERROR(options.Validate());
  const VertexId n = g.NumVertices();

  DiLevelGraph lg;
  lg.out.resize(n);
  lg.in.resize(n);
  lg.alive.Resize(n, true);
  lg.num_alive = n;
  for (VertexId v = 0; v < n; ++v) {
    auto outs = g.OutNeighbors(v);
    auto ow = g.OutWeights(v);
    for (std::size_t i = 0; i < outs.size(); ++i) {
      lg.out[v].emplace_back(outs[i], ow[i]);
    }
    auto ins = g.InNeighbors(v);
    auto iw = g.InWeights(v);
    for (std::size_t i = 0; i < ins.size(); ++i) {
      lg.in[v].emplace_back(ins[i], iw[i]);
    }
  }

  DirectedISLabel idx;
  idx.level_.assign(n, 0);
  std::vector<std::vector<HierEdge>> removed_out(n), removed_in(n);
  std::vector<std::vector<VertexId>> levels;
  levels.push_back({});
  Rng rng(options.seed);

  std::uint64_t prev_size = lg.SizeVE();
  std::uint32_t i = 1;
  while (true) {
    const std::uint64_t cur_size = lg.SizeVE();
    if (options.StopsAtLevel(i, cur_size, prev_size, lg.num_alive)) {
      idx.k_ = i;
      break;
    }

    // Independent set on the underlying undirected structure: combined
    // degree ordering, exclusion over both arc directions.
    std::vector<VertexId> order;
    order.reserve(lg.num_alive);
    for (VertexId v = 0; v < n; ++v) {
      if (lg.alive[v]) order.push_back(v);
    }
    switch (options.is_order) {
      case IsOrder::kMinDegree:
        std::stable_sort(order.begin(), order.end(),
                         [&lg](VertexId a, VertexId b) {
                           return lg.out[a].size() + lg.in[a].size() <
                                  lg.out[b].size() + lg.in[b].size();
                         });
        break;
      case IsOrder::kMaxDegree:
        std::stable_sort(order.begin(), order.end(),
                         [&lg](VertexId a, VertexId b) {
                           return lg.out[a].size() + lg.in[a].size() >
                                  lg.out[b].size() + lg.in[b].size();
                         });
        break;
      case IsOrder::kRandom:
        for (std::size_t j = order.size(); j > 1; --j) {
          std::swap(order[j - 1], order[rng.Uniform(j)]);
        }
        break;
    }
    BitVector excluded(n);
    std::vector<VertexId> li;
    for (VertexId v : order) {
      if (excluded[v]) continue;
      li.push_back(v);
      for (const HierEdge& e : lg.out[v]) excluded.Set(e.to);
      for (const HierEdge& e : lg.in[v]) excluded.Set(e.to);
    }
    std::sort(li.begin(), li.end());

    // Remove L_i, snapshot its arcs, create directed augmenting arcs.
    BitVector in_li(n);
    for (VertexId v : li) in_li.Set(v);
    for (VertexId v : li) {
      idx.level_[v] = i;
      removed_out[v] = std::move(lg.out[v]);
      removed_in[v] = std::move(lg.in[v]);
      lg.out[v].clear();
      lg.in[v].clear();
      lg.alive.Clear(v);
    }
    lg.num_alive -= li.size();
    for (VertexId v : li) {
      for (const HierEdge& e : removed_out[v]) FilterList(&lg.in[e.to], in_li);
      for (const HierEdge& e : removed_in[v]) FilterList(&lg.out[e.to], in_li);
    }
    // Augment: u -> v -> w becomes u -> w (u from in-arcs, w from out-arcs).
    std::vector<std::vector<HierEdge>> add_out(n), add_in(n);
    for (VertexId v : li) {
      for (const HierEdge& ein : removed_in[v]) {
        for (const HierEdge& eout : removed_out[v]) {
          if (ein.to == eout.to) continue;  // no self-loop u -> u
          const std::uint64_t wide =
              static_cast<std::uint64_t>(ein.w) + eout.w;
          if (wide > std::numeric_limits<Weight>::max()) {
            return Status::OutOfRange(
                "augmenting arc weight overflows the Weight type");
          }
          const Weight w = static_cast<Weight>(wide);
          add_out[ein.to].emplace_back(eout.to, w, v);
          add_in[eout.to].emplace_back(ein.to, w, v);
        }
      }
    }
    for (VertexId v = 0; v < n; ++v) {
      if (!add_out[v].empty()) MergeArcs(&lg.out[v], add_out[v]);
      if (!add_in[v].empty()) MergeArcs(&lg.in[v], add_in[v]);
    }

    levels.push_back(std::move(li));
    prev_size = cur_size;
    ++i;
  }

  for (VertexId v = 0; v < n; ++v) {
    if (lg.alive[v]) idx.level_[v] = idx.k_;
  }

  // Residual directed core.
  std::vector<Arc> core_arcs;
  for (VertexId v = 0; v < n; ++v) {
    for (const HierEdge& e : lg.out[v]) {
      core_arcs.emplace_back(v, e.to, e.w,
                             options.keep_vias ? e.via : kInvalidVertex);
    }
  }
  idx.gk_ = DiGraph::FromArcs(std::move(core_arcs), n, options.keep_vias);

  // Top-down labeling, once per direction: Algorithm 4 only reads the
  // level structure and the per-vertex DAG adjacency, so each direction is
  // a plain ComputeLabelsTopDown over a hierarchy view whose removed_adj
  // is that direction's arc set — the directed path gets the arena layout,
  // the level-parallel builder, and the deterministic (dist, via) tiebreak
  // for free.
  VertexHierarchy dag;
  dag.level = idx.level_;
  dag.k = idx.k_;
  dag.levels = std::move(levels);
  dag.removed_adj = std::move(removed_out);
  idx.out_labels_ = ComputeLabelsTopDown(dag, nullptr, options.num_threads);
  dag.removed_adj = std::move(removed_in);
  idx.in_labels_ = ComputeLabelsTopDown(dag, nullptr, options.num_threads);
  return idx;
}

std::uint64_t DirectedISLabel::TotalLabelEntries() const {
  return out_labels_.TotalEntries() + in_labels_.TotalEntries();
}

void DirectedISLabel::EnsureScratch() {
  const std::size_t n = level_.size();
  for (auto& side : sides_) {
    if (side.size() != n) side.assign(n, NodeState{});
  }
}

Status DirectedISLabel::Query(VertexId s, VertexId t, Distance* out) {
  const VertexId n = NumVertices();
  if (s >= n || t >= n) return Status::OutOfRange("vertex id out of range");
  if (s == t) {
    *out = 0;
    return Status::OK();
  }

  const LabelView ls = out_labels_.View(s);
  const LabelView lt = in_labels_.View(t);
  const Eq1Result eq1 = EvaluateEq1(ls, lt);

  // Seed extraction into engine-owned buffers, scanning from each label's
  // precomputed first-core cut.
  seeds_[0].clear();
  seeds_[1].clear();
  for (std::size_t i = out_labels_.SeedStart(s); i < ls.size(); ++i) {
    if (InCore(ls[i].node)) seeds_[0].push_back(ls[i]);
  }
  for (std::size_t i = in_labels_.SeedStart(t); i < lt.size(); ++i) {
    if (InCore(lt[i].node)) seeds_[1].push_back(lt[i]);
  }
  if (seeds_[0].empty() || seeds_[1].empty()) {
    *out = eq1.dist;
    return Status::OK();
  }
  *out = BiDijkstra(eq1.dist);
  return Status::OK();
}

Status DirectedISLabel::Reachable(VertexId s, VertexId t, bool* out) {
  Distance d = kInfDistance;
  ISLABEL_RETURN_IF_ERROR(Query(s, t, &d));
  *out = (d != kInfDistance);
  return Status::OK();
}

Distance DirectedISLabel::BiDijkstra(Distance mu) {
  EnsureScratch();
  // Epoch wrap (one in 2^32 queries): stamps compare for exact equality,
  // so an epoch value may not be reused while stale stamps survive —
  // reset the state and restart the counter. Same invariant as
  // QueryEngine::ReserveEpochs (query.cc); kept inline here because this
  // engine's vertex count is fixed at build time (no resize interaction)
  // and it reserves exactly one epoch per query.
  if (++epoch_ == 0) {
    for (auto& side : sides_) side.assign(side.size(), NodeState{});
    epoch_ = 1;
  }
  const std::uint32_t epoch = epoch_;

  auto dist_of = [&](int side, VertexId v) -> Distance {
    const NodeState& node = sides_[side][v];
    return node.stamp == epoch ? node.dist : kInfDistance;
  };

  pq_[0].Clear();
  pq_[1].Clear();
  auto seed = [&](int side) {
    for (const LabelEntry& e : seeds_[side]) {
      if (e.dist < dist_of(side, e.node)) {
        sides_[side][e.node].dist = e.dist;
        sides_[side][e.node].stamp = epoch;
        pq_[side].Push(e.node, e.dist);
      }
    }
  };
  seed(0);
  seed(1);

  Distance best = mu;
  // Lazy deletion: an entry is live exactly when its key is its vertex's
  // stamped distance.
  auto purge = [&](int side) {
    while (!pq_[side].Empty()) {
      const auto [v, d] = pq_[side].PeekMin();
      if (d == dist_of(side, v)) break;
      pq_[side].PopMin();
    }
  };

  while (true) {
    purge(0);
    purge(1);
    const Distance mf =
        pq_[0].Empty() ? kInfDistance : pq_[0].PeekMin().second;
    const Distance mr =
        pq_[1].Empty() ? kInfDistance : pq_[1].PeekMin().second;
    if (SatAdd(mf, mr) >= best) break;
    const int side = SmallerFrontier(pq_[0].Size(), pq_[1].Size());
    const int opp = 1 - side;
    const auto [v, d] = pq_[side].PopMin();
    // Tentative-distance µ update (see query.cc / DESIGN.md).
    best = std::min(best, SatAdd(dist_of(0, v), dist_of(1, v)));
    // Forward explores out-arcs; backward explores in-arcs (i.e., walks
    // arcs against their direction toward t).
    const auto nbrs = side == 0 ? gk_.OutNeighbors(v) : gk_.InNeighbors(v);
    const auto ws = side == 0 ? gk_.OutWeights(v) : gk_.InWeights(v);
    for (std::size_t j = 0; j < nbrs.size(); ++j) {
      const VertexId u = nbrs[j];
      const Distance nd = d + ws[j];
      NodeState& node = sides_[side][u];
      Distance du = node.stamp == epoch ? node.dist : kInfDistance;
      if (nd < du) {
        node.dist = nd;
        node.stamp = epoch;
        pq_[side].Push(u, nd);
        du = nd;
      }
      best = std::min(best, SatAdd(du, dist_of(opp, u)));
    }
  }
  return best;
}

}  // namespace islabel
