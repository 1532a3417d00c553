#include "core/directed.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>

#include "core/labeling.h"
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
    auto outs = g.out().Neighbors(v);
    auto ow = g.out().NeighborWeights(v);
    for (std::size_t i = 0; i < outs.size(); ++i) {
      lg.out[v].emplace_back(outs[i], ow[i]);
    }
    auto ins = g.in().Neighbors(v);
    auto iw = g.in().NeighborWeights(v);
    for (std::size_t i = 0; i < ins.size(); ++i) {
      lg.in[v].emplace_back(ins[i], iw[i]);
    }
  }

  auto h = std::make_unique<VertexHierarchy>();
  h->level.assign(n, 0);
  std::vector<std::vector<HierEdge>> removed_out(n), removed_in(n);
  std::vector<std::vector<VertexId>> levels;
  levels.push_back({});
  Rng rng(options.seed);

  std::uint64_t prev_size = lg.SizeVE();
  std::uint32_t i = 1;
  while (true) {
    const std::uint64_t cur_size = lg.SizeVE();
    if (options.StopsAtLevel(i, cur_size, prev_size, lg.num_alive)) {
      h->k = i;
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
      h->level[v] = i;
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
    if (lg.alive[v]) h->level[v] = h->k;
  }

  // Residual directed core, numbered by the undirected index's BFS rule
  // over its out-lists and stored over the dense ids, every list sorted by
  // weight for the search (DESIGN §7.5). Every list of lg.out is sorted by
  // head (FilterList keeps the order, MergeArcs merges), so the arcs come
  // out sorted by (from, to).
  std::vector<Arc> core_arcs;
  for (VertexId v = 0; v < n; ++v) {
    for (const HierEdge& e : lg.out[v]) core_arcs.emplace_back(v, e.to, e.w);
  }
  h->NumberCore(Csr::FromSortedArcs(core_arcs, n, /*keep_vias=*/false));
  for (Arc& a : core_arcs) {
    a.from = h->core_id[a.from];
    a.to = h->core_id[a.to];
  }
  DirectedISLabel idx;
  idx.core_ = std::make_unique<DiGraph>(DiGraph::FromArcs(
      std::move(core_arcs), static_cast<VertexId>(h->core_vertex.size())));
  idx.core_->SortListsByWeight();

  // Top-down labeling, once per direction: Algorithm 4 only reads the
  // level structure and the per-vertex DAG adjacency, so each direction is
  // a plain ComputeLabelsTopDown over the hierarchy with removed_adj set to
  // that direction's arc set — the directed path gets the arena layout,
  // the level-parallel builder, and the deterministic (dist, via) tiebreak
  // for free.
  h->levels = std::move(levels);
  h->removed_adj = std::move(removed_out);
  idx.out_labels_ = std::make_unique<LabelArena>(
      ComputeLabelsTopDown(*h, nullptr, options.num_threads));
  h->removed_adj = std::move(removed_in);
  idx.in_labels_ = std::make_unique<LabelArena>(
      ComputeLabelsTopDown(*h, nullptr, options.num_threads));
  h->removed_adj.clear();
  idx.hierarchy_ = std::move(h);
  idx.pool_ = std::make_unique<QueryEnginePool>(
      idx.hierarchy_.get(),
      SearchSide{LabelProvider(idx.out_labels_.get()), &idx.core_->out()},
      SearchSide{LabelProvider(idx.in_labels_.get()), &idx.core_->in()});
  return idx;
}

std::uint64_t DirectedISLabel::TotalLabelEntries() const {
  return out_labels_->TotalEntries() + in_labels_->TotalEntries();
}

Status DirectedISLabel::Query(VertexId s, VertexId t, Distance* out) const {
  if (pool_ == nullptr) return Status::FailedPrecondition("index not built");
  QueryEnginePool::Lease engine = pool_->Acquire();
  return engine->Query(s, t, out);
}

Status DirectedISLabel::Reachable(VertexId s, VertexId t, bool* out) const {
  Distance d = kInfDistance;
  ISLABEL_RETURN_IF_ERROR(Query(s, t, &d));
  *out = (d != kInfDistance);
  return Status::OK();
}

}  // namespace islabel
