#include "core/directed.h"

#include <memory>
#include <utility>

#include "core/augment.h"
#include "core/independent_set.h"
#include "core/labeling.h"
#include "core/level_graph.h"
#include "util/random.h"

namespace islabel {

Result<DirectedISLabel> DirectedISLabel::Build(const DiGraph& g,
                                               const IndexOptions& options) {
  ISLABEL_RETURN_IF_ERROR(options.Validate());
  const VertexId n = g.NumVertices();

  // G_i as two level graphs over one vertex set: out.adj[v] holds the
  // heads of v's out-arcs, in.adj[v] the tails of its in-arcs.
  LevelGraph out = LevelGraph::FromGraph(g.out());
  LevelGraph in = LevelGraph::FromGraph(g.in());

  auto h = std::make_unique<VertexHierarchy>();
  h->level.assign(n, 0);
  h->levels.push_back({});  // index 0 unused: levels are 1-based
  std::vector<std::vector<HierEdge>> removed_out(n), removed_in(n);
  Rng rng(options.seed);

  // |G| = |V| + |A| (§8.2).
  const auto size = [&out] { return out.num_alive + out.CountArcs(); };
  std::uint64_t prev_size = size();
  std::uint32_t i = 1;
  while (true) {
    const std::uint64_t cur_size = size();
    if (options.StopsAtLevel(i, cur_size, prev_size, out.num_alive)) {
      h->k = i;
      break;
    }

    // The undirected Algorithms 2 and 3 over both arc directions: the set
    // is independent in out and in, and each directed 2-path u -> v -> w
    // over a removed v becomes the arc u -> w, stored in u's out-list and
    // in w's in-list.
    std::vector<VertexId> li =
        ComputeIndependentSet({&out, &in}, options.is_order, &rng);
    for (VertexId v : li) {
      h->level[v] = i;
      removed_out[v] = std::move(out.adj[v]);
      removed_in[v] = std::move(in.adj[v]);
    }
    // v's in-neighbors name it in their out-lists, its out-neighbors in
    // their in-lists.
    ISLABEL_RETURN_IF_ERROR(DropVertices(&out, li, removed_in));
    ISLABEL_RETURN_IF_ERROR(DropVertices(&in, li, removed_out));
    std::vector<EaRecord> ea;
    ISLABEL_RETURN_IF_ERROR(EmitAugmentingArcs(li, removed_in, removed_out,
                                               &ea));
    MergeAugmentingArcs(&ea, &out);
    for (EaRecord& r : ea) std::swap(r.src, r.dst);
    MergeAugmentingArcs(&ea, &in);

    h->levels.push_back(std::move(li));
    prev_size = cur_size;
    ++i;
  }

  for (VertexId v = 0; v < n; ++v) {
    if (out.alive[v]) h->level[v] = h->k;
  }

  // Residual directed core, numbered by the undirected index's BFS rule
  // over its out-lists and stored over the dense ids, every list sorted by
  // weight for the search (DESIGN §7.5). Every out-list is sorted by head
  // (DropVertices keeps the order, MergeAugmentingArcs merges), so the
  // arcs come out sorted by (from, to).
  std::vector<Arc> core_arcs;
  for (VertexId v = 0; v < n; ++v) {
    for (const HierEdge& e : out.adj[v]) core_arcs.emplace_back(v, e.to, e.w);
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
  h->removed_adj = std::move(removed_out);
  idx.out_labels_ = std::make_unique<LabelArena>(
      ComputeLabelsTopDown(*h, nullptr, options.num_threads));
  h->removed_adj = std::move(removed_in);
  idx.in_labels_ = std::make_unique<LabelArena>(
      ComputeLabelsTopDown(*h, nullptr, options.num_threads));
  h->ReleaseDag();
  idx.hierarchy_ = std::move(h);
  const VertexHierarchy* hierarchy = idx.hierarchy_.get();
  const SearchSide forward{LabelProvider(idx.out_labels_.get()),
                           &idx.core_->out()};
  const SearchSide reverse{LabelProvider(idx.in_labels_.get()),
                           &idx.core_->in()};
  idx.pool_ = std::make_unique<QueryEnginePool>([hierarchy, forward, reverse] {
    return std::make_unique<QueryEngine>(hierarchy, forward, reverse);
  });
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
