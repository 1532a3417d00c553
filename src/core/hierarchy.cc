#include "core/hierarchy.h"

#include <algorithm>
#include <utility>

#include "baseline/dijkstra.h"
#include "core/augment.h"
#include "core/independent_set.h"
#include "core/level_graph.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/random.h"

namespace islabel {

// Defined in hierarchy_external.cc: the I/O-efficient pipeline (§6.1).
Result<VertexHierarchy> BuildHierarchyExternal(const Graph& g,
                                               const IndexOptions& options);

namespace {

Result<VertexHierarchy> BuildHierarchyInMemory(const Graph& g,
                                               const IndexOptions& options) {
  const VertexId n = g.NumVertices();
  VertexHierarchy h;
  h.level.assign(n, 0);
  h.removed_adj.resize(n);
  h.levels.push_back({});  // index 0 unused: levels are 1-based

  LevelGraph lg = LevelGraph::FromGraph(g);
  Rng rng(options.seed);

  std::uint64_t prev_size = lg.SizeVE();
  std::uint32_t i = 1;
  while (true) {
    const std::uint64_t cur_edges = lg.CountEdges();
    const std::uint64_t cur_size = lg.num_alive + cur_edges;

    LevelStats ls;
    ls.num_vertices = lg.num_alive;
    ls.num_edges = cur_edges;

    // Termination (§5.1): forced k, the σ shrinkage criterion or
    // exhaustion.
    if (options.StopsAtLevel(i, cur_size, prev_size, lg.num_alive)) {
      h.k = i;
      h.stats.push_back(ls);
      break;
    }

    std::vector<VertexId> li =
        ComputeIndependentSet({&lg}, options.is_order, &rng);
    ls.is_size = li.size();

    // Snapshot ADJ(L_i) — both the labeling input and what Algorithm 3
    // joins on.
    for (VertexId v : li) {
      h.level[v] = i;
      h.removed_adj[v] = std::move(lg.adj[v]);
    }
    ISLABEL_RETURN_IF_ERROR(AugmentInPlace(&lg, li, h.removed_adj).status());

    h.levels.push_back(std::move(li));
    h.stats.push_back(ls);
    prev_size = cur_size;
    ++i;
  }

  // Residual vertices form V_{G_k} with level number k (§5.1).
  for (VertexId v = 0; v < n; ++v) {
    if (lg.alive[v]) h.level[v] = h.k;
  }
  h.SetCore(lg.ToGraph(options.keep_vias));
  return h;
}

// The landmark table of `g_k` (DESIGN §7.6): its min(kLandmarks, |G_k|)
// highest-degree vertices, ties to the lower dense id, and one row per
// dense id of G_k distances to them. Each landmark's Dijkstra writes its
// own column buffer, so the rows are filled after the parallel part.
std::vector<LandmarkRow> ComputeLandmarkTable(const Graph& g_k) {
  const VertexId n = g_k.NumVertices();
  std::vector<std::pair<std::uint32_t, VertexId>> by_degree;  // (~degree, id)
  by_degree.reserve(n);
  for (VertexId c = 0; c < n; ++c) by_degree.emplace_back(~g_k.Degree(c), c);
  const std::size_t count = std::min<std::size_t>(kLandmarks, n);
  std::partial_sort(by_degree.begin(), by_degree.begin() + count,
                    by_degree.end());

  std::vector<std::vector<Distance>> columns(count);
  ParallelFor(count, /*num_threads=*/0, [&](std::size_t j) {
    columns[j] = DijkstraSssp(g_k, by_degree[j].second).dist;
  });

  std::vector<LandmarkRow> rows(n);
  for (VertexId c = 0; c < n; ++c) {
    for (std::size_t j = 0; j < kLandmarks; ++j) {
      rows[c].dist[j] =
          j < count ? static_cast<std::uint32_t>(std::min<Distance>(
                          columns[j][c], kLandmarkFar))
                    : kLandmarkFar;
    }
  }
  return rows;
}

}  // namespace

void VertexHierarchy::NumberCore(const Csr& core) {
  const VertexId n = NumVertices();
  const auto degree = [&](VertexId v) {
    return v < core.NumVertices() ? core.Degree(v) : 0u;
  };
  // Core vertices by descending degree, ties by id: the first unvisited
  // one is always the highest-degree vertex of a component not yet
  // numbered, so BFS roots come out in descending root degree.
  std::vector<std::pair<std::uint32_t, VertexId>> roots;  // (~degree, id)
  for (VertexId v = 0; v < n; ++v) {
    if (level[v] == k) roots.emplace_back(~degree(v), v);
  }
  std::sort(roots.begin(), roots.end());

  core_id.assign(n, kInvalidVertex);
  core_vertex.clear();
  core_vertex.reserve(roots.size());
  for (const auto& entry : roots) {
    const VertexId root = entry.second;
    if (core_id[root] != kInvalidVertex) continue;
    core_id[root] = static_cast<VertexId>(core_vertex.size());
    core_vertex.push_back(root);
    // core_vertex doubles as the BFS queue: ids are handed out on enqueue.
    for (std::size_t head = core_vertex.size() - 1; head < core_vertex.size();
         ++head) {
      const VertexId v = core_vertex[head];
      if (degree(v) == 0) continue;
      for (const VertexId u : core.Neighbors(v)) {
        if (core_id[u] != kInvalidVertex || level[u] != k) continue;
        core_id[u] = static_cast<VertexId>(core_vertex.size());
        core_vertex.push_back(u);
      }
    }
  }

  for (VertexId v = 0; v < core.NumVertices(); ++v) {
    for (const VertexId u : core.Neighbors(v)) {
      ISLABEL_DCHECK(core_id[v] != kInvalidVertex &&
                     core_id[u] != kInvalidVertex)
          << "G_k edge (" << v << ", " << u << ") leaves level " << k;
    }
  }
  for (VertexId c = 0; c < core_vertex.size(); ++c) {
    ISLABEL_DCHECK(core_id[core_vertex[c]] == c) << "dense id " << c;
  }
}

void VertexHierarchy::SetCore(const Graph& core) {
  NumberCore(core);
  g_k = core.Renumbered(core_id, core_vertex);
  g_k.SortListsByWeight();
  landmarks = ComputeLandmarkTable(g_k);
}

Graph VertexHierarchy::GlobalCore() const {
  return g_k.Renumbered(core_vertex, core_id);
}

void VertexHierarchy::ReleaseDag() {
  // Move-assigning empty vectors frees the storage; clear() would keep the
  // outer arrays' capacity.
  removed_adj = std::vector<std::vector<HierEdge>>();
  levels = std::vector<std::vector<VertexId>>();
}

Result<VertexHierarchy> BuildHierarchy(const Graph& g,
                                       const IndexOptions& options) {
  ISLABEL_RETURN_IF_ERROR(options.Validate());
  if (options.memory_budget_bytes != 0) {
    return BuildHierarchyExternal(g, options);
  }
  return BuildHierarchyInMemory(g, options);
}

}  // namespace islabel
