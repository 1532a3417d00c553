// Vertex hierarchy (Definition 1 / Definition 4): the layered structure
// (L, G) from which labels are computed, terminated at level k.
//
// Construction (§6.1.3) alternates Algorithm 2 (independent set L_i of G_i)
// and Algorithm 3 (distance-preserving reduction G_{i+1}) until the σ
// criterion of §5.1 fires. What survives construction — and is all the
// labeling and query stages need — is:
//
//   * level[v] = ℓ(v) for every vertex (1..k);
//   * for each removed vertex v (ℓ(v) < k), its adjacency adj_{G_ℓ(v)}(v)
//     *at removal time*, i.e. its out-edges in the ancestor DAG. These are
//     exactly the ADJ(L_i) lists Algorithm 2 emits;
//   * the residual core graph G_k (with augmenting-edge via vertices when
//     path reconstruction is enabled), and beside it a table of G_k
//     distances to a few landmarks, from which the search takes a finite
//     starting µ (DESIGN §7.6).
//
// Only labeling reads the ancestor DAG (removed_adj and the members of
// each L_i); a served index releases it once its labels are computed
// (ReleaseDag) and keeps level, G_k, the landmark table and the core ids.

#ifndef ISLABEL_CORE_HIERARCHY_H_
#define ISLABEL_CORE_HIERARCHY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/options.h"
#include "graph/graph.h"
#include "util/io_stats.h"
#include "util/result.h"

namespace islabel {

/// One out-edge of the ancestor DAG: from a removed vertex v to a
/// higher-level neighbor `to`, with the edge weight in G_{ℓ(v)} and the
/// augmenting-edge intermediate vertex (kInvalidVertex for original edges).
struct HierEdge {
  VertexId to = 0;
  VertexId via = kInvalidVertex;
  Weight w = 1;

  HierEdge() = default;
  HierEdge(VertexId t, Weight ww, VertexId via_v = kInvalidVertex)
      : to(t), via(via_v), w(ww) {}

  friend bool operator==(const HierEdge& a, const HierEdge& b) {
    return a.to == b.to && a.w == b.w && a.via == b.via;
  }
};

/// Per-level construction statistics (the rows behind Tables 3/6/7).
struct LevelStats {
  std::uint64_t num_vertices = 0;  // |V_{G_i}|
  std::uint64_t num_edges = 0;     // |E_{G_i}|
  std::uint64_t is_size = 0;       // |L_i| (0 for the terminal level)
};

/// Landmarks per G_k (DESIGN §7.6): the kLandmarks highest-degree G_k
/// vertices, fewer when G_k is smaller.
inline constexpr std::size_t kLandmarks = 8;

/// One dense core id's G_k distances to the landmarks. kLandmarkFar means
/// unreachable or too far for 32 bits, and a column past the last
/// landmark holds it too: an entry that only loosens the bound.
inline constexpr std::uint32_t kLandmarkFar = UINT32_MAX;
struct alignas(32) LandmarkRow {
  std::uint32_t dist[kLandmarks];
};
static_assert(sizeof(LandmarkRow) == 32,
              "a landmark row is half a cache line");

/// The k-level vertex hierarchy (Definition 4).
struct VertexHierarchy {
  /// ℓ(v) ∈ [1, k]; vertices of the residual graph carry k.
  std::vector<std::uint32_t> level;

  /// Number of levels: vertices of L_1..L_{k-1} were peeled; G_k is kept.
  std::uint32_t k = 0;

  /// adj_{G_ℓ(v)}(v) for each removed vertex v (empty for ℓ(v) = k).
  /// Sorted by target id.
  std::vector<std::vector<HierEdge>> removed_adj;

  /// Residual graph G_k over dense core ids 0..|G_k|-1 (see SetCore), so
  /// search state can be sized |G_k| rather than n. Via vertices stay
  /// global ids. Carries vias iff options.keep_vias. Each list is sorted
  /// by (weight, neighbor id), not by id, so that the G_k search can stop
  /// at a list's first edge that cannot beat µ (DESIGN §7.5): HasEdge and
  /// EdgeWeight do not apply (they fail an ISLABEL_DCHECK).
  Graph g_k;

  /// landmarks[c] holds dense core id c's G_k distances to the landmarks:
  /// the min(kLandmarks, |G_k|) highest-degree vertices of g_k, ties to
  /// the lower dense id, in that order. Assigned with g_k by SetCore, so
  /// it always describes the G_k the search reads; not saved. Empty when
  /// g_k is (the directed index keeps its core elsewhere).
  std::vector<LandmarkRow> landmarks;

  /// Global id -> dense core id; kInvalidVertex for vertices below level k.
  std::vector<VertexId> core_id;
  /// Dense core id -> global id: core_vertex[core_id[v]] == v for core v.
  std::vector<VertexId> core_vertex;

  /// Members of each L_i (index 0 unused; levels[i] = L_i, 1 <= i < k).
  std::vector<std::vector<VertexId>> levels;

  /// Sizes observed during construction; stats[i] describes G_{i+1}... see
  /// LevelStats. stats.size() == k.
  std::vector<LevelStats> stats;

  /// Logical I/O of the external pipeline (zero for in-memory builds).
  IoStats io;

  VertexId NumVertices() const {
    return static_cast<VertexId>(level.size());
  }
  bool InCore(VertexId v) const { return level[v] == k; }

  /// Assigns core_id and core_vertex from `core`, lists over global ids
  /// whose entries all join level-k vertices (set `level` and `k` first).
  /// Every level-k vertex gets a dense id in BFS order: components are
  /// visited from their highest-degree vertex, in descending order of that
  /// degree (ties by lower id), and neighbors are enqueued in ascending
  /// global id. The one numbering rule, for G_k here and for the directed
  /// core over its out-lists (core/directed.h): O(n + |E_k|) plus a sort
  /// of the core vertices by degree.
  void NumberCore(const Csr& core);

  /// Installs G_k from `core`, a CSR over global ids whose edges all join
  /// level-k vertices: NumberCore, then g_k is `core` in dense ids with
  /// its lists sorted by weight, then the landmark table over that g_k
  /// (one Dijkstra per landmark, in parallel). The one way to assign g_k,
  /// landmarks, core_id and core_vertex.
  void SetCore(const Graph& core);

  /// G_k back in global ids over core_id.size() vertices (NumVertices()
  /// outside an update), its lists id-ordered: the form core.islg stores
  /// and updates edit.
  Graph GlobalCore() const;

  /// Frees removed_adj and levels, which nothing reads after labeling.
  void ReleaseDag();
};

/// Builds the k-level vertex hierarchy of `g` (§6.1.3). Dispatches to the
/// in-memory or the I/O-efficient external pipeline depending on
/// options.memory_budget_bytes; both produce identical hierarchies.
Result<VertexHierarchy> BuildHierarchy(const Graph& g,
                                       const IndexOptions& options);

}  // namespace islabel

#endif  // ISLABEL_CORE_HIERARCHY_H_
