// Shared helpers for the test suite: deterministic graph-family fixtures,
// ground-truth comparison utilities, path validation, and the paper's
// worked example (Figures 1-3) encoded as fixtures.

#ifndef ISLABEL_TESTS_TEST_COMMON_H_
#define ISLABEL_TESTS_TEST_COMMON_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "baseline/dijkstra.h"
#include "core/hierarchy.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "util/random.h"

namespace islabel {
namespace testing {

/// Graph families covering the structural regimes the paper targets
/// (sparse power-law, hub-dominated, grid/road-like, dense-ish random) plus
/// degenerate shapes that stress edge cases.
enum class Family {
  kErdosRenyi,
  kBarabasiAlbert,
  kRMat,
  kGrid,
  kWattsStrogatz,
  kPath,
  kCycle,
  kStar,
  kTree,
  kClique,
  kDisconnected,     // two ER components + isolated vertices
  kCliqueCommunity,  // the recipe behind the perf/ workload graphs
};

inline const char* FamilyName(Family f) {
  switch (f) {
    case Family::kErdosRenyi: return "ErdosRenyi";
    case Family::kBarabasiAlbert: return "BarabasiAlbert";
    case Family::kRMat: return "RMat";
    case Family::kGrid: return "Grid";
    case Family::kWattsStrogatz: return "WattsStrogatz";
    case Family::kPath: return "Path";
    case Family::kCycle: return "Cycle";
    case Family::kStar: return "Star";
    case Family::kTree: return "Tree";
    case Family::kClique: return "Clique";
    case Family::kDisconnected: return "Disconnected";
    case Family::kCliqueCommunity: return "CliqueCommunity";
  }
  return "?";
}

/// Deterministic test graph: `n` is a size hint (grids round down, R-MAT
/// rounds to a power of two). When `weighted`, weights are uniform in
/// [1, 8], or in [1, 2] for the clique-community family, as on synth-web.
inline Graph MakeTestGraph(Family family, VertexId n, bool weighted,
                           std::uint64_t seed) {
  Rng rng(seed);
  EdgeList edges;
  switch (family) {
    case Family::kErdosRenyi:
      edges = GenerateErdosRenyi(n, static_cast<std::uint64_t>(n) * 2, &rng);
      break;
    case Family::kBarabasiAlbert:
      edges = GenerateBarabasiAlbert(n, 3, &rng);
      break;
    case Family::kRMat: {
      std::uint32_t scale = 1;
      while ((1u << (scale + 1)) <= n) ++scale;
      edges = GenerateRMat(scale, static_cast<std::uint64_t>(n) * 3, 0.57,
                           0.19, 0.19, &rng);
      break;
    }
    case Family::kGrid: {
      std::uint32_t side = 2;
      while ((side + 1) * (side + 1) <= n) ++side;
      edges = GenerateGrid2D(side, side);
      break;
    }
    case Family::kWattsStrogatz:
      edges = GenerateWattsStrogatz(n, 2, 0.1, &rng);
      break;
    case Family::kPath:
      edges = GeneratePath(n);
      break;
    case Family::kCycle:
      edges = GenerateCycle(n);
      break;
    case Family::kStar:
      edges = GenerateStar(n);
      break;
    case Family::kTree:
      edges = GenerateCompleteBinaryTree(n);
      break;
    case Family::kClique:
      edges = GenerateClique(std::min<VertexId>(n, 24));
      break;
    case Family::kDisconnected: {
      const VertexId half = n / 2;
      edges = GenerateErdosRenyi(half, static_cast<std::uint64_t>(half) * 2,
                                 &rng);
      EdgeList other =
          GenerateErdosRenyi(half, static_cast<std::uint64_t>(half) * 2, &rng);
      for (const Edge& e : other.edges()) {
        edges.Add(e.u + half, e.v + half, e.w);
      }
      edges.EnsureVertices(n + 3);  // trailing isolated vertices
      break;
    }
    case Family::kCliqueCommunity:
      // synth-skitter's parameters; synth-web, -wiki and -google vary
      // them. Cliques of 14 with sparse links biased toward low ids, and
      // 10% of the vertices on chains hanging off the cliques.
      edges = GenerateCliqueCommunity(n, 14, 0.5, 0.10, 24.0, &rng);
      break;
  }
  if (weighted) {
    AssignUniformWeights(&edges, 1,
                         family == Family::kCliqueCommunity ? 2 : 8, &rng);
  }
  return Graph::FromEdgeList(std::move(edges));
}

/// All property-test families.
inline std::vector<Family> AllFamilies() {
  return {Family::kErdosRenyi,     Family::kBarabasiAlbert,
          Family::kRMat,           Family::kGrid,
          Family::kWattsStrogatz,  Family::kPath,
          Family::kCycle,          Family::kStar,
          Family::kTree,           Family::kClique,
          Family::kDisconnected,   Family::kCliqueCommunity};
}

/// Samples `count` (s, t) pairs, mixing uniform pairs with same-vertex and
/// adjacent pairs to cover degenerate queries.
inline std::vector<std::pair<VertexId, VertexId>> SampleQueryPairs(
    const Graph& g, std::size_t count, std::uint64_t seed) {
  std::vector<std::pair<VertexId, VertexId>> pairs;
  Rng rng(seed);
  const VertexId n = g.NumVertices();
  if (n == 0) return pairs;
  for (std::size_t i = 0; i < count; ++i) {
    VertexId s = static_cast<VertexId>(rng.Uniform(n));
    VertexId t = static_cast<VertexId>(rng.Uniform(n));
    if (i % 17 == 0) t = s;  // same-vertex queries
    if (i % 13 == 0 && g.Degree(s) > 0) {
      t = g.Neighbors(s)[rng.Uniform(g.Degree(s))];  // adjacent queries
    }
    pairs.emplace_back(s, t);
  }
  return pairs;
}

/// Asserts that `path` is a genuine s-t path in `g` of total length `dist`.
/// An empty path asserts dist == kInfDistance.
inline void AssertValidPath(const Graph& g, VertexId s, VertexId t,
                            const std::vector<VertexId>& path,
                            Distance dist) {
  if (dist == kInfDistance) {
    ASSERT_TRUE(path.empty()) << "unreachable pair must yield empty path";
    return;
  }
  ASSERT_FALSE(path.empty());
  ASSERT_EQ(path.front(), s);
  ASSERT_EQ(path.back(), t);
  Distance total = 0;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const Distance w = g.EdgeWeight(path[i], path[i + 1]);
    ASSERT_NE(w, kInfDistance)
        << "path uses a non-edge (" << path[i] << ", " << path[i + 1] << ")";
    total += w;
  }
  ASSERT_EQ(total, dist) << "path length disagrees with reported distance";
}

/// Passes iff every list of `g` runs in ascending (weight, neighbor id)
/// order, the order the G_k search reads (Csr::SortListsByWeight).
inline ::testing::AssertionResult ListsAreWeightOrdered(const Csr& g) {
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    const auto nbrs = g.Neighbors(v);
    const auto ws = g.NeighborWeights(v);
    for (std::size_t i = 1; i < nbrs.size(); ++i) {
      if (ws[i - 1] < ws[i] || (ws[i - 1] == ws[i] && nbrs[i - 1] < nbrs[i])) {
        continue;
      }
      return ::testing::AssertionFailure()
             << "vertex " << v << ": entry " << i << " (" << nbrs[i] << ", w "
             << ws[i] << ") follows (" << nbrs[i - 1] << ", w " << ws[i - 1]
             << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

// ---------------------------------------------------------------------------
// The paper's worked example (Figures 1-3, Examples 1-6).
//
// Vertex mapping: a=0 b=1 c=2 d=3 e=4 f=5 g=6 h=7 i=8. Unit weights except
// ω(e, f) = 3. The edge set is reconstructed from the example's labels:
// every label-initialization entry names a G_i neighbor, which pins the
// adjacency down uniquely.
// ---------------------------------------------------------------------------

inline constexpr VertexId kA = 0, kB = 1, kC = 2, kD = 3, kE = 4, kF = 5,
                          kG = 6, kH = 7, kI = 8;

inline Graph PaperFigure1Graph() {
  EdgeList edges(9);
  edges.Add(kA, kB, 1);
  edges.Add(kA, kE, 1);
  edges.Add(kB, kC, 1);
  edges.Add(kB, kE, 1);
  edges.Add(kD, kE, 1);
  edges.Add(kD, kG, 1);
  edges.Add(kE, kF, 3);
  edges.Add(kE, kI, 1);
  edges.Add(kF, kH, 1);
  edges.Add(kG, kH, 1);
  return Graph::FromEdgeList(std::move(edges));
}

/// The full vertex hierarchy of Example 1 with the paper's (hand-chosen)
/// independent sets L1={c,f,i}, L2={b,d,h}, L3={e}, L4={a}, L5={g}. The
/// paper's greedy min-degree Algorithm 2 picks a different (equally valid)
/// L1; this fixture pins the exact hierarchy so the labeling/query numbers
/// of Figure 2 can be asserted verbatim.
inline VertexHierarchy PaperFullHierarchy() {
  VertexHierarchy h;
  h.k = 6;  // k = h + 1: every level peeled, G_k empty (§5.1)
  h.level = {4, 2, 1, 2, 3, 1, 5, 2, 1};  // a,b,c,d,e,f,g,h,i
  h.levels = {{}, {kC, kF, kI}, {kB, kD, kH}, {kE}, {kA}, {kG}};
  h.removed_adj.resize(9);
  h.removed_adj[kC] = {{kB, 1}};
  h.removed_adj[kF] = {{kE, 3}, {kH, 1}};
  h.removed_adj[kI] = {{kE, 1}};
  h.removed_adj[kB] = {{kA, 1}, {kE, 1}};
  h.removed_adj[kD] = {{kE, 1}, {kG, 1}};
  h.removed_adj[kH] = {{kE, 4, kF}, {kG, 1}};  // (e,h) augmenting via f
  h.removed_adj[kE] = {{kA, 1}, {kG, 2, kD}};  // (e,g) augmenting via d
  h.removed_adj[kA] = {{kG, 3, kE}};           // (a,g) augmenting via e
  h.removed_adj[kG] = {};
  h.SetCore(Graph::FromEdgeList(EdgeList(9), /*keep_vias=*/true));
  h.stats.resize(h.k);
  return h;
}

/// The k=2 variant of Figure 3 / Example 5: only L1={c,f,i} is peeled and
/// G_2 (6 vertices, 7 edges incl. the (e,h) augmenting edge of weight 4)
/// is the residual core.
inline VertexHierarchy PaperK2Hierarchy() {
  VertexHierarchy h;
  h.k = 2;
  h.level = {2, 2, 1, 2, 2, 1, 2, 2, 1};  // c,f,i at level 1; rest core
  h.levels = {{}, {kC, kF, kI}};
  h.removed_adj.resize(9);
  h.removed_adj[kC] = {{kB, 1}};
  h.removed_adj[kF] = {{kE, 3}, {kH, 1}};
  h.removed_adj[kI] = {{kE, 1}};
  EdgeList core(9);
  core.Add(kA, kB, 1);
  core.Add(kA, kE, 1);
  core.Add(kB, kE, 1);
  core.Add(kD, kE, 1);
  core.Add(kD, kG, 1);
  core.Add(kE, kH, 4, kF);  // augmenting via f
  core.Add(kG, kH, 1);
  h.SetCore(Graph::FromEdgeList(std::move(core), /*keep_vias=*/true));
  h.stats.resize(h.k);
  h.stats.back().num_vertices = 6;
  h.stats.back().num_edges = 7;
  return h;
}

}  // namespace testing
}  // namespace islabel

#endif  // ISLABEL_TESTS_TEST_COMMON_H_
