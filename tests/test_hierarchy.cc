// Tests for hierarchy construction: Algorithm 2 (independent set),
// Algorithm 3 (distance-preserving augmentation), both also over a
// digraph's out- and in-graph (§8.2), the σ / forced-k / full termination
// rules, the structural invariants of Definition 1, and the landmark table
// that every install of G_k computes (DESIGN §7.6).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "baseline/dijkstra.h"
#include "core/augment.h"
#include "core/directed.h"
#include "core/hierarchy.h"
#include "core/independent_set.h"
#include "core/index.h"
#include "core/level_graph.h"
#include "graph/digraph.h"
#include "tests/test_common.h"
#include "util/random.h"

namespace islabel {
namespace {

using testing::Family;
using testing::MakeTestGraph;

// ---------- Independent set (Algorithm 2) ----------

class IsOrderTest : public ::testing::TestWithParam<
                        std::tuple<Family, VertexId, IsOrder>> {};

TEST_P(IsOrderTest, IndependentAndMaximal) {
  const auto [family, n, order] = GetParam();
  Graph g = MakeTestGraph(family, n, /*weighted=*/false, /*seed=*/4);
  LevelGraph lg = LevelGraph::FromGraph(g);
  Rng rng(7);
  std::vector<VertexId> is = ComputeIndependentSet({&lg}, order, &rng);

  BitVector in_set(g.NumVertices());
  for (VertexId v : is) in_set.Set(v);
  // Independence: no edge inside the set.
  for (VertexId v : is) {
    for (VertexId u : g.Neighbors(v)) {
      ASSERT_FALSE(in_set[u]) << "edge inside independent set";
    }
  }
  // Maximality: every vertex outside the set has a neighbor inside.
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (in_set[v]) continue;
    bool dominated = false;
    for (VertexId u : g.Neighbors(v)) dominated |= in_set[u];
    ASSERT_TRUE(dominated) << "vertex " << v << " could be added";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, IsOrderTest,
    ::testing::Combine(
        ::testing::Values(Family::kErdosRenyi, Family::kBarabasiAlbert,
                          Family::kRMat, Family::kGrid, Family::kStar,
                          Family::kClique, Family::kDisconnected),
        ::testing::Values(60, 300),
        ::testing::Values(IsOrder::kMinDegree, IsOrder::kRandom,
                          IsOrder::kMaxDegree)),
    ([](const auto& info) {
      const auto [family, n, order] = info.param;
      std::string o = order == IsOrder::kMinDegree  ? "MinDeg"
                      : order == IsOrder::kRandom   ? "Random"
                                                    : "MaxDeg";
      return std::string(testing::FamilyName(family)) + "_" +
             std::to_string(n) + "_" + o;
    }));

TEST(IndependentSet, MinDegreeSelectsIsolatedAndLeavesFirst) {
  // Star: the leaves (degree 1) come before the hub (degree n-1), so the
  // greedy set is exactly the leaves.
  Graph g = Graph::FromEdgeList(GenerateStar(50));
  LevelGraph lg = LevelGraph::FromGraph(g);
  Rng rng(1);
  auto is = ComputeIndependentSet({&lg}, IsOrder::kMinDegree, &rng);
  EXPECT_EQ(is.size(), 49u);
  for (VertexId v : is) EXPECT_NE(v, 0u);
}

TEST(IndependentSet, IncludesIsolatedVertices) {
  EdgeList el(6);
  el.Add(0, 1);
  Graph g = Graph::FromEdgeList(el);  // 2,3,4,5 isolated
  LevelGraph lg = LevelGraph::FromGraph(g);
  Rng rng(1);
  auto is = ComputeIndependentSet({&lg}, IsOrder::kMinDegree, &rng);
  BitVector in_set(6);
  for (VertexId v : is) in_set.Set(v);
  for (VertexId v = 2; v < 6; ++v) EXPECT_TRUE(in_set[v]);
}

TEST(IndependentSet, DeterministicForFixedSeed) {
  Graph g = MakeTestGraph(Family::kRMat, 256, false, 11);
  LevelGraph lg1 = LevelGraph::FromGraph(g);
  LevelGraph lg2 = LevelGraph::FromGraph(g);
  Rng r1(5), r2(5);
  EXPECT_EQ(ComputeIndependentSet({&lg1}, IsOrder::kRandom, &r1),
            ComputeIndependentSet({&lg2}, IsOrder::kRandom, &r2));
}

// A vertex's degree is the sum of its list lengths. In an in-star (arcs
// leaf -> 0) the hub has out-degree 0 but 49 in-arcs, so min-degree
// order takes the 49 leaves (degree 1) before the hub.
TEST(IndependentSet, DirectedDegreeCountsBothLists) {
  std::vector<Arc> arcs;
  for (VertexId leaf = 1; leaf < 50; ++leaf) arcs.emplace_back(leaf, 0, 1);
  const DiGraph g = DiGraph::FromArcs(std::move(arcs), 50);
  const LevelGraph out = LevelGraph::FromGraph(g.out());
  const LevelGraph in = LevelGraph::FromGraph(g.in());
  Rng rng(1);
  const std::vector<VertexId> is =
      ComputeIndependentSet({&out, &in}, IsOrder::kMinDegree, &rng);
  EXPECT_EQ(is.size(), 49u);
  for (VertexId v : is) EXPECT_NE(v, 0u);
}

// Over a digraph's out- and in-graph the set holds no arc, in either
// direction, and every vertex left out has an in- or out-neighbor in it.
TEST(IndependentSet, DirectedSetHoldsNoArc) {
  const VertexId n = 200;
  for (const IsOrder order :
       {IsOrder::kMinDegree, IsOrder::kRandom, IsOrder::kMaxDegree}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      Rng rng(seed);
      std::vector<Arc> arcs;
      for (int a = 0; a < 3 * static_cast<int>(n); ++a) {
        arcs.emplace_back(static_cast<VertexId>(rng.Uniform(n)),
                          static_cast<VertexId>(rng.Uniform(n)), 1);
      }
      const DiGraph g = DiGraph::FromArcs(std::move(arcs), n);
      const LevelGraph out = LevelGraph::FromGraph(g.out());
      const LevelGraph in = LevelGraph::FromGraph(g.in());
      const std::vector<VertexId> is =
          ComputeIndependentSet({&out, &in}, order, &rng);

      BitVector in_set(n);
      for (VertexId v : is) in_set.Set(v);
      for (VertexId v = 0; v < n; ++v) {
        bool dominated = in_set[v];
        for (VertexId u : g.out().Neighbors(v)) {
          ASSERT_FALSE(in_set[v] && in_set[u]) << "arc " << v << "->" << u;
          dominated |= in_set[u];
        }
        for (VertexId u : g.in().Neighbors(v)) dominated |= in_set[u];
        ASSERT_TRUE(dominated) << "vertex " << v << " could be added";
      }
    }
  }
}

// ---------- Augmentation (Algorithm 3, Lemma 2) ----------

class AugmentTest
    : public ::testing::TestWithParam<std::tuple<Family, bool, int>> {};

TEST_P(AugmentTest, PreservesAllPairDistances) {
  const auto [family, weighted, seed] = GetParam();
  Graph g = MakeTestGraph(family, 48, weighted, seed);
  const VertexId n = g.NumVertices();

  LevelGraph lg = LevelGraph::FromGraph(g);
  Rng rng(seed);
  std::vector<VertexId> is = ComputeIndependentSet({&lg}, IsOrder::kMinDegree,
                                                   &rng);
  std::vector<std::vector<HierEdge>> removed_adj(n);
  for (VertexId v : is) removed_adj[v] = std::move(lg.adj[v]);
  auto aug = AugmentInPlace(&lg, is, removed_adj);
  ASSERT_TRUE(aug.ok()) << aug.status().ToString();

  Graph g2 = lg.ToGraph(/*keep_vias=*/true);
  // Distance preservation (Lemma 2): every surviving pair keeps its exact
  // distance.
  BitVector removed(n);
  for (VertexId v : is) removed.Set(v);
  for (VertexId s = 0; s < n; ++s) {
    if (removed[s]) continue;
    SsspResult before = DijkstraSssp(g, s);
    SsspResult after = DijkstraSssp(g2, s);
    for (VertexId t = 0; t < n; ++t) {
      if (removed[t]) continue;
      ASSERT_EQ(after.dist[t], before.dist[t])
          << "dist(" << s << "," << t << ") changed";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, AugmentTest,
    ::testing::Combine(::testing::Values(Family::kErdosRenyi, Family::kRMat,
                                         Family::kGrid, Family::kStar,
                                         Family::kTree, Family::kCycle,
                                         Family::kDisconnected),
                       ::testing::Bool(), ::testing::Values(1, 2)),
    ([](const auto& info) {
      const auto [family, weighted, seed] = info.param;
      return std::string(testing::FamilyName(family)) +
             (weighted ? "_Weighted_" : "_Unit_") + std::to_string(seed);
    }));

TEST(Augment, ViaRecordsIntermediateVertex) {
  // Path 0-1-2: removing 1 creates (0,2) with via=1, weight sum.
  EdgeList el(3);
  el.Add(0, 1, 2);
  el.Add(1, 2, 3);
  Graph g = Graph::FromEdgeList(el);
  LevelGraph lg = LevelGraph::FromGraph(g);
  std::vector<std::vector<HierEdge>> removed_adj(3);
  removed_adj[1] = std::move(lg.adj[1]);
  auto aug = AugmentInPlace(&lg, {1}, removed_adj);
  ASSERT_TRUE(aug.ok());
  EXPECT_EQ(aug->edges_inserted, 1u);
  ASSERT_EQ(lg.adj[0].size(), 1u);
  EXPECT_EQ(lg.adj[0][0].to, 2u);
  EXPECT_EQ(lg.adj[0][0].w, 5u);
  EXPECT_EQ(lg.adj[0][0].via, 1u);
}

TEST(Augment, ExistingEdgeKeepsSmallerWeight) {
  // Triangle 0-1-2 with direct (0,2) cheaper than the 2-path through 1.
  EdgeList el(3);
  el.Add(0, 1, 4);
  el.Add(1, 2, 4);
  el.Add(0, 2, 1);
  Graph g = Graph::FromEdgeList(el);
  LevelGraph lg = LevelGraph::FromGraph(g);
  std::vector<std::vector<HierEdge>> removed_adj(3);
  removed_adj[1] = std::move(lg.adj[1]);
  auto aug = AugmentInPlace(&lg, {1}, removed_adj);
  ASSERT_TRUE(aug.ok());
  EXPECT_EQ(lg.adj[0][0].w, 1u);
  EXPECT_EQ(lg.adj[0][0].via, kInvalidVertex);  // original edge won
}

TEST(Augment, ExistingEdgeLoweredBy2Path) {
  EdgeList el(3);
  el.Add(0, 1, 1);
  el.Add(1, 2, 1);
  el.Add(0, 2, 10);
  Graph g = Graph::FromEdgeList(el);
  LevelGraph lg = LevelGraph::FromGraph(g);
  std::vector<std::vector<HierEdge>> removed_adj(3);
  removed_adj[1] = std::move(lg.adj[1]);
  auto aug = AugmentInPlace(&lg, {1}, removed_adj);
  ASSERT_TRUE(aug.ok());
  EXPECT_EQ(aug->weights_lowered, 1u);
  EXPECT_EQ(lg.adj[0][0].w, 2u);
  EXPECT_EQ(lg.adj[0][0].via, 1u);
}

TEST(Augment, RejectsNonIndependentSet) {
  EdgeList el(2);
  el.Add(0, 1, 1);
  Graph g = Graph::FromEdgeList(el);
  LevelGraph lg = LevelGraph::FromGraph(g);
  std::vector<std::vector<HierEdge>> removed_adj(2);
  removed_adj[0] = lg.adj[0];
  removed_adj[1] = lg.adj[1];
  LevelGraph lg2 = lg;
  auto aug = AugmentInPlace(&lg2, {0, 1}, removed_adj);
  EXPECT_FALSE(aug.ok());
}

TEST(Augment, WeightOverflowDetected) {
  EdgeList el(3);
  const Weight big = std::numeric_limits<Weight>::max() - 1;
  el.Add(0, 1, big);
  el.Add(1, 2, big);
  Graph g = Graph::FromEdgeList(el);
  LevelGraph lg = LevelGraph::FromGraph(g);
  std::vector<std::vector<HierEdge>> removed_adj(3);
  removed_adj[1] = std::move(lg.adj[1]);
  auto aug = AugmentInPlace(&lg, {1}, removed_adj);
  ASSERT_FALSE(aug.ok());
  EXPECT_TRUE(aug.status().IsOutOfRange());
}

// The three steps over a digraph, as the directed index runs them: the
// out-graph gains the EA records, the in-graph the reversed ones.
TEST(Augment, DirectedTwoPathsBecomeArcs) {
  // In-arcs of 1 come from 0 (2), 2 (1) and 3 (1); its out-arcs go to
  // 2 (3) and 4 (1); 3 -> 4 (1) is lighter than 3 -> 1 -> 4.
  const DiGraph g = DiGraph::FromArcs(
      {{0, 1, 2}, {1, 2, 3}, {2, 1, 1}, {3, 1, 1}, {1, 4, 1}, {3, 4, 1}}, 5);
  LevelGraph out = LevelGraph::FromGraph(g.out());
  LevelGraph in = LevelGraph::FromGraph(g.in());
  const std::vector<VertexId> removed = {1};
  std::vector<std::vector<HierEdge>> removed_out(5), removed_in(5);
  removed_out[1] = std::move(out.adj[1]);
  removed_in[1] = std::move(in.adj[1]);
  ASSERT_TRUE(DropVertices(&out, removed, removed_in).ok());
  ASSERT_TRUE(DropVertices(&in, removed, removed_out).ok());
  std::vector<EaRecord> ea;
  ASSERT_TRUE(EmitAugmentingArcs(removed, removed_in, removed_out, &ea).ok());
  MergeAugmentingArcs(&ea, &out);
  for (EaRecord& r : ea) std::swap(r.src, r.dst);
  MergeAugmentingArcs(&ea, &in);

  // u -> 1 -> w adds u -> w, weight summed and via 1, to u's out-list and
  // w's in-list; 2 -> 1 -> 2 adds no self-loop; 3 -> 4 keeps weight 1.
  using Edges = std::vector<HierEdge>;
  EXPECT_EQ(out.adj[0], (Edges{{2, 5, 1}, {4, 3, 1}}));
  EXPECT_EQ(out.adj[2], (Edges{{4, 2, 1}}));
  EXPECT_EQ(out.adj[3], (Edges{{2, 4, 1}, {4, 1}}));
  EXPECT_EQ(in.adj[2], (Edges{{0, 5, 1}, {3, 4, 1}}));
  EXPECT_EQ(in.adj[4], (Edges{{0, 3, 1}, {2, 2, 1}, {3, 1}}));
  // Nothing reaches 0 or 3, nor leaves 4, through 1: no 2 -> 0 arc
  // without a 2 -> 1 -> 0 path.
  EXPECT_TRUE(out.adj[4].empty());
  EXPECT_TRUE(in.adj[0].empty());
  EXPECT_TRUE(in.adj[3].empty());
  EXPECT_TRUE(out.adj[1].empty());
  EXPECT_TRUE(in.adj[1].empty());
  EXPECT_FALSE(out.alive[1]);
  EXPECT_FALSE(in.alive[1]);
  EXPECT_EQ(out.num_alive, 4u);
  EXPECT_EQ(in.num_alive, 4u);
}

// ---------- Full hierarchy construction ----------

class HierarchyTest
    : public ::testing::TestWithParam<std::tuple<Family, bool>> {};

TEST_P(HierarchyTest, StructuralInvariants) {
  const auto [family, weighted] = GetParam();
  Graph g = MakeTestGraph(family, 200, weighted, 9);
  IndexOptions opts;
  auto hr = BuildHierarchy(g, opts);
  ASSERT_TRUE(hr.ok()) << hr.status().ToString();
  const VertexHierarchy& h = *hr;

  ASSERT_GE(h.k, 1u);
  ASSERT_EQ(h.level.size(), g.NumVertices());
  ASSERT_EQ(h.levels.size(), h.k);  // index 0 unused + levels 1..k-1

  // Every vertex has a level in [1, k]; level partition matches h.levels.
  std::vector<std::uint64_t> count_per_level(h.k + 1, 0);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    ASSERT_GE(h.level[v], 1u);
    ASSERT_LE(h.level[v], h.k);
    ++count_per_level[h.level[v]];
  }
  for (std::uint32_t i = 1; i < h.k; ++i) {
    ASSERT_EQ(h.levels[i].size(), count_per_level[i]);
    for (VertexId v : h.levels[i]) ASSERT_EQ(h.level[v], i);
  }

  // Ancestor-DAG edges strictly increase in level (removed_adj targets all
  // survive past their source's level).
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (const HierEdge& e : h.removed_adj[v]) {
      ASSERT_GT(h.level[e.to], h.level[v])
          << "DAG edge does not increase level";
    }
    if (h.level[v] == h.k) {
      ASSERT_TRUE(h.removed_adj[v].empty());
    }
  }

  // G_k spans exactly the level-k vertices, one dense id each, and its
  // lists run in the (weight, id) order the search reads.
  ASSERT_EQ(h.core_id.size(), g.NumVertices());
  ASSERT_EQ(h.g_k.NumVertices(), h.core_vertex.size());
  EXPECT_TRUE(testing::ListsAreWeightOrdered(h.g_k));
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (h.level[v] < h.k) {
      ASSERT_EQ(h.core_id[v], kInvalidVertex) << "removed vertex in G_k";
    } else {
      ASSERT_EQ(h.core_vertex[h.core_id[v]], v);
    }
  }

  // G_k preserves distances of G among core vertices (Lemma 1).
  std::vector<VertexId> core;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (h.level[v] == h.k) core.push_back(v);
  }
  const std::size_t check = std::min<std::size_t>(core.size(), 5);
  for (std::size_t i = 0; i < check; ++i) {
    SsspResult in_g = DijkstraSssp(g, core[i]);
    SsspResult in_gk = DijkstraSssp(h.g_k, h.core_id[core[i]]);
    for (VertexId t : core) {
      ASSERT_EQ(in_gk.dist[h.core_id[t]], in_g.dist[t])
          << "G_k distance mismatch from " << core[i] << " to " << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, HierarchyTest,
    ::testing::Combine(::testing::Values(Family::kErdosRenyi,
                                         Family::kBarabasiAlbert,
                                         Family::kRMat, Family::kGrid,
                                         Family::kWattsStrogatz, Family::kPath,
                                         Family::kStar, Family::kTree,
                                         Family::kClique,
                                         Family::kDisconnected),
                       ::testing::Bool()),
    ([](const auto& info) {
      const auto [family, weighted] = info.param;
      return std::string(testing::FamilyName(family)) +
             (weighted ? "_Weighted" : "_Unit");
    }));

// Dense G_k ids: each component is one contiguous id range visited in BFS
// order from its highest-degree vertex, components by descending root
// degree, and the dense graph is the global core graph renamed.
TEST(Hierarchy, CoreIdsFollowBfsOrderFromHighestDegreeRoots) {
  for (const Family family :
       {Family::kDisconnected, Family::kBarabasiAlbert, Family::kRMat}) {
    SCOPED_TRACE(testing::FamilyName(family));
    Graph g = MakeTestGraph(family, 200, true, 8);
    IndexOptions opts;
    opts.forced_k = 2;
    auto hr = BuildHierarchy(g, opts);
    ASSERT_TRUE(hr.ok());
    const VertexHierarchy& h = *hr;
    const Graph& gk = h.g_k;
    // g_k's lists are weight-ordered: walk each in id order, and find an
    // edge by a linear scan, not by EdgeWeight's binary search.
    const auto ids_in_order = [&](VertexId v) {
      std::vector<VertexId> ids(gk.Neighbors(v).begin(),
                                gk.Neighbors(v).end());
      std::sort(ids.begin(), ids.end());
      return ids;
    };
    const auto weight_of = [&](VertexId u, VertexId v) -> Distance {
      const auto nbrs = gk.Neighbors(u);
      const auto it = std::find(nbrs.begin(), nbrs.end(), v);
      if (it == nbrs.end()) return kInfDistance;
      return gk.NeighborWeights(u)[static_cast<std::size_t>(it - nbrs.begin())];
    };

    std::uint32_t prev_root_degree = std::numeric_limits<std::uint32_t>::max();
    std::size_t components = 0;
    for (VertexId root = 0; root < gk.NumVertices();) {
      // BFS from `root` must hand out exactly the ids root, root+1, ...,
      // with hop distance from the root non-decreasing along the ids.
      std::vector<std::uint32_t> hops(gk.NumVertices(), kInvalidVertex);
      hops[root] = 0;
      VertexId end = root + 1;
      std::uint32_t max_degree = 0;
      for (VertexId v = root; v < end; ++v) {
        ASSERT_GE(hops[v], hops[v - (v > root ? 1 : 0)]) << "dense id " << v;
        max_degree = std::max(max_degree, gk.Degree(v));
        for (VertexId u : ids_in_order(v)) {
          if (hops[u] != kInvalidVertex) continue;
          ASSERT_EQ(u, end) << "component ids are not one BFS range";
          hops[u] = hops[v] + 1;
          ++end;
        }
      }
      EXPECT_EQ(gk.Degree(root), max_degree) << "root is not the hub";
      EXPECT_LE(gk.Degree(root), prev_root_degree) << "roots out of order";
      prev_root_degree = gk.Degree(root);
      ++components;
      root = end;
    }
    if (family == Family::kDisconnected) {
      EXPECT_GE(components, 2u);
    }

    // Renaming back recovers a graph over global ids with the same edges.
    const Graph global = h.GlobalCore();
    EXPECT_EQ(global.NumVertices(), g.NumVertices());
    EXPECT_EQ(global.NumEdges(), gk.NumEdges());
    const EdgeList edges = global.ToEdgeList();
    for (const Edge& e : edges.edges()) {
      ASSERT_EQ(h.level[e.u], h.k);
      ASSERT_EQ(h.level[e.v], h.k);
      ASSERT_EQ(weight_of(h.core_id[e.u], h.core_id[e.v]), e.w);
    }
  }
}

// ---------- The landmark table (DESIGN §7.6) ----------

// The landmarks the table must hold, in column order: the
// min(kLandmarks, |G_k|) highest-degree G_k vertices, ties to the lower
// dense id.
std::vector<VertexId> ExpectedLandmarks(const Graph& g_k) {
  std::vector<VertexId> ids(g_k.NumVertices());
  for (VertexId c = 0; c < ids.size(); ++c) ids[c] = c;
  std::stable_sort(ids.begin(), ids.end(), [&](VertexId a, VertexId b) {
    return g_k.Degree(a) > g_k.Degree(b);
  });
  ids.resize(std::min<std::size_t>(ids.size(), kLandmarks));
  return ids;
}

// Passes iff h's table has one row per G_k vertex and its entry for dense
// id c and landmark column j is dist(c, landmark j), capped at
// kLandmarkFar, with every column past the last landmark far.
template <typename DistFn>
::testing::AssertionResult TableMatches(const VertexHierarchy& h,
                                        DistFn dist) {
  if (h.landmarks.size() != h.g_k.NumVertices()) {
    return ::testing::AssertionFailure()
           << h.landmarks.size() << " rows for |G_k| = " << h.g_k.NumVertices();
  }
  const std::vector<VertexId> marks = ExpectedLandmarks(h.g_k);
  for (std::size_t j = 0; j < kLandmarks; ++j) {
    const auto want = [&](VertexId c) -> std::uint32_t {
      if (j >= marks.size()) return kLandmarkFar;
      const Distance d = dist(c, marks[j]);
      return d >= kLandmarkFar ? kLandmarkFar : static_cast<std::uint32_t>(d);
    };
    for (VertexId c = 0; c < h.g_k.NumVertices(); ++c) {
      if (h.landmarks[c].dist[j] != want(c)) {
        return ::testing::AssertionFailure()
               << "dense id " << c << ", landmark column " << j << ": "
               << h.landmarks[c].dist[j] << ", want " << want(c);
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// Every path that installs G_k installs a table that matches it: the
// in-memory and the external build, Load, and RebuildCore after an insert
// and after the delete of a landmark. The directed index keeps no table.
TEST(Hierarchy, LandmarkTableMatchesDijkstra) {
  const std::string dir = ::testing::TempDir() + "islabel_landmarks";
  for (const Family family : {Family::kBarabasiAlbert, Family::kGrid,
                              Family::kDisconnected,
                              Family::kCliqueCommunity}) {
    SCOPED_TRACE(testing::FamilyName(family));
    const Graph g = MakeTestGraph(family, 400, true, 4);
    // G_k preserves distances among its vertices (Lemma 1), so every entry
    // is a distance of G between two global ids: a check that does not
    // run the Dijkstra over g_k that filled the table.
    const auto in_g = [&](const VertexHierarchy& h) {
      return [&g, &h](VertexId c, VertexId mark) {
        return DijkstraP2P(g, h.core_vertex[c], h.core_vertex[mark]);
      };
    };
    IndexOptions external;
    external.memory_budget_bytes = 4096;
    for (const IndexOptions& opts : {IndexOptions{}, external}) {
      auto built = ISLabelIndex::Build(g, opts);
      ASSERT_TRUE(built.ok()) << built.status().ToString();
      const VertexHierarchy& h = built->hierarchy();
      ASSERT_GE(h.g_k.NumVertices(), kLandmarks) << "G_k too small to test";
      EXPECT_TRUE(TableMatches(h, in_g(h)));
    }

    auto built = ISLabelIndex::Build(g, IndexOptions{});
    ASSERT_TRUE(built.ok());
    ASSERT_TRUE(built->Save(dir).ok());
    for (const bool in_memory : {true, false}) {
      auto loaded = ISLabelIndex::Load(dir, in_memory);
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      EXPECT_TRUE(TableMatches(loaded->hierarchy(),
                               in_g(loaded->hierarchy())));
    }

    // After an update G_k is no longer G's core, so the reference is a
    // point-to-point Dijkstra over the new g_k.
    ISLabelIndex index = std::move(built).value();
    const VertexHierarchy& h = index.hierarchy();
    const auto in_gk = [&h](VertexId c, VertexId mark) {
      return DijkstraP2P(h.g_k, c, mark);
    };
    VertexId below = 0;
    while (index.InCore(below)) ++below;
    ASSERT_TRUE(index.InsertVertex(index.NumVertices(),
                                   {{below, 2}, {h.core_vertex[0], 1}})
                    .ok());
    EXPECT_TRUE(TableMatches(h, in_gk));
    const VertexId mark = h.core_vertex[ExpectedLandmarks(h.g_k)[0]];
    ASSERT_TRUE(index.DeleteVertex(mark).ok());
    EXPECT_NE(h.core_vertex[ExpectedLandmarks(h.g_k)[0]], mark);
    EXPECT_TRUE(TableMatches(h, in_gk));
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  std::vector<Arc> arcs;
  const EdgeList edges =
      MakeTestGraph(Family::kBarabasiAlbert, 400, true, 4).ToEdgeList();
  for (const Edge& e : edges.edges()) {
    arcs.emplace_back(e.u, e.v, e.w);
    if (e.w % 2 == 0) arcs.emplace_back(e.v, e.u, e.w);
  }
  auto directed = DirectedISLabel::Build(DiGraph::FromArcs(std::move(arcs)));
  ASSERT_TRUE(directed.ok());
  EXPECT_FALSE(directed->hierarchy().core_vertex.empty());
  EXPECT_TRUE(directed->hierarchy().landmarks.empty());
}

TEST(Hierarchy, FullHierarchyEmptiesTheGraph) {
  Graph g = MakeTestGraph(Family::kErdosRenyi, 150, false, 3);
  IndexOptions opts;
  opts.forced_k = UINT32_MAX;  // past the depth: the full hierarchy
  auto hr = BuildHierarchy(g, opts);
  ASSERT_TRUE(hr.ok());
  EXPECT_EQ(hr->g_k.NumEdges(), 0u);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_LT(hr->level[v], hr->k) << "no vertex should remain at level k";
  }
}

TEST(Hierarchy, ForcedKStopsExactlyThere) {
  Graph g = MakeTestGraph(Family::kBarabasiAlbert, 400, false, 6);
  for (std::uint32_t want_k : {2u, 3u, 5u}) {
    IndexOptions opts;
    opts.forced_k = want_k;
    auto hr = BuildHierarchy(g, opts);
    ASSERT_TRUE(hr.ok());
    EXPECT_EQ(hr->k, want_k);
  }
}

TEST(Hierarchy, SigmaMonotonicity) {
  // A lower sigma threshold makes termination easier, so k is no larger.
  Graph g = MakeTestGraph(Family::kRMat, 1024, false, 12);
  IndexOptions strict;  // 0.95
  IndexOptions loose;
  loose.sigma = 0.80;
  auto h1 = BuildHierarchy(g, strict);
  auto h2 = BuildHierarchy(g, loose);
  ASSERT_TRUE(h1.ok());
  ASSERT_TRUE(h2.ok());
  EXPECT_LE(h2->k, h1->k);
}

TEST(Hierarchy, LevelStatsShrink) {
  Graph g = MakeTestGraph(Family::kBarabasiAlbert, 500, false, 8);
  auto hr = BuildHierarchy(g, IndexOptions{});
  ASSERT_TRUE(hr.ok());
  ASSERT_EQ(hr->stats.size(), hr->k);
  for (std::size_t i = 1; i < hr->stats.size(); ++i) {
    EXPECT_LT(hr->stats[i].num_vertices, hr->stats[i - 1].num_vertices);
  }
  EXPECT_EQ(hr->stats[0].num_vertices, g.NumVertices());
}

TEST(Hierarchy, InvalidOptionsRejected) {
  Graph g = MakeTestGraph(Family::kPath, 10, false, 1);
  IndexOptions bad;
  bad.sigma = 0.0;
  EXPECT_FALSE(BuildHierarchy(g, bad).ok());
}

TEST(Hierarchy, EmptyAndTinyGraphs) {
  auto h0 = BuildHierarchy(Graph::FromEdgeList(EdgeList(0)), IndexOptions{});
  ASSERT_TRUE(h0.ok());
  EXPECT_EQ(h0->k, 1u);

  auto h1 = BuildHierarchy(Graph::FromEdgeList(EdgeList(1)), IndexOptions{});
  ASSERT_TRUE(h1.ok());

  EdgeList two(2);
  two.Add(0, 1, 3);
  auto h2 = BuildHierarchy(Graph::FromEdgeList(two), IndexOptions{});
  ASSERT_TRUE(h2.ok());
}

}  // namespace
}  // namespace islabel
