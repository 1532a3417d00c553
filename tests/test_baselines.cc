// Baseline cross-validation: Dijkstra vs BFS, the bidirectional Dijkstra
// IM-DIJ (an index at k = 1), CH and VC-Index (SSSP and P2P) all agree.

#include <gtest/gtest.h>

#include <tuple>

#include "baseline/bfs.h"
#include "baseline/contraction_hierarchy.h"
#include "baseline/dijkstra.h"
#include "baseline/vc_index.h"
#include "core/index.h"
#include "tests/test_common.h"

namespace islabel {
namespace {

using testing::Family;
using testing::MakeTestGraph;
using testing::SampleQueryPairs;

TEST(Dijkstra, MatchesBfsOnUnitWeights) {
  Graph g = MakeTestGraph(Family::kRMat, 256, false, 1);
  for (VertexId s : {0u, 5u, 100u}) {
    SsspResult d = DijkstraSssp(g, s);
    std::vector<Distance> b = BfsDistances(g, s);
    for (VertexId t = 0; t < g.NumVertices(); ++t) {
      ASSERT_EQ(d.dist[t], b[t]) << "source " << s << " target " << t;
    }
  }
}

TEST(Dijkstra, ParentsFormShortestPathTree) {
  Graph g = MakeTestGraph(Family::kErdosRenyi, 150, true, 2);
  SsspResult r = DijkstraSssp(g, 0);
  for (VertexId t = 0; t < g.NumVertices(); ++t) {
    if (r.dist[t] == kInfDistance || t == 0) continue;
    const VertexId p = r.parent[t];
    ASSERT_NE(p, kInvalidVertex);
    ASSERT_EQ(r.dist[p] + g.EdgeWeight(p, t), r.dist[t]);
  }
}

TEST(Dijkstra, P2PEarlyStopMatchesSssp) {
  Graph g = MakeTestGraph(Family::kBarabasiAlbert, 200, true, 3);
  SsspResult full = DijkstraSssp(g, 7);
  for (VertexId t = 0; t < g.NumVertices(); t += 11) {
    std::uint64_t settled = 0;
    EXPECT_EQ(DijkstraP2P(g, 7, t, &settled), full.dist[t]);
    EXPECT_LE(settled, g.NumVertices());
  }
}

TEST(Dijkstra, DirectedMatchesUndirectedOnSymmetricArcs) {
  Graph g = MakeTestGraph(Family::kGrid, 100, true, 4);
  std::vector<Arc> arcs;
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    for (std::size_t i = 0; i < g.Neighbors(u).size(); ++i) {
      arcs.emplace_back(u, g.Neighbors(u)[i], g.NeighborWeights(u)[i]);
    }
  }
  DiGraph dg = DiGraph::FromArcs(std::move(arcs), g.NumVertices());
  SsspResult a = DijkstraSssp(g, 13);
  SsspResult b = DijkstraSssp(dg, 13);
  EXPECT_EQ(a.dist, b.dist);
}

// IM-DIJ: at k = 1 nothing is peeled, every label is {(v, 0)}, and the
// index's query is a bidirectional Dijkstra on G.
class BiDijkstraTest
    : public ::testing::TestWithParam<std::tuple<Family, bool>> {};

TEST_P(BiDijkstraTest, MatchesUnidirectional) {
  const auto [family, weighted] = GetParam();
  Graph g = MakeTestGraph(family, 200, weighted, 5);
  IndexOptions k1;
  k1.forced_k = 1;
  auto built = ISLabelIndex::Build(g, k1);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ISLabelIndex bidij = std::move(built).value();
  ASSERT_EQ(bidij.k(), 1u);
  ASSERT_EQ(bidij.labels().TotalEntries(), g.NumVertices());
  for (auto [s, t] : SampleQueryPairs(g, 120, 7)) {
    Distance d = 0;
    ASSERT_TRUE(bidij.Query(s, t, &d).ok());
    ASSERT_EQ(d, DijkstraP2P(g, s, t)) << "(" << s << "," << t << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, BiDijkstraTest,
    ::testing::Combine(::testing::Values(Family::kErdosRenyi, Family::kRMat,
                                         Family::kGrid, Family::kStar,
                                         Family::kDisconnected,
                                         Family::kPath),
                       ::testing::Bool()),
    ([](const auto& info) {
      const auto [family, weighted] = info.param;
      return std::string(testing::FamilyName(family)) +
             (weighted ? "_Weighted" : "_Unit");
    }));

// ---------- VC-Index ----------

class VcIndexTest
    : public ::testing::TestWithParam<std::tuple<Family, bool, int>> {};

TEST_P(VcIndexTest, SsspMatchesDijkstra) {
  const auto [family, weighted, seed] = GetParam();
  Graph g = MakeTestGraph(family, 150, weighted, seed);
  auto built = VcIndex::Build(g);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  VcIndex index = std::move(built).value();
  for (VertexId s = 0; s < std::min<VertexId>(g.NumVertices(), 10); ++s) {
    SsspResult expect = DijkstraSssp(g, s);
    std::vector<Distance> got = index.Sssp(s);
    for (VertexId t = 0; t < g.NumVertices(); ++t) {
      ASSERT_EQ(got[t], expect.dist[t])
          << "source " << s << " target " << t;
    }
  }
}

TEST_P(VcIndexTest, P2PMatchesDijkstra) {
  const auto [family, weighted, seed] = GetParam();
  Graph g = MakeTestGraph(family, 150, weighted, seed);
  auto built = VcIndex::Build(g);
  ASSERT_TRUE(built.ok());
  VcIndex index = std::move(built).value();
  for (auto [s, t] : SampleQueryPairs(g, 100, seed * 19 + 1)) {
    ASSERT_EQ(index.QueryP2P(s, t), DijkstraP2P(g, s, t))
        << "(" << s << "," << t << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, VcIndexTest,
    ::testing::Combine(::testing::Values(Family::kErdosRenyi, Family::kRMat,
                                         Family::kGrid, Family::kStar,
                                         Family::kTree,
                                         Family::kDisconnected),
                       ::testing::Bool(), ::testing::Values(1, 2)),
    ([](const auto& info) {
      const auto [family, weighted, seed] = info.param;
      return std::string(testing::FamilyName(family)) +
             (weighted ? "_W_" : "_U_") + std::to_string(seed);
    }));

TEST(VcIndex, ReportsStructure) {
  Graph g = MakeTestGraph(Family::kBarabasiAlbert, 400, false, 9);
  auto built = VcIndex::Build(g);
  ASSERT_TRUE(built.ok());
  EXPECT_GE(built->num_levels(), 2u);
  EXPECT_LT(built->top_vertices(), g.NumVertices());
  EXPECT_GT(built->SizeBytes(), 0u);
}

TEST(VcIndex, P2PTouchesMoreThanNeeded) {
  // The P2P conversion still sweeps whole levels — the inefficiency that
  // motivates IS-LABEL (§3.1 [11]). For a low-level target the touched
  // count must exceed the plain early-stop Dijkstra's.
  Graph g = MakeTestGraph(Family::kBarabasiAlbert, 500, false, 10);
  auto built = VcIndex::Build(g);
  ASSERT_TRUE(built.ok());
  VcIndex index = std::move(built).value();
  std::uint64_t total_touched = 0;
  for (auto [s, t] : SampleQueryPairs(g, 40, 3)) {
    std::uint64_t touched = 0;
    index.QueryP2P(s, t, &touched);
    total_touched += touched;
  }
  EXPECT_GT(total_touched, 0u);
}

// ---------- Contraction Hierarchies ----------

class ChTest : public ::testing::TestWithParam<std::tuple<Family, bool>> {};

TEST_P(ChTest, MatchesDijkstra) {
  const auto [family, weighted] = GetParam();
  Graph g = MakeTestGraph(family, 150, weighted, 8);
  auto built = ContractionHierarchy::Build(g);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ContractionHierarchy ch = std::move(built).value();
  ContractionHierarchy::Scratch scratch;
  for (VertexId s = 0; s < std::min<VertexId>(g.NumVertices(), 8); ++s) {
    SsspResult expect = DijkstraSssp(g, s);
    for (VertexId t = 0; t < g.NumVertices(); ++t) {
      ASSERT_EQ(ch.Query(s, t, &scratch), expect.dist[t])
          << "(" << s << "," << t << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, ChTest,
    ::testing::Combine(::testing::Values(Family::kErdosRenyi, Family::kGrid,
                                         Family::kStar, Family::kTree,
                                         Family::kRMat,
                                         Family::kDisconnected),
                       ::testing::Bool()),
    ([](const auto& info) {
      const auto [family, weighted] = info.param;
      return std::string(testing::FamilyName(family)) +
             (weighted ? "_Weighted" : "_Unit");
    }));

TEST(ContractionHierarchies, GridIsCheapToContract) {
  // Road-like topology: few shortcuts per node, small upward degree.
  Graph g = MakeTestGraph(Family::kGrid, 400, true, 3);
  auto built = ContractionHierarchy::Build(g);
  ASSERT_TRUE(built.ok());
  EXPECT_LT(built->MeanUpDegree(), 8.0);
  ContractionHierarchy::Scratch scratch;
  std::uint64_t settled = 0;
  (void)built->Query(0, g.NumVertices() - 1, &scratch, &settled);
  EXPECT_LT(settled, g.NumVertices() / 2);
}

TEST(ContractionHierarchies, SettledCountsStaySmallOnGrid) {
  Graph g = MakeTestGraph(Family::kGrid, 900, false, 4);
  auto built = ContractionHierarchy::Build(g);
  ASSERT_TRUE(built.ok());
  Rng rng(5);
  ContractionHierarchy::Scratch scratch;
  std::uint64_t total_settled = 0;
  for (int i = 0; i < 50; ++i) {
    VertexId s = static_cast<VertexId>(rng.Uniform(g.NumVertices()));
    VertexId t = static_cast<VertexId>(rng.Uniform(g.NumVertices()));
    std::uint64_t settled = 0;
    ASSERT_EQ(built->Query(s, t, &scratch, &settled), DijkstraP2P(g, s, t));
    total_settled += settled;
  }
  // CH's upward searches touch a tiny fraction of a road-like graph.
  EXPECT_LT(total_settled / 50, g.NumVertices() / 4);
}

}  // namespace
}  // namespace islabel
