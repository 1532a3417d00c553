// Shortest-path reconstruction tests (§8.1): returned paths must be
// genuine paths of the original graph whose length equals the exact
// distance.

#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>

#include "baseline/dijkstra.h"
#include "core/index.h"
#include "tests/test_common.h"

namespace islabel {
namespace {

using testing::Family;
using testing::MakeTestGraph;
using testing::SampleQueryPairs;

class PathTest : public ::testing::TestWithParam<
                     std::tuple<Family, bool, bool, int>> {};

TEST_P(PathTest, PathsAreValidAndShortest) {
  const auto [family, weighted, full_hierarchy, seed] = GetParam();
  // Below ~200 vertices the clique-community recipe peels completely, and
  // an empty G_k would leave the search's paths, and the vias TraceSide
  // reads from the G_k edges, untested.
  const VertexId n = family == Family::kCliqueCommunity ? 256 : 120;
  Graph g = MakeTestGraph(family, n, weighted, seed);
  IndexOptions opts;
  if (full_hierarchy) opts.forced_k = UINT32_MAX;
  auto built = ISLabelIndex::Build(g, opts);
  ASSERT_TRUE(built.ok());
  ISLabelIndex index = std::move(built).value();

  for (auto [s, t] : SampleQueryPairs(g, 80, seed * 31 + 5)) {
    std::vector<VertexId> path;
    Distance dist = 0;
    ASSERT_TRUE(index.ShortestPath(s, t, &path, &dist).ok())
        << "(" << s << "," << t << ")";
    const Distance expect = DijkstraP2P(g, s, t);
    ASSERT_EQ(dist, expect) << "(" << s << "," << t << ")";
    testing::AssertValidPath(g, s, t, path, dist);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, PathTest,
    ::testing::Combine(::testing::Values(Family::kErdosRenyi, Family::kRMat,
                                         Family::kGrid, Family::kStar,
                                         Family::kTree, Family::kCycle,
                                         Family::kBarabasiAlbert,
                                         Family::kDisconnected,
                                         Family::kCliqueCommunity),
                       ::testing::Bool(), ::testing::Bool(),
                       ::testing::Values(1, 2)),
    ([](const auto& info) {
      const auto [family, weighted, full, seed] = info.param;
      return std::string(testing::FamilyName(family)) +
             (weighted ? "_W" : "_U") + (full ? "_Full" : "_Klevel") + "_s" +
             std::to_string(seed);
    }));

TEST(Path, SameVertexPath) {
  Graph g = MakeTestGraph(Family::kGrid, 64, false, 1);
  auto built = ISLabelIndex::Build(g, IndexOptions{});
  ASSERT_TRUE(built.ok());
  ISLabelIndex index = std::move(built).value();
  std::vector<VertexId> path;
  Distance dist = 0;
  ASSERT_TRUE(index.ShortestPath(7, 7, &path, &dist).ok());
  EXPECT_EQ(dist, 0u);
  ASSERT_EQ(path.size(), 1u);
  EXPECT_EQ(path[0], 7u);
}

TEST(Path, AdjacentVertices) {
  EdgeList el(2);
  el.Add(0, 1, 9);
  Graph g = Graph::FromEdgeList(el);
  auto built = ISLabelIndex::Build(g, IndexOptions{});
  ASSERT_TRUE(built.ok());
  ISLabelIndex index = std::move(built).value();
  std::vector<VertexId> path;
  Distance dist = 0;
  ASSERT_TRUE(index.ShortestPath(0, 1, &path, &dist).ok());
  EXPECT_EQ(dist, 9u);
  EXPECT_EQ(path, (std::vector<VertexId>{0, 1}));
}

TEST(Path, UnreachableGivesEmptyPath) {
  EdgeList el(4);
  el.Add(0, 1, 1);
  el.Add(2, 3, 1);
  Graph g = Graph::FromEdgeList(el);
  auto built = ISLabelIndex::Build(g, IndexOptions{});
  ASSERT_TRUE(built.ok());
  ISLabelIndex index = std::move(built).value();
  std::vector<VertexId> path;
  Distance dist = 0;
  ASSERT_TRUE(index.ShortestPath(0, 3, &path, &dist).ok());
  EXPECT_EQ(dist, kInfDistance);
  EXPECT_TRUE(path.empty());
}

TEST(Path, RequiresVias) {
  Graph g = MakeTestGraph(Family::kErdosRenyi, 60, false, 3);
  IndexOptions opts;
  opts.keep_vias = false;
  auto built = ISLabelIndex::Build(g, opts);
  ASSERT_TRUE(built.ok());
  ISLabelIndex index = std::move(built).value();
  std::vector<VertexId> path;
  Distance dist = 0;
  Status st = index.ShortestPath(0, 1, &path, &dist);
  // Either the core has no edges (then paths still work) or the call must
  // be rejected; on this ER graph the core is non-trivial.
  EXPECT_TRUE(st.IsFailedPrecondition());
}

TEST(Path, PaperExampleK2Path) {
  // Example 6: dist(c, i) = 3; the only shortest path is c-b-e-i.
  Graph g = testing::PaperFigure1Graph();
  auto built = ISLabelIndex::Build(g, IndexOptions{});
  ASSERT_TRUE(built.ok());
  ISLabelIndex index = std::move(built).value();
  std::vector<VertexId> path;
  Distance dist = 0;
  ASSERT_TRUE(index.ShortestPath(testing::kC, testing::kI, &path, &dist).ok());
  EXPECT_EQ(dist, 3u);
  EXPECT_EQ(path, (std::vector<VertexId>{testing::kC, testing::kB,
                                         testing::kE, testing::kI}));
}

TEST(Path, LongWeightedPathExpandsFully) {
  // A long path graph collapses into few deeply-nested augmenting edges,
  // stressing the recursive expansion.
  EdgeList el = GeneratePath(400);
  Rng rng(5);
  AssignUniformWeights(&el, 1, 6, &rng);
  Graph g = Graph::FromEdgeList(el);
  auto built = ISLabelIndex::Build(g, IndexOptions{});
  ASSERT_TRUE(built.ok());
  ISLabelIndex index = std::move(built).value();
  std::vector<VertexId> path;
  Distance dist = 0;
  ASSERT_TRUE(index.ShortestPath(0, 399, &path, &dist).ok());
  ASSERT_EQ(path.size(), 400u);
  testing::AssertValidPath(g, 0, 399, path, dist);
}

}  // namespace
}  // namespace islabel
