// Integration tests: the full pipeline on bench-style synthetic datasets,
// all query methods cross-agreeing, and Table-3-style structural
// expectations.

#include <gtest/gtest.h>

#include <filesystem>

#include "baseline/dijkstra.h"
#include "baseline/vc_index.h"
#include "core/index.h"
#include "graph/components.h"
#include "graph/stats.h"
#include "tests/test_common.h"

namespace islabel {
namespace {

using testing::Family;
using testing::MakeTestGraph;
using testing::SampleQueryPairs;

TEST(Integration, AllMethodsAgreeOnSocialStandIn) {
  // A BA graph shaped like the paper's web-Google stand-in, scaled down.
  Rng rng(2024);
  Graph full = Graph::FromEdgeList(GenerateBarabasiAlbert(2000, 5, &rng));
  LargestComponent lcc = ExtractLargestComponent(full);
  const Graph& g = lcc.graph;

  auto is_built = ISLabelIndex::Build(g, IndexOptions{});
  ASSERT_TRUE(is_built.ok());
  ISLabelIndex index = std::move(is_built).value();

  auto vc_built = VcIndex::Build(g);
  ASSERT_TRUE(vc_built.ok());
  VcIndex vc = std::move(vc_built).value();

  // IM-DIJ: the index at k = 1.
  IndexOptions k1;
  k1.forced_k = 1;
  auto bi_built = ISLabelIndex::Build(g, k1);
  ASSERT_TRUE(bi_built.ok());
  ISLabelIndex bidij = std::move(bi_built).value();

  for (auto [s, t] : SampleQueryPairs(g, 200, 4242)) {
    Distance d_is = 0;
    ASSERT_TRUE(index.Query(s, t, &d_is).ok());
    const Distance d_dij = DijkstraP2P(g, s, t);
    Distance d_bi = 0;
    ASSERT_TRUE(bidij.Query(s, t, &d_bi).ok());
    const Distance d_vc = vc.QueryP2P(s, t);
    ASSERT_EQ(d_is, d_dij) << "IS-LABEL (" << s << "," << t << ")";
    ASSERT_EQ(d_bi, d_dij) << "IM-DIJ (" << s << "," << t << ")";
    ASSERT_EQ(d_vc, d_dij) << "VC-Index (" << s << "," << t << ")";
  }
}

TEST(Integration, BuildStatsAreConsistent) {
  Graph g = MakeTestGraph(Family::kRMat, 2048, false, 99);
  auto built = ISLabelIndex::Build(g, IndexOptions{});
  ASSERT_TRUE(built.ok());
  const BuildStats& bs = built->build_stats();

  EXPECT_GE(bs.k, 2u);
  EXPECT_EQ(bs.k, built->k());
  // The core is strictly smaller than the input (Table 3's |V_Gk| << |V|).
  EXPECT_LT(bs.core_vertices, g.NumVertices());
  EXPECT_EQ(bs.core_edges, built->hierarchy().g_k.NumEdges());
  // Every vertex has at least its self entry.
  EXPECT_GE(bs.label_entries, g.NumVertices());
  EXPECT_EQ(bs.level_stats.size(), bs.k);
  EXPECT_GT(bs.total_seconds, 0.0);
  // Level-1 row describes the input graph.
  EXPECT_EQ(bs.level_stats[0].num_vertices, g.NumVertices());
  EXPECT_EQ(bs.level_stats[0].num_edges, g.NumEdges());
}

TEST(Integration, DeeperKShrinksCoreGrowsLabels) {
  // The Table 6 trade-off: larger forced k => smaller G_k, larger labels.
  Graph g = MakeTestGraph(Family::kBarabasiAlbert, 1500, false, 7);
  IndexOptions small_k;
  small_k.forced_k = 2;
  IndexOptions big_k;
  big_k.forced_k = 6;
  auto a = ISLabelIndex::Build(g, small_k);
  auto b = ISLabelIndex::Build(g, big_k);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_GT(a->build_stats().core_vertices, b->build_stats().core_vertices);
  EXPECT_LT(a->build_stats().label_entries, b->build_stats().label_entries);
}

TEST(Integration, WeightedLccPipelineEndToEnd) {
  // Mirrors the Web stand-in: weights in {1,2}, LCC extraction, σ = 0.95.
  Rng rng(11);
  EdgeList el = GenerateRMat(11, 8 * (1u << 11), 0.57, 0.19, 0.19, &rng);
  AssignUniformWeights(&el, 1, 2, &rng);
  Graph full = Graph::FromEdgeList(std::move(el));
  LargestComponent lcc = ExtractLargestComponent(full);
  const Graph& g = lcc.graph;
  ASSERT_GT(g.NumVertices(), 100u);

  auto built = ISLabelIndex::Build(g, IndexOptions{});
  ASSERT_TRUE(built.ok());
  ISLabelIndex index = std::move(built).value();
  for (auto [s, t] : SampleQueryPairs(g, 150, 5)) {
    Distance d = 0;
    ASSERT_TRUE(index.Query(s, t, &d).ok());
    ASSERT_EQ(d, DijkstraP2P(g, s, t));
  }
}

TEST(Integration, SaveLoadQueryLifecycle) {
  Graph g = MakeTestGraph(Family::kWattsStrogatz, 800, true, 3);
  std::string dir = ::testing::TempDir() + "islabel_integration";
  std::filesystem::create_directories(dir);

  {
    auto built = ISLabelIndex::Build(g, IndexOptions{});
    ASSERT_TRUE(built.ok());
    ASSERT_TRUE(built->Save(dir).ok());
  }
  // Memory mode and disk mode agree with ground truth.
  auto mem = ISLabelIndex::Load(dir, true);
  auto disk = ISLabelIndex::Load(dir, false);
  ASSERT_TRUE(mem.ok());
  ASSERT_TRUE(disk.ok());
  for (auto [s, t] : SampleQueryPairs(g, 80, 9)) {
    Distance dm = 0, dd = 0;
    ASSERT_TRUE(mem->Query(s, t, &dm).ok());
    ASSERT_TRUE(disk->Query(s, t, &dd).ok());
    const Distance truth = DijkstraP2P(g, s, t);
    ASSERT_EQ(dm, truth);
    ASSERT_EQ(dd, truth);
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(Integration, KOneIndexRoundTripsThroughDisk) {
  // IM-DIJ's index: at k = 1, G_k is G and every label is {(v, 0)}. Saved,
  // then loaded with labels in memory and on disk, its distances and paths
  // stay exact.
  Graph g = MakeTestGraph(Family::kWattsStrogatz, 400, true, 5);
  IndexOptions k1;
  k1.forced_k = 1;
  auto built = ISLabelIndex::Build(g, k1);
  ASSERT_TRUE(built.ok());
  const std::string dir = ::testing::TempDir() + "islabel_k1";
  ASSERT_TRUE(built->Save(dir).ok());
  for (const bool in_memory : {true, false}) {
    auto loaded = ISLabelIndex::Load(dir, in_memory);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->k(), 1u);
    for (auto [s, t] : SampleQueryPairs(g, 80, 6)) {
      const Distance truth = DijkstraP2P(g, s, t);
      Distance d = 0;
      ASSERT_TRUE(loaded->Query(s, t, &d).ok());
      ASSERT_EQ(d, truth) << "(" << s << "," << t << ")";
      std::vector<VertexId> path;
      ASSERT_TRUE(loaded->ShortestPath(s, t, &path, &d).ok());
      testing::AssertValidPath(g, s, t, path, d);
      ASSERT_EQ(d, truth) << "(" << s << "," << t << ")";
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(Integration, ServedIndexKeepsNoAncestorDag) {
  // Only labeling reads the ancestor DAG (removed_adj and the members of
  // each level), so a served index holds none of it: not after either
  // build pipeline, not after Load, not after an insert.
  Graph g = MakeTestGraph(Family::kBarabasiAlbert, 300, true, 17);
  const std::string dir = ::testing::TempDir() + "islabel_no_dag";
  const auto expect_no_dag = [](const ISLabelIndex& index) {
    EXPECT_TRUE(index.hierarchy().removed_adj.empty());
    EXPECT_TRUE(index.hierarchy().levels.empty());
  };
  IndexOptions external;
  external.memory_budget_bytes = 1 << 16;
  external.tmp_dir = ::testing::TempDir();
  for (const IndexOptions& opts : {IndexOptions{}, external}) {
    auto built = ISLabelIndex::Build(g, opts);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    ASSERT_GE(built->k(), 2u);  // there was a DAG to release
    expect_no_dag(*built);
    ASSERT_TRUE(built->Save(dir).ok());
  }
  auto on_disk = ISLabelIndex::Load(dir, /*labels_in_memory=*/false);
  ASSERT_TRUE(on_disk.ok());
  expect_no_dag(*on_disk);
  auto loaded = ISLabelIndex::Load(dir, /*labels_in_memory=*/true);
  ASSERT_TRUE(loaded.ok());
  expect_no_dag(*loaded);

  const VertexId v = loaded->NumVertices();
  ASSERT_TRUE(loaded->InsertVertex(v, {{0, 2}}).ok());
  expect_no_dag(*loaded);
  Distance d = 0;
  ASSERT_TRUE(loaded->Query(v, 5, &d).ok());
  EXPECT_EQ(d, 2 + DijkstraP2P(g, 0, 5));
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(Integration, QueryStatsDistinguishTimeAAndTimeB) {
  Graph g = MakeTestGraph(Family::kBarabasiAlbert, 1000, false, 13);
  auto built = ISLabelIndex::Build(g, IndexOptions{});
  ASSERT_TRUE(built.ok());
  ISLabelIndex index = std::move(built).value();
  double time_a = 0.0, time_b = 0.0;
  std::uint64_t searches = 0;
  for (auto [s, t] : SampleQueryPairs(g, 100, 21)) {
    Distance d;
    QueryStats stats;
    ASSERT_TRUE(index.Query(s, t, &d, &stats).ok());
    time_a += stats.label_fetch_seconds;
    time_b += stats.search_seconds;
    searches += stats.used_search;
  }
  // On a connected BA graph with k-level termination, most random queries
  // reach the core (Type 2 / search).
  EXPECT_GT(searches, 50u);
  EXPECT_GE(time_a, 0.0);
  EXPECT_GT(time_b, 0.0);
}

}  // namespace
}  // namespace islabel
