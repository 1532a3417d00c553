// The I/O-efficient construction pipeline (§6.1) must produce a hierarchy
// and labels bit-identical to the in-memory pipeline, while actually
// touching disk (counted I/O).

#include <unistd.h>

#include <gtest/gtest.h>

#include <filesystem>
#include <tuple>

#include "baseline/dijkstra.h"
#include "core/index.h"
#include "core/labeling.h"
#include "tests/test_common.h"

namespace islabel {
namespace {

using testing::Family;
using testing::MakeTestGraph;

class ExternalPipelineTest
    : public ::testing::TestWithParam<std::tuple<Family, bool>> {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "islabel_ext_" +
           std::to_string(::getpid()) + "_" +
           std::to_string(reinterpret_cast<std::uintptr_t>(this));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string dir_;
};

void ExpectHierarchiesEqual(const VertexHierarchy& a,
                            const VertexHierarchy& b) {
  ASSERT_EQ(a.k, b.k);
  ASSERT_EQ(a.level, b.level);
  ASSERT_EQ(a.levels.size(), b.levels.size());
  for (std::size_t i = 1; i < a.levels.size(); ++i) {
    ASSERT_EQ(a.levels[i], b.levels[i]) << "level " << i;
  }
  ASSERT_EQ(a.removed_adj.size(), b.removed_adj.size());
  for (VertexId v = 0; v < a.removed_adj.size(); ++v) {
    ASSERT_EQ(a.removed_adj[v], b.removed_adj[v]) << "vertex " << v;
  }
  // Core graphs identical edge for edge, in the same dense numbering.
  ASSERT_EQ(a.core_vertex, b.core_vertex);
  ASSERT_EQ(a.g_k.NumVertices(), b.g_k.NumVertices());
  ASSERT_EQ(a.g_k.NumEdges(), b.g_k.NumEdges());
  for (VertexId v = 0; v < a.g_k.NumVertices(); ++v) {
    auto na = a.g_k.Neighbors(v), nb = b.g_k.Neighbors(v);
    ASSERT_EQ(na.size(), nb.size()) << "core degree of " << v;
    for (std::size_t i = 0; i < na.size(); ++i) {
      ASSERT_EQ(na[i], nb[i]);
      ASSERT_EQ(a.g_k.NeighborWeights(v)[i], b.g_k.NeighborWeights(v)[i]);
      if (a.g_k.has_vias() && b.g_k.has_vias()) {
        ASSERT_EQ(a.g_k.NeighborVias(v)[i], b.g_k.NeighborVias(v)[i]);
      }
    }
  }
}

TEST_P(ExternalPipelineTest, MatchesInMemoryPipeline) {
  const auto [family, weighted] = GetParam();
  Graph g = MakeTestGraph(family, 300, weighted, 21);

  IndexOptions mem_opts;
  auto mem = BuildHierarchy(g, mem_opts);
  ASSERT_TRUE(mem.ok());

  IndexOptions ext_opts;
  ext_opts.memory_budget_bytes = 4096;  // force many sort runs
  ext_opts.tmp_dir = dir_;
  auto ext = BuildHierarchy(g, ext_opts);
  ASSERT_TRUE(ext.ok()) << ext.status().ToString();

  ExpectHierarchiesEqual(*mem, *ext);
  EXPECT_GT(ext->io.bytes_written, 0u);
  EXPECT_GT(ext->io.bytes_read, 0u);

  // Labels computed from the external hierarchy are identical too — the
  // arenas compare slab-equal.
  LabelArena lm = ComputeLabelsTopDown(*mem);
  LabelArena le = ComputeLabelsTopDown(*ext);
  ASSERT_EQ(lm.size(), le.size());
  EXPECT_TRUE(lm == le);
}

INSTANTIATE_TEST_SUITE_P(
    Families, ExternalPipelineTest,
    ::testing::Combine(::testing::Values(Family::kErdosRenyi, Family::kRMat,
                                         Family::kBarabasiAlbert,
                                         Family::kGrid, Family::kStar,
                                         Family::kDisconnected),
                       ::testing::Bool()),
    ([](const auto& info) {
      const auto [family, weighted] = info.param;
      return std::string(testing::FamilyName(family)) +
             (weighted ? "_Weighted" : "_Unit");
    }));

TEST_F(ExternalPipelineTest, LPrimeBufferOverflowPathEquivalent) {
  // A budget of 8 vertex ids gives L' a capacity of 8, which triggers the
  // lines-10-11 rewrite repeatedly; the result must not change.
  Graph g = MakeTestGraph(Family::kRMat, 256, true, 33);
  auto mem = BuildHierarchy(g, IndexOptions{});
  ASSERT_TRUE(mem.ok());

  IndexOptions ext_opts;
  ext_opts.memory_budget_bytes = 8 * sizeof(VertexId);
  ext_opts.tmp_dir = dir_;
  auto ext = BuildHierarchy(g, ext_opts);
  ASSERT_TRUE(ext.ok()) << ext.status().ToString();
  ExpectHierarchiesEqual(*mem, *ext);
}

TEST_F(ExternalPipelineTest, EndToEndIndexViaExternalBuild) {
  Graph g = MakeTestGraph(Family::kBarabasiAlbert, 250, true, 44);
  IndexOptions opts;
  opts.memory_budget_bytes = 8192;
  opts.tmp_dir = dir_;
  auto built = ISLabelIndex::Build(g, opts);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ISLabelIndex index = std::move(built).value();
  EXPECT_GT(index.build_stats().io.bytes_written, 0u);

  SsspResult sssp = DijkstraSssp(g, 11);
  for (VertexId t = 0; t < g.NumVertices(); ++t) {
    Distance d = 0;
    ASSERT_TRUE(index.Query(11, t, &d).ok());
    ASSERT_EQ(d, sssp.dist[t]);
  }
}

TEST_F(ExternalPipelineTest, ForcedKRespectedExternally) {
  Graph g = MakeTestGraph(Family::kErdosRenyi, 200, false, 3);
  IndexOptions opts;
  opts.memory_budget_bytes = 4096;
  opts.tmp_dir = dir_;
  SsspResult sssp = DijkstraSssp(g, 7);
  for (std::uint32_t k : {1u, 3u}) {
    opts.forced_k = k;
    auto ext = ISLabelIndex::Build(g, opts);
    ASSERT_TRUE(ext.ok()) << ext.status().ToString();
    EXPECT_EQ(ext->k(), k);
    for (VertexId t = 0; t < g.NumVertices(); ++t) {
      Distance d = 0;
      ASSERT_TRUE(ext->Query(7, t, &d).ok());
      ASSERT_EQ(d, sssp.dist[t]) << "k " << k << ", target " << t;
    }
  }
}

TEST_F(ExternalPipelineTest, RandomOrderUnsupportedExternally) {
  Graph g = MakeTestGraph(Family::kPath, 50, false, 1);
  IndexOptions opts;
  opts.memory_budget_bytes = 4096;
  opts.tmp_dir = dir_;
  opts.is_order = IsOrder::kRandom;
  auto ext = BuildHierarchy(g, opts);
  ASSERT_FALSE(ext.ok());
  EXPECT_TRUE(ext.status().IsNotSupported());
}

class ExternalLabelingTest
    : public ::testing::TestWithParam<std::tuple<Family, std::size_t>> {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "islabel_extlab_" +
           std::to_string(::getpid()) + "_" +
           std::to_string(reinterpret_cast<std::uintptr_t>(this));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string dir_;
};

TEST_P(ExternalLabelingTest, BlockJoinMatchesInMemoryLabeling) {
  const auto [family, budget] = GetParam();
  Graph g = MakeTestGraph(family, 250, /*weighted=*/true, 17);
  auto h = BuildHierarchy(g, IndexOptions{});
  ASSERT_TRUE(h.ok());

  LabelArena in_memory = ComputeLabelsTopDown(*h);

  IndexOptions opts;
  opts.memory_budget_bytes = budget;  // tiny budgets force many BL blocks
  opts.tmp_dir = dir_;
  LabelingStats stats;
  IoStats io;
  auto external = ComputeLabelsTopDownExternal(*h, opts, &stats, &io);
  ASSERT_TRUE(external.ok()) << external.status().ToString();

  ASSERT_EQ(external->size(), in_memory.size());
  std::uint64_t total = 0;
  for (VertexId v = 0; v < in_memory.size(); ++v) {
    ASSERT_EQ((*external)[v].size(), in_memory[v].size()) << "vertex " << v;
    for (std::size_t i = 0; i < in_memory[v].size(); ++i) {
      ASSERT_EQ((*external)[v][i], in_memory[v][i])
          << "vertex " << v << " entry " << i;
    }
    total += in_memory[v].size();
  }
  EXPECT_TRUE(*external == in_memory);
  EXPECT_EQ(stats.total_entries, total);
  EXPECT_GT(io.bytes_read, 0u);
  EXPECT_GT(io.bytes_written, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    BudgetsAndFamilies, ExternalLabelingTest,
    ::testing::Combine(::testing::Values(Family::kErdosRenyi, Family::kRMat,
                                         Family::kGrid, Family::kTree,
                                         Family::kBarabasiAlbert),
                       ::testing::Values(std::size_t{1}, std::size_t{4096},
                                         std::size_t{1u << 20})),
    ([](const auto& info) {
      const auto [family, budget] = info.param;
      return std::string(testing::FamilyName(family)) + "_b" +
             std::to_string(budget);
    }));

TEST_F(ExternalPipelineTest, FullyExternalBuildAnswersExactly) {
  // memory_budget routes BOTH the hierarchy and the labeling through the
  // external pipelines; the result must still be an exact index.
  Graph g = MakeTestGraph(Family::kRMat, 300, true, 55);
  IndexOptions opts;
  opts.memory_budget_bytes = 2048;
  opts.tmp_dir = dir_;
  auto built = ISLabelIndex::Build(g, opts);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ISLabelIndex index = std::move(built).value();
  for (auto [s, t] : testing::SampleQueryPairs(g, 120, 3)) {
    Distance d = 0;
    ASSERT_TRUE(index.Query(s, t, &d).ok());
    ASSERT_EQ(d, DijkstraP2P(g, s, t));
  }
}

TEST_F(ExternalPipelineTest, TempFilesCleanedUp) {
  Graph g = MakeTestGraph(Family::kErdosRenyi, 150, false, 5);
  IndexOptions opts;
  opts.memory_budget_bytes = 4096;
  opts.tmp_dir = dir_;
  ASSERT_TRUE(BuildHierarchy(g, opts).ok());
  // The labeling join's BU file too.
  ASSERT_TRUE(ISLabelIndex::Build(g, opts).ok());
  std::size_t leftovers = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    (void)entry;
    ++leftovers;
  }
  EXPECT_EQ(leftovers, 0u) << "spill files must be removed";
}

}  // namespace
}  // namespace islabel
