// Index persistence: Save/Load round-trips in both label modes, and
// corruption handling.

#include <unistd.h>

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>

#include "baseline/dijkstra.h"
#include "core/index.h"
#include "graph/graph_io.h"
#include "tests/test_common.h"

namespace islabel {
namespace {

using testing::Family;
using testing::MakeTestGraph;
using testing::SampleQueryPairs;

class IndexIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "islabel_io_" +
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

TEST_F(IndexIoTest, SaveLoadInMemoryRoundTrip) {
  Graph g = MakeTestGraph(Family::kBarabasiAlbert, 300, true, 19);
  auto built = ISLabelIndex::Build(g, IndexOptions{});
  ASSERT_TRUE(built.ok());
  ISLabelIndex index = std::move(built).value();
  ASSERT_TRUE(index.Save(dir_).ok());

  auto loaded = ISLabelIndex::Load(dir_, /*labels_in_memory=*/true);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ISLabelIndex back = std::move(loaded).value();

  EXPECT_EQ(back.k(), index.k());
  EXPECT_EQ(back.NumVertices(), index.NumVertices());
  for (VertexId v = 0; v < index.NumVertices(); ++v) {
    EXPECT_EQ(back.LevelOf(v), index.LevelOf(v));
  }
  // Labels identical.
  ASSERT_EQ(back.labels().size(), index.labels().size());
  for (VertexId v = 0; v < index.NumVertices(); ++v) {
    ASSERT_EQ(back.labels()[v].size(), index.labels()[v].size());
    for (std::size_t i = 0; i < index.labels()[v].size(); ++i) {
      EXPECT_EQ(back.labels()[v][i], index.labels()[v][i]);
    }
  }
  // Queries identical.
  for (auto [s, t] : SampleQueryPairs(g, 100, 23)) {
    Distance d1 = 0, d2 = 0;
    ASSERT_TRUE(index.Query(s, t, &d1).ok());
    ASSERT_TRUE(back.Query(s, t, &d2).ok());
    ASSERT_EQ(d1, d2);
  }
}

TEST_F(IndexIoTest, ArenaRoundTripsSlabIdenticalInBothModes) {
  Graph g = MakeTestGraph(Family::kRMat, 256, true, 47);
  auto built = ISLabelIndex::Build(g, IndexOptions{});
  ASSERT_TRUE(built.ok());
  ISLabelIndex index = std::move(built).value();
  ASSERT_TRUE(index.Save(dir_).ok());

  // IM mode: the loaded arena (bulk slab decode) must equal the built one
  // slab-for-slab, offsets included.
  auto im = ISLabelIndex::Load(dir_, /*labels_in_memory=*/true);
  ASSERT_TRUE(im.ok());
  EXPECT_TRUE(im->labels() == index.labels());

  // Disk mode: per-vertex positioned reads must decode to the same views.
  auto disk = ISLabelIndex::Load(dir_, /*labels_in_memory=*/false);
  ASSERT_TRUE(disk.ok());
  ASSERT_TRUE(disk->labels_on_disk());
  std::vector<LabelEntry> got;
  for (VertexId v = 0; v < index.NumVertices(); ++v) {
    ASSERT_TRUE(disk->label_store()->GetLabel(v, &got).ok());
    EXPECT_TRUE(LabelView(got) == index.labels().View(v)) << "vertex " << v;
  }
}

TEST_F(IndexIoTest, SaveAfterUpdatesPersistsSideTable) {
  // §8.3 patches live in the arena's overflow side-table; Save must fold
  // them into the file so a reload (either mode) sees the patched labels.
  Graph g = MakeTestGraph(Family::kBarabasiAlbert, 120, true, 53);
  auto built = ISLabelIndex::Build(g, IndexOptions{});
  ASSERT_TRUE(built.ok());
  ISLabelIndex index = std::move(built).value();
  const VertexId v = g.NumVertices();
  ASSERT_TRUE(index.InsertVertex(v, {{0, 2}, {7, 1}}).ok());
  ASSERT_GT(index.labels().SideTableSize(), 0u);
  ASSERT_TRUE(index.Save(dir_).ok());

  for (bool in_memory : {true, false}) {
    auto loaded = ISLabelIndex::Load(dir_, in_memory);
    ASSERT_TRUE(loaded.ok()) << (in_memory ? "IM" : "disk");
    ISLabelIndex back = std::move(loaded).value();
    ASSERT_EQ(back.NumVertices(), index.NumVertices());
    for (auto [s, t] : SampleQueryPairs(g, 60, 13)) {
      Distance d1 = 0, d2 = 0;
      ASSERT_TRUE(index.Query(s, t, &d1).ok());
      ASSERT_TRUE(back.Query(s, t, &d2).ok());
      ASSERT_EQ(d1, d2);
    }
    Distance d1 = 0, d2 = 0;
    ASSERT_TRUE(index.Query(v, 3, &d1).ok());
    ASSERT_TRUE(back.Query(v, 3, &d2).ok());
    EXPECT_EQ(d1, d2);
  }
}

TEST_F(IndexIoTest, LoadedIndexSupportsPaths) {
  Graph g = MakeTestGraph(Family::kRMat, 128, true, 7);
  auto built = ISLabelIndex::Build(g, IndexOptions{});
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(built->Save(dir_).ok());
  auto loaded = ISLabelIndex::Load(dir_, true);
  ASSERT_TRUE(loaded.ok());
  ISLabelIndex back = std::move(loaded).value();
  for (auto [s, t] : SampleQueryPairs(g, 40, 3)) {
    std::vector<VertexId> path;
    Distance dist = 0;
    ASSERT_TRUE(back.ShortestPath(s, t, &path, &dist).ok());
    ASSERT_EQ(dist, DijkstraP2P(g, s, t));
    testing::AssertValidPath(g, s, t, path, dist);
  }
}

TEST_F(IndexIoTest, DiskResidentModeCountsOneIoPerLabel) {
  Graph g = MakeTestGraph(Family::kBarabasiAlbert, 200, false, 31);
  auto built = ISLabelIndex::Build(g, IndexOptions{});
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(built->Save(dir_).ok());
  auto loaded = ISLabelIndex::Load(dir_, /*labels_in_memory=*/false);
  ASSERT_TRUE(loaded.ok());
  ISLabelIndex disk = std::move(loaded).value();
  ASSERT_TRUE(disk.labels_on_disk());
  ASSERT_NE(disk.label_store(), nullptr);

  // Two below-core endpoints (core labels are synthesized without I/O),
  // far apart so the reads cannot coalesce into one sequential run.
  VertexId s_v = kInvalidVertex, t_v = kInvalidVertex;
  for (VertexId v = 0; v < disk.NumVertices(); ++v) {
    if (disk.InCore(v)) continue;
    if (s_v == kInvalidVertex) {
      s_v = v;
    } else {
      t_v = v;  // keep the last one: maximal distance in the file
    }
  }
  ASSERT_NE(t_v, kInvalidVertex);
  disk.label_store()->ResetStats();
  Distance d;
  QueryStats stats;
  ASSERT_TRUE(disk.Query(s_v, t_v, &d, &stats).ok());
  EXPECT_EQ(stats.label_ios, 2u);
  // The store's own accounting agrees: two positioned reads.
  EXPECT_EQ(disk.label_store()->stats().block_reads, 2u);
  EXPECT_GE(disk.label_store()->stats().seeks, 1u);
}

TEST_F(IndexIoTest, SavingDiskResidentIndexRejected) {
  Graph g = MakeTestGraph(Family::kPath, 50, false, 1);
  auto built = ISLabelIndex::Build(g, IndexOptions{});
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(built->Save(dir_).ok());
  auto loaded = ISLabelIndex::Load(dir_, false);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->Save(dir_).IsNotSupported());
}

TEST_F(IndexIoTest, LoadMissingDirectoryFails) {
  auto loaded = ISLabelIndex::Load(dir_ + "/does_not_exist", true);
  EXPECT_FALSE(loaded.ok());
}

TEST_F(IndexIoTest, CorruptedMetaDetected) {
  Graph g = MakeTestGraph(Family::kPath, 30, false, 1);
  auto built = ISLabelIndex::Build(g, IndexOptions{});
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(built->Save(dir_).ok());
  // Flip the magic.
  {
    std::FILE* f = std::fopen((dir_ + "/meta.islm").c_str(), "r+b");
    std::fputc('X', f);
    std::fclose(f);
  }
  auto loaded = ISLabelIndex::Load(dir_, true);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption());
}

TEST_F(IndexIoTest, KeepViasFalseRoundTrips) {
  Graph g = MakeTestGraph(Family::kErdosRenyi, 100, true, 5);
  IndexOptions opts;
  opts.keep_vias = false;
  auto built = ISLabelIndex::Build(g, opts);
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(built->Save(dir_).ok());
  auto loaded = ISLabelIndex::Load(dir_, true);
  ASSERT_TRUE(loaded.ok());
  ISLabelIndex back = std::move(loaded).value();
  for (auto [s, t] : SampleQueryPairs(g, 50, 9)) {
    Distance d = 0;
    ASSERT_TRUE(back.Query(s, t, &d).ok());
    ASSERT_EQ(d, DijkstraP2P(g, s, t));
  }
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// G_k is searched in dense ids but persisted in global ids: Save -> Load
// -> Save must reproduce core.islg byte for byte, with and without vias,
// after updates, and whichever label mode the index was loaded in (a
// disk-resident index cannot Save, so its core is written directly).
TEST_F(IndexIoTest, CoreFileRoundTripsByteIdentical) {
  for (const bool keep_vias : {true, false}) {
    SCOPED_TRACE(keep_vias ? "vias" : "no vias");
    Graph g = MakeTestGraph(Family::kDisconnected, 160, true, 23);
    IndexOptions opts;
    opts.forced_k = 2;
    opts.keep_vias = keep_vias;
    auto built = ISLabelIndex::Build(g, opts);
    ASSERT_TRUE(built.ok());
    ISLabelIndex index = std::move(built).value();
    // Searched in (weight, id) order, whichever way G_k was installed.
    EXPECT_TRUE(testing::ListsAreWeightOrdered(index.hierarchy().g_k));
    ASSERT_TRUE(index.InsertVertex(index.NumVertices(), {{0, 3}, {90, 2}}).ok());
    EXPECT_TRUE(testing::ListsAreWeightOrdered(index.hierarchy().g_k));
    VertexId core = 0;
    while (!index.InCore(core)) ++core;
    ASSERT_TRUE(index.DeleteVertex(core).ok());
    EXPECT_TRUE(testing::ListsAreWeightOrdered(index.hierarchy().g_k));

    const std::string first = dir_ + "/first", second = dir_ + "/second";
    ASSERT_TRUE(index.Save(first).ok());
    const std::string core_bytes = ReadBytes(first + "/core.islg");
    ASSERT_FALSE(core_bytes.empty());

    auto in_memory = ISLabelIndex::Load(first, /*labels_in_memory=*/true);
    ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();
    EXPECT_TRUE(testing::ListsAreWeightOrdered(in_memory->hierarchy().g_k));
    ASSERT_TRUE(in_memory->Save(second).ok());
    for (const char* name : {"core.islg", "meta.islm", "labels.isl"}) {
      EXPECT_EQ(ReadBytes(second + "/" + name),
                ReadBytes(first + "/" + name))
          << name;
    }

    auto on_disk = ISLabelIndex::Load(first, /*labels_in_memory=*/false);
    ASSERT_TRUE(on_disk.ok()) << on_disk.status().ToString();
    const VertexHierarchy& h = on_disk->hierarchy();
    EXPECT_TRUE(testing::ListsAreWeightOrdered(h.g_k));
    ASSERT_TRUE(WriteGraphBinary(h.GlobalCore(), dir_ + "/disk.islg").ok());
    EXPECT_EQ(ReadBytes(dir_ + "/disk.islg"), core_bytes);
  }
}

TEST_F(IndexIoTest, CoreEdgeLeavingLevelKIsCorruption) {
  Graph g = MakeTestGraph(Family::kBarabasiAlbert, 120, true, 3);
  auto built = ISLabelIndex::Build(g, IndexOptions{});
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(built->Save(dir_).ok());
  VertexId core = 0, below = 0;
  while (!built->InCore(core)) ++core;
  while (built->InCore(below)) ++below;
  EdgeList bad = built->hierarchy().GlobalCore().ToEdgeList();
  bad.Add(core, below, 1);
  ASSERT_TRUE(WriteGraphBinary(Graph::FromEdgeList(std::move(bad), true),
                               dir_ + "/core.islg")
                  .ok());
  auto loaded = ISLabelIndex::Load(dir_, true);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
}

}  // namespace
}  // namespace islabel
