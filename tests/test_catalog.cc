// Tests for the partitioned index catalog: the component partitioner and
// its id remapping, PartitionedIndex query equivalence against a
// monolithic ISLabelIndex (distances, paths, batches, one-to-many, fresh
// and reloaded), the O(1) cross-component answer path, Catalog
// multi-dataset hosting and hot-swap reload through one install path, the
// catalog protocol verbs, and a loopback TCP fixture where concurrent
// clients query across live reloads. The whole file runs under the TSan
// preset in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/partitioned_index.h"
#include "core/distance_cache.h"
#include "core/index.h"
#include "graph/components.h"
#include "loopback_client.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs_test_util.h"
#include "server/dispatcher.h"
#include "server/protocol.h"
#include "server/query_cache.h"
#include "server/tcp_server.h"
#include "tests/test_common.h"
#include "util/clock.h"
#include "util/mutex.h"

namespace islabel {
namespace {

using server::ParseRequest;
using server::QueryCache;
using server::Request;
using server::RequestDispatcher;
using server::RequestKind;
using server::TcpServer;
using server::TcpServerOptions;
using testing::AssertValidPath;
using testing::Family;
using testing::LoopbackClient;
using testing::MakeTestGraph;
using testing::SampleQueryPairs;

/// Deterministic disconnected test graph: two ER components plus
/// trailing isolated vertices (Family::kDisconnected).
Graph DisconnectedGraph(VertexId n, std::uint64_t seed) {
  return MakeTestGraph(Family::kDisconnected, n, /*weighted=*/true, seed);
}

class CatalogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("islabel_catalog_test_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string Path(const std::string& name) const { return dir_ + "/" + name; }

  std::string dir_;
};

// ---------------------------------------------------------------------------
// ComponentPartitioner
// ---------------------------------------------------------------------------

TEST(Partitioner, MapsEveryVertexBijectively) {
  Graph g = DisconnectedGraph(200, 5);
  GraphPartition p = ComponentPartitioner::Partition(g);
  const ComponentsResult comps = FindComponents(g);
  ASSERT_EQ(p.num_components, comps.num_components);
  ASSERT_EQ(p.component.size(), g.NumVertices());

  std::uint64_t covered = 0;
  for (std::uint32_t i = 0; i < p.parts.size(); ++i) {
    const GraphPart& part = p.parts[i];
    ASSERT_EQ(part.graph.NumVertices(), part.global_ids.size());
    for (VertexId local = 0; local < part.global_ids.size(); ++local) {
      const VertexId v = part.global_ids[local];
      EXPECT_EQ(p.component[v], part.component);
      EXPECT_EQ(p.local_id[v], local);
      EXPECT_EQ(p.part_of_component[p.component[v]], i);
    }
    // Local ids ascend with global ids (deterministic remap).
    for (VertexId local = 1; local < part.global_ids.size(); ++local) {
      EXPECT_LT(part.global_ids[local - 1], part.global_ids[local]);
    }
    covered += part.global_ids.size();
  }
  // Vertices outside every part are exactly the singletons.
  std::uint64_t singletons = 0;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (p.part_of_component[p.component[v]] == GraphPartition::kNoPart) {
      EXPECT_EQ(g.Degree(v), 0u);
      ++singletons;
    }
  }
  EXPECT_EQ(covered + singletons, g.NumVertices());
}

TEST(Partitioner, InducedEdgesPreserveWeights) {
  Graph g = DisconnectedGraph(120, 9);
  GraphPartition p = ComponentPartitioner::Partition(g);
  std::uint64_t edges = 0;
  for (const GraphPart& part : p.parts) {
    edges += part.graph.NumEdges();
    for (VertexId lu = 0; lu < part.graph.NumVertices(); ++lu) {
      auto nbrs = part.graph.Neighbors(lu);
      auto ws = part.graph.NeighborWeights(lu);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        EXPECT_EQ(g.EdgeWeight(part.global_ids[lu], part.global_ids[nbrs[i]]),
                  ws[i]);
      }
    }
  }
  EXPECT_EQ(edges, g.NumEdges());
}

// ---------------------------------------------------------------------------
// PartitionedIndex vs a monolithic ISLabelIndex
// ---------------------------------------------------------------------------

class PartitionedIndexTest : public CatalogTest {
 protected:
  void BuildBoth(VertexId n, std::uint64_t seed) {
    graph_ = DisconnectedGraph(n, seed);
    auto mono = ISLabelIndex::Build(graph_);
    ASSERT_TRUE(mono.ok());
    mono_ = std::make_unique<ISLabelIndex>(std::move(mono).value());
    auto part = PartitionedIndex::Build(graph_);
    ASSERT_TRUE(part.ok()) << part.status().ToString();
    part_ = std::make_unique<PartitionedIndex>(std::move(part).value());
    ASSERT_GT(part_->num_components(), 1u);
  }

  void ExpectDistancesMatch(PartitionedIndex* index) {
    const auto pairs = SampleQueryPairs(graph_, 300, 17);
    for (const auto& [s, t] : pairs) {
      Distance expect = 0, got = 0;
      ASSERT_TRUE(mono_->Query(s, t, &expect).ok());
      ASSERT_TRUE(index->Query(s, t, &got).ok());
      ASSERT_EQ(got, expect) << "(" << s << ", " << t << ")";
    }
  }

  Graph graph_;
  std::unique_ptr<ISLabelIndex> mono_;
  std::unique_ptr<PartitionedIndex> part_;
};

TEST_F(PartitionedIndexTest, DistancesMatchMonolithic) {
  BuildBoth(300, 11);
  ExpectDistancesMatch(part_.get());
}

TEST_F(PartitionedIndexTest, CrossComponentAnswersWithoutEngine) {
  BuildBoth(200, 3);
  // Pick one vertex per component of the two big parts.
  ASSERT_GE(part_->num_parts(), 2u);
  const VertexId s = part_->part_global_ids(0)[0];
  const VertexId t = part_->part_global_ids(1)[0];
  ASSERT_NE(part_->ComponentOf(s), part_->ComponentOf(t));

  // Engines every part has created so far: a part's first lease creates
  // one, so a count that stays at zero proves no lease was taken.
  auto engines_created = [&](std::uint32_t p) {
    auto* index = dynamic_cast<ISLabelIndex*>(part_->mutable_part(p));
    EXPECT_NE(index, nullptr);
    return index == nullptr ? 0u : index->engine_pool()->EnginesCreated();
  };
  for (std::uint32_t p = 0; p < part_->num_parts(); ++p) {
    ASSERT_EQ(engines_created(p), 0u) << "part " << p;
  }
  Distance d = 0;
  ASSERT_TRUE(part_->Query(s, t, &d).ok());
  EXPECT_EQ(d, kInfDistance);
  std::vector<VertexId> path;
  ASSERT_TRUE(part_->ShortestPath(s, t, &path, &d).ok());
  EXPECT_EQ(d, kInfDistance);
  EXPECT_TRUE(path.empty());
  // Both answers came straight from the partition map: no sub-index was
  // touched.
  for (std::uint32_t p = 0; p < part_->num_parts(); ++p) {
    EXPECT_EQ(engines_created(p), 0u) << "part " << p;
  }

  // A same-component query does lease an engine.
  const VertexId t2 = part_->part_global_ids(0)[1];
  ASSERT_TRUE(part_->Query(s, t2, &d).ok());
  EXPECT_EQ(engines_created(0), 1u);
}

TEST_F(PartitionedIndexTest, PathsRemapToOriginalIds) {
  BuildBoth(240, 7);
  const auto pairs = SampleQueryPairs(graph_, 120, 23);
  for (const auto& [s, t] : pairs) {
    Distance expect = 0;
    ASSERT_TRUE(mono_->Query(s, t, &expect).ok());
    std::vector<VertexId> path;
    Distance d = 0;
    ASSERT_TRUE(part_->ShortestPath(s, t, &path, &d).ok());
    ASSERT_EQ(d, expect);
    AssertValidPath(graph_, s, t, path, d);
  }
}

TEST_F(PartitionedIndexTest, BatchMatchesWithPerPairStatuses) {
  BuildBoth(200, 29);
  auto pairs = SampleQueryPairs(graph_, 150, 31);
  pairs.emplace_back(0, graph_.NumVertices() + 5);  // out of range
  pairs.emplace_back(1, 2);

  std::vector<Distance> expect, got;
  std::vector<Status> expect_st, got_st;
  ASSERT_TRUE(mono_->QueryBatch(pairs, &expect, 2, &expect_st).ok());
  ASSERT_TRUE(part_->QueryBatch(pairs, &got, 2, &got_st).ok());
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(got[i], expect[i]) << "pair " << i;
    EXPECT_EQ(got_st[i].code(), expect_st[i].code()) << "pair " << i;
  }
  // Without a statuses vector the first per-pair error surfaces.
  EXPECT_FALSE(part_->QueryBatch(pairs, &got).ok());
}

TEST_F(PartitionedIndexTest, OneToManyMixesComponents) {
  BuildBoth(200, 37);
  const VertexId s = part_->part_global_ids(0)[3];
  std::vector<VertexId> targets;
  for (VertexId t = 0; t < graph_.NumVertices(); t += 7) targets.push_back(t);

  std::vector<Distance> expect, got;
  ASSERT_TRUE(mono_->QueryOneToMany(s, targets, &expect).ok());
  ASSERT_TRUE(part_->QueryOneToMany(s, targets, &got).ok());
  EXPECT_EQ(got, expect);

  // Any invalid endpoint fails the whole call, as in the monolithic API.
  targets.push_back(graph_.NumVertices());
  EXPECT_TRUE(part_->QueryOneToMany(s, targets, &got).IsOutOfRange());
}

TEST_F(PartitionedIndexTest, SaveLoadRoundTripBothLabelModes) {
  BuildBoth(220, 41);
  ASSERT_TRUE(part_->Save(Path("cat")).ok());

  auto im = PartitionedIndex::Load(Path("cat"), /*labels_in_memory=*/true);
  ASSERT_TRUE(im.ok()) << im.status().ToString();
  EXPECT_EQ(im->num_parts(), part_->num_parts());
  EXPECT_EQ(im->num_components(), part_->num_components());
  ExpectDistancesMatch(&*im);

  auto disk = PartitionedIndex::Load(Path("cat"), /*labels_in_memory=*/false);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  ExpectDistancesMatch(&*disk);
}

TEST_F(PartitionedIndexTest, LoadFallsBackToMonolithicDirectory) {
  BuildBoth(150, 43);
  ASSERT_TRUE(mono_->Save(Path("mono")).ok());
  auto loaded = PartitionedIndex::Load(Path("mono"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_parts(), 1u);
  EXPECT_EQ(loaded->NumVertices(), graph_.NumVertices());
  ExpectDistancesMatch(&*loaded);
}

TEST(PartitionedIndexEdge, AllIsolatedVertices) {
  EdgeList el;
  el.EnsureVertices(5);
  Graph g = Graph::FromEdgeList(el);
  auto built = PartitionedIndex::Build(g);
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(built->num_parts(), 0u);
  EXPECT_EQ(built->num_components(), 5u);
  Distance d = 0;
  ASSERT_TRUE(built->Query(2, 2, &d).ok());
  EXPECT_EQ(d, 0u);
  ASSERT_TRUE(built->Query(1, 3, &d).ok());
  EXPECT_EQ(d, kInfDistance);
  std::vector<VertexId> path;
  ASSERT_TRUE(built->ShortestPath(2, 2, &path, &d).ok());
  EXPECT_EQ(d, 0u);
  EXPECT_EQ(path, std::vector<VertexId>{2});
  EXPECT_TRUE(built->Query(5, 0, &d).IsOutOfRange());
}

TEST(PartitionedIndexEdge, EmptyGraph) {
  Graph g;
  auto built = PartitionedIndex::Build(g);
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(built->NumVertices(), 0u);
  Distance d = 0;
  EXPECT_TRUE(built->Query(0, 0, &d).IsOutOfRange());
}

TEST(PartitionedIndexEdge, SingleGiantComponentMatchesMonolithic) {
  Graph g = MakeTestGraph(Family::kBarabasiAlbert, 250, /*weighted=*/true, 2);
  auto mono = ISLabelIndex::Build(g);
  ASSERT_TRUE(mono.ok());
  auto part = PartitionedIndex::Build(g);
  ASSERT_TRUE(part.ok());
  EXPECT_EQ(part->num_parts(), 1u);
  for (const auto& [s, t] : SampleQueryPairs(g, 150, 47)) {
    Distance expect = 0, got = 0;
    ASSERT_TRUE(mono->Query(s, t, &expect).ok());
    ASSERT_TRUE(part->Query(s, t, &got).ok());
    ASSERT_EQ(got, expect);
  }
}

TEST(PartitionedIndexEdge, ParallelBuildIsDeterministic) {
  Graph g = MakeTestGraph(Family::kDisconnected, 300, /*weighted=*/true, 53);
  PartitionOptions one_thread;
  one_thread.num_threads = 1;
  PartitionOptions four_threads;
  four_threads.num_threads = 4;
  auto a = PartitionedIndex::Build(g, one_thread);
  auto b = PartitionedIndex::Build(g, four_threads);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->num_parts(), b->num_parts());
  for (std::uint32_t p = 0; p < a->num_parts(); ++p) {
    EXPECT_EQ(a->part(p).Info().entries, b->part(p).Info().entries);
    EXPECT_EQ(a->part_global_ids(p), b->part_global_ids(p));
  }
  for (const auto& [s, t] : SampleQueryPairs(g, 100, 59)) {
    Distance da = 0, db = 0;
    ASSERT_TRUE(a->Query(s, t, &da).ok());
    ASSERT_TRUE(b->Query(s, t, &db).ok());
    ASSERT_EQ(da, db);
  }
}

// ---------------------------------------------------------------------------
// Catalog
// ---------------------------------------------------------------------------

class CatalogHostTest : public CatalogTest {
 protected:
  /// Builds a partitioned dataset from `g` and saves it under `name`.
  void SaveDataset(const Graph& g, const std::string& name) {
    auto built = PartitionedIndex::Build(g);
    ASSERT_TRUE(built.ok());
    ASSERT_TRUE(built->Save(Path(name)).ok());
  }
};

TEST_F(CatalogHostTest, BackgroundLoadAndHandles) {
  const Graph ga = DisconnectedGraph(150, 61);
  const Graph gb = MakeTestGraph(Family::kGrid, 100, /*weighted=*/true, 67);
  SaveDataset(ga, "a");
  SaveDataset(gb, "b");

  Catalog catalog;
  ASSERT_TRUE(catalog.Add("a", Path("a")).ok());
  ASSERT_TRUE(catalog.Add("b", Path("b")).ok());
  EXPECT_TRUE(catalog.Add("a", Path("a")).IsInvalidArgument());
  ASSERT_TRUE(catalog.WaitReady().ok());
  EXPECT_EQ(catalog.Names(), (std::vector<std::string>{"a", "b"}));

  Catalog::Handle a = catalog.Get("a");
  Catalog::Handle b = catalog.Get("b");
  ASSERT_TRUE(a);
  ASSERT_TRUE(b);
  EXPECT_FALSE(catalog.Get("missing"));
  EXPECT_EQ(a.state(), DatasetState::kReady);

  // Each handle answers for its own dataset.
  auto mono_a = ISLabelIndex::Build(ga);
  auto mono_b = ISLabelIndex::Build(gb);
  ASSERT_TRUE(mono_a.ok());
  ASSERT_TRUE(mono_b.ok());
  for (const auto& [s, t] : SampleQueryPairs(ga, 60, 71)) {
    Distance expect = 0, got = 0;
    ASSERT_TRUE(mono_a->Query(s, t, &expect).ok());
    ASSERT_TRUE(a.Query(s, t, &got).ok());
    ASSERT_EQ(got, expect);
  }
  for (const auto& [s, t] : SampleQueryPairs(gb, 60, 73)) {
    Distance expect = 0, got = 0;
    ASSERT_TRUE(mono_b->Query(s, t, &expect).ok());
    ASSERT_TRUE(b.Query(s, t, &got).ok());
    ASSERT_EQ(got, expect);
  }
  const auto infos = catalog.List();
  ASSERT_EQ(infos.size(), 2u);
  EXPECT_EQ(infos[0].requests, 60u);
  EXPECT_EQ(infos[1].requests, 60u);
}

TEST_F(CatalogHostTest, LoadFailureIsReported) {
  Catalog catalog;
  ASSERT_TRUE(catalog.Add("bad", Path("does_not_exist")).ok());
  EXPECT_FALSE(catalog.WaitReady().ok());
  Catalog::Handle h = catalog.Get("bad");
  ASSERT_TRUE(h);
  EXPECT_EQ(h.state(), DatasetState::kFailed);
  Distance d = 0;
  Status st = h.Query(0, 0, &d);
  EXPECT_TRUE(st.IsFailedPrecondition());
  EXPECT_NE(st.message().find("failed to load"), std::string::npos);
  // Reload can rescue a failed dataset once the directory appears.
  SaveDataset(MakeTestGraph(Family::kPath, 10, true, 1), "does_not_exist");
  ASSERT_TRUE(catalog.Reload("bad").ok());
  EXPECT_EQ(h.state(), DatasetState::kReady);
  EXPECT_TRUE(h.Query(0, 1, &d).ok());
}

TEST_F(CatalogHostTest, HotSwapReloadChangesAnswersAndInvalidatesCache) {
  // v1: a weighted path, so the end-to-end distance is long.
  Graph v1 = MakeTestGraph(Family::kPath, 12, /*weighted=*/true, 4);
  SaveDataset(v1, "d");

  Catalog catalog;
  ASSERT_TRUE(catalog.Add("d", Path("d")).ok());
  ASSERT_TRUE(catalog.WaitReady().ok());
  auto cache = std::make_shared<QueryCache>();
  ASSERT_TRUE(catalog.SetDistanceCache("d", cache).ok());

  Catalog::Handle h = catalog.Get("d");
  const VertexId s = 0, t = v1.NumVertices() - 1;
  Distance before = 0;
  ASSERT_TRUE(h.Query(s, t, &before).ok());
  ASSERT_TRUE(h.Query(s, t, &before).ok());  // now cached
  ASSERT_GT(before, 1u);
  ASSERT_GT(cache->GetStats().hits, 0u);

  // v2: same path plus a unit shortcut edge 0—(n-1).
  EdgeList el = v1.ToEdgeList();
  el.Add(s, t, 1);
  Graph v2 = Graph::FromEdgeList(std::move(el));
  std::filesystem::remove_all(Path("d"));
  SaveDataset(v2, "d");

  // Old snapshot taken before the swap stays valid afterwards.
  std::shared_ptr<PartitionedIndex> old_snapshot = h.index();
  ASSERT_TRUE(catalog.Reload("d").ok());

  Distance after = 0;
  ASSERT_TRUE(h.Query(s, t, &after).ok());
  EXPECT_EQ(after, 1u) << "stale cached distance served across reload";
  Distance cached_after = 0;
  ASSERT_TRUE(h.Query(s, t, &cached_after).ok());
  EXPECT_EQ(cached_after, after);

  Distance old_d = 0;
  ASSERT_TRUE(old_snapshot->Query(s, t, &old_d).ok());
  EXPECT_EQ(old_d, before) << "pinned pre-reload snapshot must still answer";
  EXPECT_EQ(catalog.List()[0].reloads, 1u);
}

TEST_F(CatalogHostTest, ReloadWithoutDirectoryFails) {
  auto built = PartitionedIndex::Build(MakeTestGraph(Family::kPath, 8, true, 1));
  ASSERT_TRUE(built.ok());
  Catalog catalog;
  ASSERT_TRUE(catalog.AddIndex("mem", std::move(built).value()).ok());
  EXPECT_TRUE(catalog.Reload("mem").IsFailedPrecondition());
  EXPECT_TRUE(catalog.Reload("nope").IsNotFound());
}

TEST_F(CatalogHostTest, ReloadAndReloadFromShareOneInstallPath) {
  // Two versions of one weighted path; v2 adds a unit shortcut s—t, so
  // every install changes the s-t answer.
  const Graph v1 = MakeTestGraph(Family::kPath, 12, /*weighted=*/true, 4);
  const VertexId s = 0, t = v1.NumVertices() - 1;
  EdgeList el = v1.ToEdgeList();
  el.Add(s, t, 1);
  const Graph v2 = Graph::FromEdgeList(std::move(el));
  SaveDataset(v1, "live");
  SaveDataset(v1, "v1");
  SaveDataset(v2, "v2");

  Catalog catalog;
  ASSERT_TRUE(catalog.Add("d", Path("live")).ok());
  ASSERT_TRUE(catalog.WaitReady().ok());
  auto cache = std::make_shared<QueryCache>();
  ASSERT_TRUE(catalog.SetDistanceCache("d", cache).ok());
  const obs::Gauge* gauge = catalog.metrics()->GetGauge(
      "islabel_dataset_generation", "Current data generation",
      {{"dataset", "d"}});
  Catalog::Handle h = catalog.Get("d");
  auto query = [&] {
    Distance d = 0;
    EXPECT_TRUE(h.Query(s, t, &d).ok());
    return d;
  };
  // Serving `want` at `gen` from `dir` after `reloads` installs; the query
  // runs twice, so the answer is cached when the next install lands.
  auto expect_serving = [&](Distance want, std::uint64_t gen,
                            std::uint64_t reloads, const std::string& dir) {
    EXPECT_EQ(query(), want) << "stale cached answer served across install";
    const std::uint64_t hits = cache->GetStats().hits;
    EXPECT_EQ(query(), want);
    EXPECT_EQ(cache->GetStats().hits, hits + 1);
    EXPECT_EQ(catalog.Generation("d"), gen);
    EXPECT_EQ(gauge->Value(), static_cast<std::int64_t>(gen));
    EXPECT_EQ(catalog.List()[0].reloads, reloads);
    EXPECT_EQ(catalog.Dir("d"), dir);
  };
  auto mono = ISLabelIndex::Build(v1);
  ASSERT_TRUE(mono.ok());
  Distance d1 = 0;
  ASSERT_TRUE(mono->Query(s, t, &d1).ok());
  ASSERT_GT(d1, 1u);
  expect_serving(d1, 1, 0, Path("live"));

  // Reload: the same directory, rewritten, as the next generation.
  std::filesystem::remove_all(Path("live"));
  SaveDataset(v2, "live");
  ASSERT_TRUE(catalog.Reload("d").ok());
  expect_serving(1, 2, 1, Path("live"));

  // ReloadFrom: the given generation, from a new directory.
  ASSERT_TRUE(catalog.ReloadFrom("d", Path("v1"), 7).ok());
  expect_serving(d1, 7, 2, Path("v1"));

  // A generation that is not newer is refused and changes nothing.
  EXPECT_TRUE(catalog.ReloadFrom("d", Path("v2"), 7).IsFailedPrecondition());
  EXPECT_TRUE(catalog.ReloadFrom("d", Path("v2"), 3).IsFailedPrecondition());
  expect_serving(d1, 7, 2, Path("v1"));

  // A missing directory leaves the old version serving at its generation,
  // through either install.
  EXPECT_FALSE(catalog.ReloadFrom("d", Path("missing"), 8).ok());
  expect_serving(d1, 7, 2, Path("v1"));
  std::filesystem::remove_all(Path("v1"));
  EXPECT_FALSE(catalog.Reload("d").ok());
  expect_serving(d1, 7, 2, Path("v1"));

  // A taken name publishes nothing over the listed dataset.
  auto built = PartitionedIndex::Build(v2);
  ASSERT_TRUE(built.ok());
  EXPECT_TRUE(
      catalog.AddIndex("d", std::move(built).value()).IsInvalidArgument());
  EXPECT_TRUE(catalog.Add("d", Path("v2")).IsInvalidArgument());
  expect_serving(d1, 7, 2, Path("v1"));
}

// ---------------------------------------------------------------------------
// Protocol verbs + dispatcher modes
// ---------------------------------------------------------------------------

TEST(CatalogProtocol, ParsesCatalogVerbs) {
  Request r = ParseRequest("use road-usa.v2");
  ASSERT_EQ(r.kind, RequestKind::kUse);
  EXPECT_EQ(r.name, "road-usa.v2");
  r = ParseRequest("reload btc_2024");
  ASSERT_EQ(r.kind, RequestKind::kReload);
  EXPECT_EQ(r.name, "btc_2024");
  EXPECT_EQ(ParseRequest("datasets").kind, RequestKind::kDatasets);

  EXPECT_EQ(ParseRequest("use").kind, RequestKind::kInvalid);
  EXPECT_EQ(ParseRequest("use two words").kind, RequestKind::kInvalid);
  EXPECT_EQ(ParseRequest("use bad:name").kind, RequestKind::kInvalid);
  EXPECT_EQ(ParseRequest("reload").kind, RequestKind::kInvalid);
  EXPECT_EQ(ParseRequest("datasets all").kind, RequestKind::kInvalid);
}

TEST(CatalogProtocol, SingleIndexModeRejectsCatalogVerbs) {
  Graph g = MakeTestGraph(Family::kPath, 10, /*weighted=*/false, 1);
  auto built = ISLabelIndex::Build(g);
  ASSERT_TRUE(built.ok());
  ISLabelIndex index = std::move(built).value();
  RequestDispatcher dispatcher(&index);
  EXPECT_EQ(dispatcher.Execute(ParseRequest("use a")),
            "error: NotSupported: no catalog (single-dataset server)");
  EXPECT_EQ(dispatcher.Execute(ParseRequest("datasets")),
            "error: NotSupported: no catalog (single-dataset server)");
  EXPECT_EQ(dispatcher.Execute(ParseRequest("1 2")),
            server::FormatDistance(1));  // plain queries still served
}

TEST_F(CatalogHostTest, DispatcherRoutesPerSession) {
  const Graph ga = MakeTestGraph(Family::kPath, 6, /*weighted=*/false, 1);
  const Graph gb = MakeTestGraph(Family::kStar, 6, /*weighted=*/false, 1);
  SaveDataset(ga, "pa");
  SaveDataset(gb, "st");
  Catalog catalog;
  ASSERT_TRUE(catalog.Add("pa", Path("pa")).ok());
  ASSERT_TRUE(catalog.Add("st", Path("st")).ok());
  ASSERT_TRUE(catalog.WaitReady().ok());

  RequestDispatcher dispatcher(&catalog, "pa");
  RequestDispatcher::Session s1, s2;
  // Default dataset: the path graph (d(0,5) = 5).
  EXPECT_EQ(dispatcher.Execute(ParseRequest("0 5"), &s1), "5");
  // s2 switches to the star (d(1,5) = 2 via the hub), s1 is unaffected.
  EXPECT_EQ(dispatcher.Execute(ParseRequest("use st"), &s2), "ok: using st");
  EXPECT_EQ(dispatcher.Execute(ParseRequest("1 5"), &s2), "2");
  EXPECT_EQ(dispatcher.Execute(ParseRequest("1 5"), &s1), "4");
  EXPECT_EQ(dispatcher.Execute(ParseRequest("use nope"), &s2),
            "error: NotFound: unknown dataset nope");

  const std::string datasets = dispatcher.Execute(ParseRequest("datasets"), &s1);
  EXPECT_EQ(datasets.rfind("datasets:", 0), 0u) << datasets;
  EXPECT_NE(datasets.find("pa:ready:1:6"), std::string::npos) << datasets;
  EXPECT_NE(datasets.find("st:ready:1:6"), std::string::npos) << datasets;
}

/// A DistanceCache that always hits with `answer` and charges `lookup_us`
/// of manual-clock time to every lookup: a deterministic slow shard.
class SlowHitCache : public DistanceCache {
 public:
  SlowHitCache(ManualClock* clock, std::uint64_t lookup_us, Distance answer)
      : clock_(clock), lookup_us_(lookup_us), answer_(answer) {}

  std::uint64_t generation() const override { return 0; }
  bool Lookup(VertexId, VertexId, Distance* out) override {
    clock_->AdvanceMicros(lookup_us_);
    *out = answer_;
    return true;
  }
  void Insert(VertexId, VertexId, Distance, std::uint64_t) override {}
  void BumpGeneration() override {}

 private:
  ManualClock* clock_;
  std::uint64_t lookup_us_;
  Distance answer_;
};

TEST(CatalogDispatcher, DatasetCacheHitIsCacheTimeNotKernelTime) {
  auto built = PartitionedIndex::Build(MakeTestGraph(Family::kPath, 8, true, 1));
  ASSERT_TRUE(built.ok());
  Catalog catalog;
  ASSERT_TRUE(catalog.AddIndex("d", std::move(built).value()).ok());
  ManualClock clock;
  ASSERT_TRUE(catalog
                  .SetDistanceCache("d", std::make_shared<SlowHitCache>(
                                             &clock, /*lookup_us=*/40, 7))
                  .ok());

  Mutex mu;
  std::vector<std::string> events;
  obs::EventLogOptions lopts;
  lopts.clock = &clock;
  lopts.sink = obs_test::CapturingSink(&mu, &events);
  obs::EventLog log(lopts);

  RequestDispatcher dispatcher(&catalog, "d");
  obs::MetricRegistry registry;
  RequestDispatcher::MetricsOptions mopts;
  mopts.registry = &registry;
  mopts.clock = &clock;
  mopts.slow_query_threshold_ms = 1;
  mopts.event_log = &log;
  dispatcher.InstallMetrics(mopts);

  // Only the cache lookup advances the clock, so every stage is exact:
  // the hit is cache time, no kernel ran, and the stages sum to the total.
  Request req = ParseRequest("0 7");
  req.parse_us = 5000;
  RequestDispatcher::Session session;
  EXPECT_EQ(dispatcher.Execute(req, &session), "7");
  ASSERT_EQ(events.size(), 1u);
  for (const char* field :
       {"\"total_us\":\"5040\"", "\"parse_us\":\"5000\"",
        "\"cache_us\":\"40\"", "\"pool_wait_us\":\"0\"",
        "\"kernel_us\":\"0\"", "\"encode_us\":\"0\""}) {
    EXPECT_NE(events[0].find(field), std::string::npos)
        << field << " in " << events[0];
  }
  // The hit still counts as one request on the dataset.
  const std::vector<DatasetInfo> infos = catalog.List();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].requests, 1u);
  EXPECT_EQ(infos[0].errors, 0u);
}

// ---------------------------------------------------------------------------
// Loopback TCP: concurrent clients querying across live reloads
// ---------------------------------------------------------------------------

class CatalogServerTest : public CatalogHostTest {
 protected:
  void SetUp() override {
    CatalogHostTest::SetUp();
    graph_a_ = DisconnectedGraph(180, 81);
    graph_b_ = MakeTestGraph(Family::kGrid, 120, /*weighted=*/true, 83);
    SaveDataset(graph_a_, "a");
    SaveDataset(graph_b_, "b");
    ASSERT_TRUE(catalog_.Add("a", Path("a")).ok());
    ASSERT_TRUE(catalog_.Add("b", Path("b")).ok());
    ASSERT_TRUE(catalog_.WaitReady().ok());
    cache_a_ = std::make_shared<QueryCache>();
    cache_b_ = std::make_shared<QueryCache>();
    ASSERT_TRUE(catalog_.SetDistanceCache("a", cache_a_).ok());
    ASSERT_TRUE(catalog_.SetDistanceCache("b", cache_b_).ok());
    RequestDispatcher::MetricsOptions mopts;
    mopts.registry = catalog_.metrics();
    dispatcher_.InstallMetrics(mopts);

    TcpServerOptions opts;
    opts.port = 0;
    opts.num_workers = 4;
    server_ = std::make_unique<TcpServer>(&dispatcher_, opts);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_NE(server_->port(), 0);
  }

  void TearDown() override {
    if (server_ != nullptr) {
      server_->Stop();
      server_->Wait();
    }
    CatalogHostTest::TearDown();
  }

  /// Single-threaded ground truth straight off fresh per-part engines
  /// (an independently loaded copy of the saved dataset).
  std::vector<std::string> ExpectedLines(
      const Graph& g, const std::string& name,
      const std::vector<std::pair<VertexId, VertexId>>& pairs) {
    auto fresh = PartitionedIndex::Load(Path(name));
    EXPECT_TRUE(fresh.ok());
    std::vector<std::string> lines;
    lines.reserve(pairs.size());
    for (const auto& [s, t] : pairs) {
      Distance d = 0;
      EXPECT_TRUE(fresh->Query(s, t, &d).ok());
      lines.push_back(server::FormatDistance(d));
    }
    (void)g;
    return lines;
  }

  Graph graph_a_;
  Graph graph_b_;
  Catalog catalog_;
  std::shared_ptr<QueryCache> cache_a_;
  std::shared_ptr<QueryCache> cache_b_;
  RequestDispatcher dispatcher_{&catalog_, "a"};
  std::unique_ptr<TcpServer> server_;
};

TEST_F(CatalogServerTest, ClientsQueryAcrossConcurrentReloads) {
  // 4 clients alternate between the two datasets with `use`, while a
  // fifth connection hammers `reload` on both. Reloading from an
  // unchanged directory must leave every answer bit-identical, mid-swap
  // or not — that is the acceptance bar for hot swap under load.
  constexpr int kClients = 4;
  constexpr int kRounds = 6;
  constexpr std::size_t kPairsPerRound = 25;

  struct Round {
    std::string use_line;
    std::string burst;
    std::vector<std::string> expect;
  };
  std::vector<std::vector<Round>> plans(kClients);
  for (int c = 0; c < kClients; ++c) {
    for (int r = 0; r < kRounds; ++r) {
      const bool on_a = (c + r) % 2 == 0;
      const Graph& g = on_a ? graph_a_ : graph_b_;
      Round round;
      round.use_line = on_a ? "use a\n" : "use b\n";
      const auto pairs =
          SampleQueryPairs(g, kPairsPerRound, 100 + 10 * c + r);
      for (const auto& [s, t] : pairs) {
        round.burst += std::to_string(s) + " " + std::to_string(t) + "\n";
      }
      round.expect = ExpectedLines(g, on_a ? "a" : "b", pairs);
      plans[c].push_back(std::move(round));
    }
  }

  std::atomic<bool> stop_reloading{false};
  std::thread reloader([&] {
    LoopbackClient client(server_->port());
    if (!client.connected()) return;
    int flips = 0;
    // At least one reload even if the clients finish before this thread
    // is scheduled: the reload count is asserted below.
    do {
      const std::string name = (flips++ % 2 == 0) ? "a" : "b";
      client.Send("reload " + name + "\n");
      if (client.ReadLine() != "ok: reloaded " + name) return;
    } while (!stop_reloading.load(std::memory_order_acquire));
    client.Send("quit\n");
  });

  std::vector<std::thread> clients;
  std::vector<std::string> failures(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      LoopbackClient client(server_->port());
      if (!client.connected()) {
        failures[c] = "connect failed";
        return;
      }
      for (const Round& round : plans[c]) {
        client.Send(round.use_line + round.burst);  // pipelined
        std::string got = client.ReadLine();
        if (got.rfind("ok: using ", 0) != 0) {
          failures[c] = "bad use response: " + got;
          return;
        }
        for (std::size_t i = 0; i < round.expect.size(); ++i) {
          got = client.ReadLine();
          if (got != round.expect[i]) {
            failures[c] = "mismatch: got '" + got + "' want '" +
                          round.expect[i] + "'";
            return;
          }
        }
      }
      client.Send("quit\n");
    });
  }
  for (std::thread& t : clients) t.join();
  stop_reloading.store(true, std::memory_order_release);
  reloader.join();

  for (int c = 0; c < kClients; ++c) {
    EXPECT_TRUE(failures[c].empty()) << "client " << c << ": " << failures[c];
  }
  const auto infos = catalog_.List();
  ASSERT_EQ(infos.size(), 2u);
  EXPECT_GT(infos[0].requests + infos[1].requests, 0u);
  EXPECT_GT(infos[0].reloads + infos[1].reloads, 0u);
}

TEST_F(CatalogServerTest, CrossComponentAnswersUnreachableOverTheWire) {
  // graph_a_ is Family::kDisconnected: vertex 0 and vertex n/2+1 live in
  // different halves.
  auto fresh = PartitionedIndex::Load(Path("a"));
  ASSERT_TRUE(fresh.ok());
  VertexId s = 0, t = 0;
  bool found = false;
  for (VertexId v = 1; v < graph_a_.NumVertices() && !found; ++v) {
    if (fresh->ComponentOf(v) != fresh->ComponentOf(0)) {
      t = v;
      found = true;
    }
  }
  ASSERT_TRUE(found);
  LoopbackClient client(server_->port());
  ASSERT_TRUE(client.connected());
  client.Send(std::to_string(s) + " " + std::to_string(t) + "\nquit\n");
  EXPECT_EQ(client.ReadLine(), "unreachable");
}

TEST_F(CatalogServerTest, MetricsVerbExposesCatalogFamilies) {
  // The fixture's dispatcher records into the catalog's own registry (a
  // catalog always has one), so one scrape spans every layer.
  LoopbackClient client(server_->port());
  client.Send("1 2\nuse b\n0 1\nreload a\ndatasets\nmetrics\n");
  (void)client.ReadLine();  // distance on a
  ASSERT_EQ(client.ReadLine(), "ok: using b");
  (void)client.ReadLine();  // distance on b
  ASSERT_EQ(client.ReadLine(), "ok: reloaded a");
  // Load state and shape stay on `datasets`; counters are metrics.
  const std::string datasets = client.ReadLine();
  EXPECT_EQ(datasets.rfind("datasets:", 0), 0u) << datasets;
  EXPECT_NE(datasets.find(" a:ready:"), std::string::npos) << datasets;
  EXPECT_NE(datasets.find(" b:ready:"), std::string::npos) << datasets;

  const std::vector<std::string> lines = client.ReadThroughEof();
  ASSERT_EQ(lines.back(), "# EOF");
  auto value = [&lines](const std::string& series) -> std::uint64_t {
    for (const std::string& line : lines) {
      if (line.rfind(series + " ", 0) == 0) {
        return std::strtoull(line.c_str() + series.size() + 1, nullptr, 10);
      }
    }
    ADD_FAILURE() << "series not found: " << series;
    return 0;
  };
  // Per-dataset routing is visible in the labels.
  EXPECT_EQ(value("islabel_dataset_requests_total{dataset=\"a\"}"), 1u);
  EXPECT_EQ(value("islabel_dataset_requests_total{dataset=\"b\"}"), 1u);
  EXPECT_EQ(value("islabel_dataset_reloads_total{dataset=\"a\"}"), 1u);
  EXPECT_EQ(value("islabel_catalog_reload_seconds_count"), 1u);
  // The index-size gauges describe the installed version, reload included.
  for (const std::string name : {"a", "b"}) {
    const DistanceIndexInfo info = catalog_.Get(name).Info();
    const std::string label = "{dataset=\"" + name + "\"}";
    EXPECT_GT(info.entries, 0u) << name;
    EXPECT_EQ(value("islabel_dataset_index_entries" + label), info.entries);
    EXPECT_EQ(value("islabel_dataset_index_bytes" + label), info.bytes);
  }
  // Server-level families live in the same registry: use + reload +
  // datasets + 2 distances + the metrics scrape itself.
  EXPECT_EQ(value("islabel_server_requests_total"), 6u);
  // The exposition spans the required subsystem breadth.
  std::set<std::string> families;
  for (const std::string& line : lines) {
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream t(line.substr(7));
      std::string name;
      t >> name;
      families.insert(name);
    }
  }
  EXPECT_GE(families.size(), 12u);
  for (const char* want :
       {"islabel_server_requests_total", "islabel_server_connections_open",
        "islabel_dataset_requests_total", "islabel_catalog_reload_seconds",
        "islabel_pool_leases_active", "islabel_query_stage_seconds"}) {
    EXPECT_NE(families.count(want), 0u) << want;
  }
}

}  // namespace
}  // namespace islabel
