// Update maintenance tests (§8.3): vertex insertion and lazy deletion.
//
// Insertions are validated for exactness against Dijkstra on the updated
// graph (the inserted vertex joins G_k, and the lazy label patches carry
// upper bounds that the G_k search complements). Deletion is the paper's
// lazy scheme: exact for core vertices absent from all labels; for labeled
// vertices the test verifies the bookkeeping and the documented rebuild
// path, not exactness.

#include <gtest/gtest.h>

#include <filesystem>

#include "baseline/dijkstra.h"
#include "core/index.h"
#include "tests/test_common.h"

namespace islabel {
namespace {

using testing::Family;
using testing::MakeTestGraph;
using testing::SampleQueryPairs;

// Applies the same insertion to a plain edge list for ground truth.
Graph WithInsertedVertex(const Graph& g,
                         const std::vector<std::pair<VertexId, Weight>>& adj) {
  EdgeList el = g.ToEdgeList();
  const VertexId v = g.NumVertices();
  el.EnsureVertices(v + 1);
  for (const auto& [nbr, w] : adj) el.Add(v, nbr, w);
  return Graph::FromEdgeList(std::move(el));
}

class InsertTest : public ::testing::TestWithParam<Family> {};

TEST_P(InsertTest, SingleInsertExactQueries) {
  Graph g = MakeTestGraph(GetParam(), 120, /*weighted=*/true, 3);
  auto built = ISLabelIndex::Build(g, IndexOptions{});
  ASSERT_TRUE(built.ok());
  ISLabelIndex index = std::move(built).value();

  Rng rng(17);
  std::vector<std::pair<VertexId, Weight>> adj;
  for (int i = 0; i < 4; ++i) {
    adj.emplace_back(static_cast<VertexId>(rng.Uniform(g.NumVertices())),
                     static_cast<Weight>(1 + rng.Uniform(5)));
  }
  // Dedupe neighbors (InsertVertex allows duplicates in principle but the
  // ground-truth edge list would min-merge them anyway).
  std::sort(adj.begin(), adj.end());
  adj.erase(std::unique(adj.begin(), adj.end(),
                        [](auto& a, auto& b) { return a.first == b.first; }),
            adj.end());

  const VertexId v = g.NumVertices();
  ASSERT_TRUE(index.InsertVertex(v, adj).ok());
  EXPECT_EQ(index.NumVertices(), v + 1);
  EXPECT_TRUE(index.InCore(v));

  Graph updated = WithInsertedVertex(g, adj);
  for (auto [s, t] : SampleQueryPairs(updated, 120, 29)) {
    Distance got = 0;
    ASSERT_TRUE(index.Query(s, t, &got).ok());
    ASSERT_EQ(got, DijkstraP2P(updated, s, t))
        << "query (" << s << "," << t << ") after insert";
  }
  // Queries touching the new vertex specifically.
  SsspResult sssp = DijkstraSssp(updated, v);
  for (VertexId t = 0; t < updated.NumVertices(); ++t) {
    Distance got = 0;
    ASSERT_TRUE(index.Query(v, t, &got).ok());
    ASSERT_EQ(got, sssp.dist[t]) << "from new vertex to " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Families, InsertTest,
                         ::testing::Values(Family::kErdosRenyi, Family::kRMat,
                                           Family::kGrid, Family::kTree,
                                           Family::kBarabasiAlbert),
                         [](const auto& info) {
                           return testing::FamilyName(info.param);
                         });

TEST(Insert, SequenceOfInsertsStaysExact) {
  Graph g = MakeTestGraph(Family::kErdosRenyi, 80, true, 5);
  auto built = ISLabelIndex::Build(g, IndexOptions{});
  ASSERT_TRUE(built.ok());
  ISLabelIndex index = std::move(built).value();

  Graph current = g;
  Rng rng(7);
  for (int round = 0; round < 5; ++round) {
    std::vector<std::pair<VertexId, Weight>> adj;
    for (int i = 0; i < 3; ++i) {
      adj.emplace_back(
          static_cast<VertexId>(rng.Uniform(current.NumVertices())),
          static_cast<Weight>(1 + rng.Uniform(4)));
    }
    std::sort(adj.begin(), adj.end());
    adj.erase(std::unique(adj.begin(), adj.end(),
                          [](auto& a, auto& b) { return a.first == b.first; }),
              adj.end());
    const VertexId v = current.NumVertices();
    ASSERT_TRUE(index.InsertVertex(v, adj).ok());
    current = WithInsertedVertex(current, adj);
  }
  for (auto [s, t] : SampleQueryPairs(current, 150, 41)) {
    Distance got = 0;
    ASSERT_TRUE(index.Query(s, t, &got).ok());
    ASSERT_EQ(got, DijkstraP2P(current, s, t));
  }
}

TEST(Insert, IsolatedVertex) {
  Graph g = MakeTestGraph(Family::kPath, 30, false, 1);
  auto built = ISLabelIndex::Build(g, IndexOptions{});
  ASSERT_TRUE(built.ok());
  ISLabelIndex index = std::move(built).value();
  ASSERT_TRUE(index.InsertVertex(30, {}).ok());
  Distance d;
  ASSERT_TRUE(index.Query(30, 0, &d).ok());
  EXPECT_EQ(d, kInfDistance);
  ASSERT_TRUE(index.Query(30, 30, &d).ok());
  EXPECT_EQ(d, 0u);
}

TEST(Insert, ValidationErrors) {
  Graph g = MakeTestGraph(Family::kPath, 10, false, 1);
  auto built = ISLabelIndex::Build(g, IndexOptions{});
  ASSERT_TRUE(built.ok());
  ISLabelIndex index = std::move(built).value();
  // Wrong id.
  EXPECT_TRUE(index.InsertVertex(5, {}).IsInvalidArgument());
  EXPECT_TRUE(index.InsertVertex(12, {}).IsInvalidArgument());
  // Bad neighbors.
  EXPECT_TRUE(index.InsertVertex(10, {{99, 1}}).IsOutOfRange());
  EXPECT_TRUE(index.InsertVertex(10, {{3, 0}}).IsInvalidArgument());
  EXPECT_TRUE(index.InsertVertex(10, {{10, 1}}).IsInvalidArgument());

  // A core bridge whose weight overflows Weight: vertex 0 lies below G_k,
  // 2 away from its core ancestor, so the bridge weighs 2 + UINT32_MAX.
  // The failed insert must leave the index as it found it.
  EdgeList el(12);
  for (VertexId u = 0; u + 1 < 12; ++u) el.Add(u, u + 1, 2);
  const Graph path = Graph::FromEdgeList(std::move(el));
  IndexOptions opts;
  opts.forced_k = 2;
  auto built_path = ISLabelIndex::Build(path, opts);
  ASSERT_TRUE(built_path.ok());
  ISLabelIndex lifted = std::move(built_path).value();
  ASSERT_FALSE(lifted.InCore(0));
  EXPECT_TRUE(lifted.InsertVertex(12, {{0, UINT32_MAX}}).IsOutOfRange());
  EXPECT_EQ(lifted.NumVertices(), 12u);
  EXPECT_EQ(lifted.hierarchy().core_id.size(), 12u);
  ASSERT_TRUE(lifted.InsertVertex(12, {}).ok());
  for (auto [s, t] : SampleQueryPairs(path, 40, 5)) {
    Distance d = 0;
    ASSERT_TRUE(lifted.Query(s, t, &d).ok());
    ASSERT_EQ(d, DijkstraP2P(path, s, t)) << "(" << s << "," << t << ")";
  }
  Distance d = 0;
  ASSERT_TRUE(lifted.Query(0, 12, &d).ok());
  EXPECT_EQ(d, kInfDistance);
}

TEST(Delete, CoreVertexAbsentFromLabelsIsExact) {
  // The independent set of every level is maximal, so every core vertex of
  // a freshly built index has a removed IS neighbor whose label references
  // it — searching the build for an unreferenced core vertex can never
  // succeed. A vertex inserted with core-only neighbors is exactly the
  // §8.3 exact-deletion case: it joins G_k via bridge edges and the
  // insertion patches no labels.
  Graph g = MakeTestGraph(Family::kErdosRenyi, 100, true, 11);
  IndexOptions opts;
  opts.forced_k = 2;
  auto built = ISLabelIndex::Build(g, opts);
  ASSERT_TRUE(built.ok());
  ISLabelIndex index = std::move(built).value();

  std::vector<std::pair<VertexId, Weight>> adj;
  for (VertexId v = 0; v < g.NumVertices() && adj.size() < 3; ++v) {
    if (index.InCore(v)) {
      adj.emplace_back(v, static_cast<Weight>(1 + v % 5));
    }
  }
  ASSERT_EQ(adj.size(), 3u) << "fixture graph has fewer than 3 core vertices";

  const VertexId victim = g.NumVertices();
  ASSERT_TRUE(index.InsertVertex(victim, adj).ok());
  ASSERT_TRUE(index.InCore(victim));
  for (VertexId w = 0; w < index.NumVertices(); ++w) {
    if (w == victim) continue;
    for (const LabelEntry& e : index.labels()[w]) {
      ASSERT_NE(e.node, victim) << "victim referenced in label of " << w;
    }
  }

  ASSERT_TRUE(index.DeleteVertex(victim).ok());
  EXPECT_TRUE(index.IsDeleted(victim));

  // Insert-then-delete of the victim restores the original graph exactly
  // (its bridge edges leave G_k with it; no label ever mentioned it), so
  // every remaining query must match Dijkstra on g.
  for (auto [s, t] : SampleQueryPairs(g, 100, 51)) {
    Distance got = 0;
    ASSERT_TRUE(index.Query(s, t, &got).ok());
    ASSERT_EQ(got, DijkstraP2P(g, s, t))
        << "(" << s << "," << t << ") after exact delete";
  }
}

TEST(Delete, EndpointErrorsAfterDelete) {
  Graph g = MakeTestGraph(Family::kGrid, 49, false, 1);
  auto built = ISLabelIndex::Build(g, IndexOptions{});
  ASSERT_TRUE(built.ok());
  ISLabelIndex index = std::move(built).value();
  ASSERT_TRUE(index.DeleteVertex(5).ok());
  Distance d;
  EXPECT_TRUE(index.Query(5, 1, &d).IsNotFound());
  EXPECT_TRUE(index.Query(1, 5, &d).IsNotFound());
  EXPECT_TRUE(index.DeleteVertex(5).IsInvalidArgument());  // double delete
  std::vector<VertexId> path;
  EXPECT_TRUE(index.ShortestPath(5, 1, &path, &d).IsNotFound());
}

// Deleted endpoints must error in EVERY serving mode — the freshly built
// index, an in-memory reload, a disk-resident reload, and each batched
// entry point — not just the in-memory fast path.
TEST(Delete, EndpointErrorsPersistAcrossAllModes) {
  Graph g = MakeTestGraph(Family::kBarabasiAlbert, 80, /*weighted=*/true, 5);
  auto built = ISLabelIndex::Build(g, IndexOptions{});
  ASSERT_TRUE(built.ok());
  ISLabelIndex index = std::move(built).value();
  const VertexId dead = 7;
  ASSERT_TRUE(index.DeleteVertex(dead).ok());

  auto expect_not_found = [&](ISLabelIndex* idx) {
    Distance d = 0;
    EXPECT_TRUE(idx->Query(dead, 1, &d).IsNotFound());
    EXPECT_TRUE(idx->Query(1, dead, &d).IsNotFound());
    std::vector<Distance> dists;
    EXPECT_TRUE(idx->QueryOneToMany(dead, {1, 2}, &dists).IsNotFound());
    EXPECT_TRUE(idx->QueryOneToMany(1, {2, dead}, &dists).IsNotFound());
    std::vector<Status> statuses;
    EXPECT_TRUE(
        idx->QueryBatch({{1, 2}, {dead, 2}}, &dists, 1, &statuses).ok());
    EXPECT_TRUE(statuses[0].ok());
    EXPECT_TRUE(statuses[1].IsNotFound());
    EXPECT_EQ(dists[1], kInfDistance);
  };
  expect_not_found(&index);

  std::string dir = ::testing::TempDir() + "islabel_upd_modes";
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(index.Save(dir).ok());
  auto mem = ISLabelIndex::Load(dir, /*labels_in_memory=*/true);
  ASSERT_TRUE(mem.ok());
  expect_not_found(&mem.value());
  auto disk = ISLabelIndex::Load(dir, /*labels_in_memory=*/false);
  ASSERT_TRUE(disk.ok());
  expect_not_found(&disk.value());
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

// Pins the documented §8.3 staleness window so a future exact-delete fix
// shows up as a deliberate test change, not an accident: deleting a
// below-core vertex leaves the augmenting core edges derived through it,
// so queries BETWEEN surviving vertices can still route over the deleted
// vertex and silently return the pre-delete distance.
TEST(Delete, StaleTransitDistanceIsPinned) {
  Graph g = MakeTestGraph(Family::kPath, 12, /*weighted=*/true, 4);
  IndexOptions opts;
  opts.forced_k = 2;
  auto built = ISLabelIndex::Build(g, opts);
  ASSERT_TRUE(built.ok());
  ISLabelIndex index = std::move(built).value();

  // An interior below-core path vertex: its two neighbors are core (an IS
  // never contains adjacent vertices), and peeling it added the augmenting
  // core edge (v-1, v+1) carrying its transit distance.
  VertexId v = kInvalidVertex;
  for (VertexId u = 1; u + 1 < g.NumVertices(); ++u) {
    if (!index.InCore(u)) {
      ASSERT_TRUE(index.InCore(u - 1));
      ASSERT_TRUE(index.InCore(u + 1));
      v = u;
      break;
    }
  }
  ASSERT_NE(v, kInvalidVertex) << "no below-core interior vertex at k=2";
  const VertexId a = v - 1, b = v + 1;
  const Distance transit = g.EdgeWeight(a, v) + g.EdgeWeight(v, b);
  Distance pre = 0;
  ASSERT_TRUE(index.Query(a, b, &pre).ok());
  ASSERT_EQ(pre, transit);  // the unique a-b path runs through v

  ASSERT_TRUE(index.DeleteVertex(v).ok());

  // The deleted vertex itself errors...
  Distance d = 0;
  EXPECT_TRUE(index.Query(a, v, &d).IsNotFound());
  EXPECT_TRUE(index.Query(v, b, &d).IsNotFound());
  // ...but a-b still answers the PRE-delete distance (stale transit): the
  // true post-delete graph is disconnected between a and b.
  Distance post = 0;
  ASSERT_TRUE(index.Query(a, b, &post).ok());
  EXPECT_EQ(post, transit) << "documented §8.3 staleness window changed";
  const EdgeList all = g.ToEdgeList();
  EdgeList survivors(g.NumVertices());
  for (const Edge& e : all.edges()) {
    if (e.u != v && e.v != v) survivors.Add(e.u, e.v, e.w);
  }
  Graph truth = Graph::FromEdgeList(std::move(survivors));
  EXPECT_EQ(DijkstraP2P(truth, a, b), kInfDistance)
      << "fixture lost its uniqueness: a-b must disconnect without v";
}

TEST(Delete, LabeledVertexRemovedFromAllLabels) {
  Graph g = MakeTestGraph(Family::kBarabasiAlbert, 150, false, 9);
  auto built = ISLabelIndex::Build(g, IndexOptions{});
  ASSERT_TRUE(built.ok());
  ISLabelIndex index = std::move(built).value();
  // Pick a low-level vertex (certainly referenced in its own label only)
  // and a popular ancestor.
  VertexId popular = kInvalidVertex;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (index.InCore(v)) {
      popular = v;
      break;
    }
  }
  ASSERT_NE(popular, kInvalidVertex);
  ASSERT_TRUE(index.DeleteVertex(popular).ok());
  for (VertexId w = 0; w < index.NumVertices(); ++w) {
    for (const LabelEntry& e : index.labels()[w]) {
      EXPECT_NE(e.node, popular) << "stale label entry in " << w;
    }
  }
  // Remaining queries still run (distances may be stale per the paper's
  // lazy contract — never crash, never return a value below the true
  // distance of the updated graph... the lazy scheme only guarantees
  // upper-bound validity for deletions of this kind).
  EdgeList el(g.NumVertices());
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    for (std::size_t i = 0; i < g.Neighbors(u).size(); ++i) {
      VertexId w = g.Neighbors(u)[i];
      if (u < w && u != popular && w != popular) {
        el.Add(u, w, g.NeighborWeights(u)[i]);
      }
    }
  }
  Graph without = Graph::FromEdgeList(std::move(el));
  for (auto [s, t] : SampleQueryPairs(without, 60, 77)) {
    if (s == popular || t == popular) continue;
    Distance got = 0;
    ASSERT_TRUE(index.Query(s, t, &got).ok());
    EXPECT_GE(got, DijkstraP2P(without, s, t))
        << "lazy delete must never underestimate";
  }
}

TEST(Delete, RebuildRestoresExactness) {
  Graph g = MakeTestGraph(Family::kRMat, 128, true, 13);
  auto built = ISLabelIndex::Build(g, IndexOptions{});
  ASSERT_TRUE(built.ok());
  ISLabelIndex index = std::move(built).value();
  ASSERT_TRUE(index.DeleteVertex(3).ok());
  ASSERT_TRUE(index.DeleteVertex(10).ok());

  // The paper's remedy: periodically rebuild from the updated graph.
  EdgeList el(g.NumVertices());
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    for (std::size_t i = 0; i < g.Neighbors(u).size(); ++i) {
      VertexId w = g.Neighbors(u)[i];
      if (u < w && u != 3 && w != 3 && u != 10 && w != 10) {
        el.Add(u, w, g.NeighborWeights(u)[i]);
      }
    }
  }
  Graph updated = Graph::FromEdgeList(std::move(el));
  auto rebuilt = ISLabelIndex::Build(updated, IndexOptions{});
  ASSERT_TRUE(rebuilt.ok());
  ISLabelIndex fresh = std::move(rebuilt).value();
  for (auto [s, t] : SampleQueryPairs(updated, 100, 91)) {
    Distance got = 0;
    ASSERT_TRUE(fresh.Query(s, t, &got).ok());
    ASSERT_EQ(got, DijkstraP2P(updated, s, t));
  }
}

TEST(Updates, RandomizedInsertQueryModelCheck) {
  // Model-based randomized sequence: interleave inserts and queries,
  // validating every query against Dijkstra on a mirrored plain graph.
  Graph g = MakeTestGraph(Family::kRMat, 100, true, 61);
  auto built = ISLabelIndex::Build(g, IndexOptions{});
  ASSERT_TRUE(built.ok());
  ISLabelIndex index = std::move(built).value();
  EdgeList mirror = g.ToEdgeList();
  Graph model = g;
  Rng rng(77);
  for (int step = 0; step < 200; ++step) {
    if (rng.Bernoulli(0.08)) {
      const VertexId v = index.NumVertices();
      std::vector<std::pair<VertexId, Weight>> adj;
      const int deg = static_cast<int>(rng.Uniform(4));  // may be isolated
      for (int i = 0; i < deg; ++i) {
        adj.emplace_back(static_cast<VertexId>(rng.Uniform(v)),
                         static_cast<Weight>(1 + rng.Uniform(6)));
      }
      std::sort(adj.begin(), adj.end());
      adj.erase(std::unique(adj.begin(), adj.end(),
                            [](auto& a, auto& b) {
                              return a.first == b.first;
                            }),
                adj.end());
      ASSERT_TRUE(index.InsertVertex(v, adj).ok()) << "step " << step;
      mirror.EnsureVertices(v + 1);
      for (auto [nbr, w] : adj) mirror.Add(v, nbr, w);
      model = Graph::FromEdgeList(mirror);
      mirror = model.ToEdgeList();
    } else {
      const VertexId s =
          static_cast<VertexId>(rng.Uniform(index.NumVertices()));
      const VertexId t =
          static_cast<VertexId>(rng.Uniform(index.NumVertices()));
      Distance got = 0;
      ASSERT_TRUE(index.Query(s, t, &got).ok());
      ASSERT_EQ(got, DijkstraP2P(model, s, t))
          << "step " << step << " (" << s << "," << t << ")";
    }
  }
}

TEST(Updates, PathQueriesSurviveInserts) {
  Graph g = MakeTestGraph(Family::kGrid, 64, true, 9);
  auto built = ISLabelIndex::Build(g, IndexOptions{});
  ASSERT_TRUE(built.ok());
  ISLabelIndex index = std::move(built).value();
  ASSERT_TRUE(index.InsertVertex(64, {{0, 2}, {63, 3}}).ok());
  EdgeList mirror = g.ToEdgeList();
  mirror.EnsureVertices(65);
  mirror.Add(64, 0, 2);
  mirror.Add(64, 63, 3);
  Graph updated = Graph::FromEdgeList(std::move(mirror));
  std::vector<VertexId> path;
  Distance d = 0;
  ASSERT_TRUE(index.ShortestPath(64, 32, &path, &d).ok());
  ASSERT_EQ(d, DijkstraP2P(updated, 64, 32));
  testing::AssertValidPath(updated, 64, 32, path, d);
}

// ---------- Dense G_k ids across updates ----------

// Number of connected components of G_k that have at least one edge.
std::size_t CoreComponentsWithEdges(const Graph& g_k) {
  std::vector<bool> seen(g_k.NumVertices(), false);
  std::size_t components = 0;
  for (VertexId root = 0; root < g_k.NumVertices(); ++root) {
    if (seen[root] || g_k.Degree(root) == 0) continue;
    ++components;
    std::vector<VertexId> stack = {root};
    seen[root] = true;
    while (!stack.empty()) {
      const VertexId v = stack.back();
      stack.pop_back();
      for (VertexId u : g_k.Neighbors(v)) {
        if (!seen[u]) {
          seen[u] = true;
          stack.push_back(u);
        }
      }
    }
  }
  return components;
}

// Every serving form of the engine (Query, the one-to-many forward ball,
// ShortestPath) against Dijkstra on `model`, skipping deleted vertices.
void ExpectEngineMatchesDijkstra(ISLabelIndex* index, const Graph& model,
                                 std::uint64_t seed) {
  std::vector<VertexId> alive;
  for (VertexId v = 0; v < model.NumVertices(); ++v) {
    if (!index->IsDeleted(v)) alive.push_back(v);
  }
  Rng rng(seed);
  std::size_t searched = 0;
  for (int i = 0; i < 60; ++i) {
    const VertexId s = alive[rng.Uniform(alive.size())];
    const VertexId t = alive[rng.Uniform(alive.size())];
    const Distance want = DijkstraP2P(model, s, t);
    Distance got = 0;
    QueryStats stats;
    ASSERT_TRUE(index->Query(s, t, &got, &stats).ok());
    ASSERT_EQ(got, want) << "Query(" << s << "," << t << ")";
    if (stats.used_search) ++searched;

    std::vector<VertexId> path;
    Distance path_dist = 0;
    ASSERT_TRUE(index->ShortestPath(s, t, &path, &path_dist).ok());
    ASSERT_EQ(path_dist, want) << "ShortestPath(" << s << "," << t << ")";
    testing::AssertValidPath(model, s, t, path, want);
  }
  EXPECT_GT(searched, 0u) << "no query reached the G_k search";

  for (int round = 0; round < 4; ++round) {
    const VertexId s = alive[rng.Uniform(alive.size())];
    std::vector<VertexId> targets;
    for (int j = 0; j < 30; ++j) {
      targets.push_back(alive[rng.Uniform(alive.size())]);
    }
    std::vector<Distance> got;
    ASSERT_TRUE(index->QueryOneToMany(s, targets, &got).ok());
    const SsspResult sssp = DijkstraSssp(model, s);
    for (std::size_t j = 0; j < targets.size(); ++j) {
      ASSERT_EQ(got[j], sssp.dist[targets[j]])
          << "QueryOneToMany(" << s << ") target " << targets[j];
    }
  }
}

Graph WithoutVertex(const Graph& g, VertexId victim) {
  const EdgeList all = g.ToEdgeList();
  EdgeList el(g.NumVertices());
  for (const Edge& e : all.edges()) {
    if (e.u != victim && e.v != victim) el.Add(e.u, e.v, e.w);
  }
  return Graph::FromEdgeList(std::move(el));
}

class CoreRemapTest : public ::testing::TestWithParam<Family> {};

// The search runs over dense G_k ids that every update renumbers. Exact
// updates only: inserts, a core victim (no label path routes through a
// core vertex), and a below-core leaf that had one neighbor when peeled
// (no path between other vertices passes through it, and peeling it added
// no augmenting edge).
TEST_P(CoreRemapTest, UpdatesKeepEveryServingFormExact) {
  Graph model = MakeTestGraph(GetParam(), 140, /*weighted=*/true, 31);
  IndexOptions opts;
  opts.forced_k = 2;  // a large G_k, so most queries search it
  auto built = ISLabelIndex::Build(model, opts);
  ASSERT_TRUE(built.ok());
  ISLabelIndex index = std::move(built).value();
  if (GetParam() == Family::kDisconnected) {
    ASSERT_GE(CoreComponentsWithEdges(index.hierarchy().g_k), 2u);
  }
  // The index releases its ancestor DAG after labeling. A second build of
  // the same graph and options peels the same hierarchy, and its DAG names
  // each below-core vertex's neighbours when it was peeled, which updates
  // never change.
  auto dag = BuildHierarchy(model, opts);
  ASSERT_TRUE(dag.ok());
  ExpectEngineMatchesDijkstra(&index, model, 1);

  Rng rng(5);
  const auto insert = [&] {
    const VertexId v = index.NumVertices();
    std::vector<std::pair<VertexId, Weight>> adj;
    for (int i = 0; i < 3; ++i) {
      VertexId nbr = static_cast<VertexId>(rng.Uniform(v));
      while (index.IsDeleted(nbr)) nbr = (nbr + 1) % v;
      adj.emplace_back(nbr, static_cast<Weight>(1 + rng.Uniform(6)));
    }
    std::sort(adj.begin(), adj.end());
    adj.erase(std::unique(adj.begin(), adj.end(),
                          [](auto& a, auto& b) { return a.first == b.first; }),
              adj.end());
    ASSERT_TRUE(index.InsertVertex(v, adj).ok());
    EdgeList el = model.ToEdgeList();
    el.EnsureVertices(v + 1);
    for (const auto& [nbr, w] : adj) el.Add(v, nbr, w);
    model = Graph::FromEdgeList(std::move(el));
  };
  const auto remove = [&](bool core) {
    VertexId victim = kInvalidVertex;
    for (VertexId v = 0; v < model.NumVertices(); ++v) {
      if (index.IsDeleted(v) || index.InCore(v) != core) continue;
      if (core ? model.Degree(v) >= 2
               : model.Degree(v) == 1 && dag->removed_adj[v].size() == 1) {
        victim = v;
        break;
      }
    }
    ASSERT_NE(victim, kInvalidVertex) << (core ? "core" : "leaf") << " victim";
    ASSERT_TRUE(index.DeleteVertex(victim).ok());
    model = WithoutVertex(model, victim);
  };

  insert();
  ExpectEngineMatchesDijkstra(&index, model, 2);
  remove(/*core=*/true);
  ExpectEngineMatchesDijkstra(&index, model, 3);
  insert();
  remove(/*core=*/false);
  ExpectEngineMatchesDijkstra(&index, model, 4);
  remove(/*core=*/true);
  insert();
  ExpectEngineMatchesDijkstra(&index, model, 5);
}

INSTANTIATE_TEST_SUITE_P(Families, CoreRemapTest,
                         ::testing::Values(Family::kErdosRenyi, Family::kRMat,
                                           Family::kTree,
                                           Family::kDisconnected),
                         [](const auto& info) {
                           return testing::FamilyName(info.param);
                         });

TEST(Updates, OverflowSideTableTracksOnlyTouchedLabels) {
  Graph g = MakeTestGraph(Family::kBarabasiAlbert, 120, true, 21);
  auto built = ISLabelIndex::Build(g, IndexOptions{});
  ASSERT_TRUE(built.ok());
  ISLabelIndex index = std::move(built).value();
  EXPECT_EQ(index.labels().SideTableSize(), 0u);

  // Insert against a below-core neighbor: the new vertex's label is
  // appended, and the §8.3 closure patches every label that shares an
  // ancestor with the anchor — all via the side-table, slab untouched.
  VertexId anchor = kInvalidVertex;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (!index.InCore(v)) {
      anchor = v;
      break;
    }
  }
  ASSERT_NE(anchor, kInvalidVertex);
  const VertexId inserted = g.NumVertices();
  ASSERT_TRUE(index.InsertVertex(inserted, {{anchor, 2}}).ok());
  EXPECT_TRUE(index.labels().IsPatched(inserted));
  EXPECT_TRUE(LabelView(index.labels()[inserted]) ==
              LabelView(std::vector<LabelEntry>{LabelEntry(inserted, 0)}));
  // The anchor's own label gained the entry for the new vertex.
  EXPECT_TRUE(index.labels().IsPatched(anchor));
  ASSERT_NE(FindEntry(index.labels()[anchor], inserted), nullptr);
  EXPECT_EQ(FindEntry(index.labels()[anchor], inserted)->dist, 2u);
  // Core labels are trivial and share no ancestors below the core; they
  // must not have been copied out.
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (index.InCore(v)) {
      EXPECT_FALSE(index.labels().IsPatched(v));
    }
  }
  EXPECT_EQ(index.labels().TotalEntries(),
            index.labels().SlabSize() +
                (index.labels().SideTableSize()));  // one new entry per patch

  // Deleting the inserted vertex erases its entries through the same
  // side-table; labels that never mentioned it stay unpatched.
  const std::size_t patched_before = index.labels().SideTableSize();
  ASSERT_TRUE(index.DeleteVertex(inserted).ok());
  for (VertexId w = 0; w < index.NumVertices(); ++w) {
    for (const LabelEntry& e : index.labels()[w]) {
      ASSERT_NE(e.node, inserted);
    }
  }
  EXPECT_EQ(index.labels().SideTableSize(), patched_before);
}

TEST(Updates, RejectedInDiskMode) {
  Graph g = MakeTestGraph(Family::kPath, 40, false, 1);
  auto built = ISLabelIndex::Build(g, IndexOptions{});
  ASSERT_TRUE(built.ok());
  std::string dir = ::testing::TempDir() + "islabel_upd_disk";
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(built->Save(dir).ok());
  auto loaded = ISLabelIndex::Load(dir, /*labels_in_memory=*/false);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->InsertVertex(40, {}).IsFailedPrecondition());
  EXPECT_TRUE(loaded->DeleteVertex(0).IsFailedPrecondition());
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace
}  // namespace islabel
