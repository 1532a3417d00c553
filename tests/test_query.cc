// Query correctness: Equation 1 on the full hierarchy (Theorem 2), the
// k-level label-based bi-Dijkstra (Theorems 3/4) and how much of G_k it
// settles, query classification, and the paper's worked query examples.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <limits>
#include <tuple>

#include "baseline/bfs.h"
#include "baseline/dijkstra.h"
#include "core/index.h"
#include "core/labeling.h"
#include "core/query.h"
#include "graph/components.h"
#include "tests/test_common.h"

namespace islabel {
namespace {

using testing::Family;
using testing::MakeTestGraph;
using testing::SampleQueryPairs;

// ---------- Exactness across graph families and configurations ----------

struct QueryCase {
  Family family;
  VertexId n;
  bool weighted;
  bool full_hierarchy;
  int seed;
};

class QueryExactnessTest : public ::testing::TestWithParam<QueryCase> {};

TEST_P(QueryExactnessTest, MatchesDijkstraOnSampledPairs) {
  const QueryCase& c = GetParam();
  Graph g = MakeTestGraph(c.family, c.n, c.weighted, c.seed);
  IndexOptions opts;
  if (c.full_hierarchy) opts.forced_k = UINT32_MAX;
  auto built = ISLabelIndex::Build(g, opts);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ISLabelIndex index = std::move(built).value();

  // Sampled pairs, plus per-source full validation against SSSP for a few
  // sources (covers unreachable pairs on disconnected families).
  for (auto [s, t] : SampleQueryPairs(g, 150, c.seed * 131 + 7)) {
    Distance got = 0;
    ASSERT_TRUE(index.Query(s, t, &got).ok());
    // Spot distances: P2P Dijkstra gives ground truth.
    const Distance expect = DijkstraP2P(g, s, t);
    ASSERT_EQ(got, expect) << "query (" << s << "," << t << ")";
  }
  for (VertexId s = 0; s < std::min<VertexId>(g.NumVertices(), 4); ++s) {
    SsspResult sssp = DijkstraSssp(g, s);
    for (VertexId t = 0; t < g.NumVertices(); ++t) {
      Distance got = 0;
      ASSERT_TRUE(index.Query(s, t, &got).ok());
      ASSERT_EQ(got, sssp.dist[t]) << "query (" << s << "," << t << ")";
    }
  }
}

std::string QueryCaseName(const ::testing::TestParamInfo<QueryCase>& info) {
  const QueryCase& c = info.param;
  return std::string(testing::FamilyName(c.family)) + "_" +
         std::to_string(c.n) + (c.weighted ? "_W" : "_U") +
         (c.full_hierarchy ? "_Full" : "_Klevel") + "_s" +
         std::to_string(c.seed);
}

INSTANTIATE_TEST_SUITE_P(
    Families, QueryExactnessTest,
    ::testing::Values(
        QueryCase{Family::kErdosRenyi, 120, false, false, 1},
        QueryCase{Family::kErdosRenyi, 120, true, false, 2},
        QueryCase{Family::kErdosRenyi, 120, true, true, 3},
        QueryCase{Family::kBarabasiAlbert, 150, false, false, 1},
        QueryCase{Family::kBarabasiAlbert, 150, true, true, 2},
        QueryCase{Family::kRMat, 128, false, false, 1},
        QueryCase{Family::kRMat, 128, true, false, 2},
        QueryCase{Family::kRMat, 256, true, true, 3},
        QueryCase{Family::kGrid, 144, false, false, 1},
        QueryCase{Family::kGrid, 144, true, false, 2},
        QueryCase{Family::kWattsStrogatz, 130, false, false, 1},
        QueryCase{Family::kWattsStrogatz, 130, true, true, 2},
        QueryCase{Family::kPath, 90, true, false, 1},
        QueryCase{Family::kCycle, 90, true, false, 1},
        QueryCase{Family::kStar, 100, true, false, 1},
        QueryCase{Family::kTree, 127, true, false, 1},
        QueryCase{Family::kClique, 24, true, false, 1},
        QueryCase{Family::kDisconnected, 120, false, false, 1},
        QueryCase{Family::kDisconnected, 120, true, true, 2},
        // Below ~200 vertices the recipe peels completely (G_k is empty).
        QueryCase{Family::kCliqueCommunity, 256, false, false, 1},
        QueryCase{Family::kCliqueCommunity, 256, true, false, 2},
        QueryCase{Family::kCliqueCommunity, 256, true, true, 3}),
    QueryCaseName);

// Sweep forced k: correctness must hold at every cut level.
class ForcedKTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ForcedKTest, ExactAtEveryK) {
  Graph g = MakeTestGraph(Family::kBarabasiAlbert, 200, true, 5);
  IndexOptions opts;
  opts.forced_k = GetParam();
  auto built = ISLabelIndex::Build(g, opts);
  ASSERT_TRUE(built.ok());
  ISLabelIndex index = std::move(built).value();
  EXPECT_EQ(index.k(), GetParam());
  SsspResult sssp = DijkstraSssp(g, 17);
  for (VertexId t = 0; t < g.NumVertices(); ++t) {
    Distance got = 0;
    ASSERT_TRUE(index.Query(17, t, &got).ok());
    ASSERT_EQ(got, sssp.dist[t]);
  }
}

INSTANTIATE_TEST_SUITE_P(KSweep, ForcedKTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 6u, 8u));

// ---------- Unweighted graphs double-checked against BFS ----------

TEST(Query, UnweightedAgreesWithBfs) {
  Graph g = MakeTestGraph(Family::kRMat, 256, false, 9);
  auto built = ISLabelIndex::Build(g, IndexOptions{});
  ASSERT_TRUE(built.ok());
  ISLabelIndex index = std::move(built).value();
  std::vector<Distance> bfs = BfsDistances(g, 3);
  for (VertexId t = 0; t < g.NumVertices(); ++t) {
    Distance got = 0;
    ASSERT_TRUE(index.Query(3, t, &got).ok());
    ASSERT_EQ(got, bfs[t]);
  }
}

// ---------- Query classification and stats ----------

TEST(Query, LocationTypesReported) {
  Graph g = MakeTestGraph(Family::kBarabasiAlbert, 300, false, 4);
  auto built = ISLabelIndex::Build(g, IndexOptions{});
  ASSERT_TRUE(built.ok());
  ISLabelIndex index = std::move(built).value();

  VertexId core1 = kInvalidVertex, core2 = kInvalidVertex;
  VertexId low1 = kInvalidVertex, low2 = kInvalidVertex;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (index.InCore(v)) {
      (core1 == kInvalidVertex ? core1 : core2) = v;
    } else {
      (low1 == kInvalidVertex ? low1 : low2) = v;
    }
  }
  ASSERT_NE(core2, kInvalidVertex);
  ASSERT_NE(low2, kInvalidVertex);

  QueryStats stats;
  Distance d;
  ASSERT_TRUE(index.Query(core1, core2, &d, &stats).ok());
  EXPECT_EQ(stats.location, LocationType::kBothInCore);
  ASSERT_TRUE(index.Query(core1, low1, &d, &stats).ok());
  EXPECT_EQ(stats.location, LocationType::kOneInCore);
  ASSERT_TRUE(index.Query(low1, low2, &d, &stats).ok());
  EXPECT_EQ(stats.location, LocationType::kNoneInCore);
}

TEST(Query, FullHierarchyNeverSearches) {
  Graph g = MakeTestGraph(Family::kErdosRenyi, 150, true, 6);
  IndexOptions opts;
  opts.forced_k = UINT32_MAX;  // past the depth: the full hierarchy
  auto built = ISLabelIndex::Build(g, opts);
  ASSERT_TRUE(built.ok());
  ISLabelIndex index = std::move(built).value();
  QueryStats stats;
  Distance d;
  for (auto [s, t] : SampleQueryPairs(g, 50, 11)) {
    ASSERT_TRUE(index.Query(s, t, &d, &stats).ok());
    EXPECT_FALSE(stats.used_search)
        << "full hierarchy must answer via Equation 1 alone";
  }
}

TEST(Query, SameVertexIsZero) {
  Graph g = MakeTestGraph(Family::kGrid, 100, true, 2);
  auto built = ISLabelIndex::Build(g, IndexOptions{});
  ASSERT_TRUE(built.ok());
  ISLabelIndex index = std::move(built).value();
  Distance d = 99;
  ASSERT_TRUE(index.Query(42, 42, &d).ok());
  EXPECT_EQ(d, 0u);
}

TEST(Query, OutOfRangeRejected) {
  Graph g = MakeTestGraph(Family::kPath, 10, false, 1);
  auto built = ISLabelIndex::Build(g, IndexOptions{});
  ASSERT_TRUE(built.ok());
  ISLabelIndex index = std::move(built).value();
  Distance d;
  EXPECT_TRUE(index.Query(0, 10, &d).IsOutOfRange());
  EXPECT_TRUE(index.Query(10, 0, &d).IsOutOfRange());
}

TEST(Query, DisconnectedReturnsInfinity) {
  EdgeList el(6);
  el.Add(0, 1, 2);
  el.Add(2, 3, 1);
  Graph g = Graph::FromEdgeList(el);  // components {0,1}, {2,3}, {4}, {5}
  auto built = ISLabelIndex::Build(g, IndexOptions{});
  ASSERT_TRUE(built.ok());
  ISLabelIndex index = std::move(built).value();
  Distance d;
  ASSERT_TRUE(index.Query(0, 2, &d).ok());
  EXPECT_EQ(d, kInfDistance);
  ASSERT_TRUE(index.Query(4, 5, &d).ok());
  EXPECT_EQ(d, kInfDistance);
  ASSERT_TRUE(index.Query(0, 1, &d).ok());
  EXPECT_EQ(d, 2u);
}

// ---------- Large-weight stress ----------

TEST(Query, LargeWeightsNoOverflow) {
  // Weights near 2^20 stress Distance accumulation paths; augmenting
  // sums stay within Weight, distances within Distance.
  Rng rng(47);
  EdgeList el = GenerateErdosRenyi(120, 300, &rng);
  for (Edge& e : el.edges()) {
    e.w = static_cast<Weight>(1 + rng.Uniform(1u << 20));
  }
  Graph g = Graph::FromEdgeList(std::move(el));
  auto built = ISLabelIndex::Build(g, IndexOptions{});
  ASSERT_TRUE(built.ok());
  ISLabelIndex index = std::move(built).value();
  for (auto [s, t] : SampleQueryPairs(g, 80, 5)) {
    Distance d = 0;
    ASSERT_TRUE(index.Query(s, t, &d).ok());
    ASSERT_EQ(d, DijkstraP2P(g, s, t));
  }
}

TEST(Query, AugmentingOverflowSurfacesAsStatus) {
  // A path whose augmenting sums exceed the Weight type must fail the
  // build cleanly (OutOfRange), not corrupt the index. Five vertices so
  // the min-degree greedy picks the middle vertex into L_1 (a 4-path's
  // endpoints peel first and never create a 2-path join).
  EdgeList el(5);
  const Weight huge = std::numeric_limits<Weight>::max() / 2 + 10;
  el.Add(0, 1, huge);
  el.Add(1, 2, huge);
  el.Add(2, 3, huge);
  el.Add(3, 4, huge);
  Graph g = Graph::FromEdgeList(std::move(el));
  IndexOptions opts;
  opts.forced_k = UINT32_MAX;  // past the depth: the full hierarchy
  auto built = ISLabelIndex::Build(g, opts);
  ASSERT_FALSE(built.ok());
  EXPECT_TRUE(built.status().IsOutOfRange());
}

// ---------- The paper's worked queries ----------

TEST(PaperExample, Example6BiDijkstraOnK2Hierarchy) {
  VertexHierarchy h = testing::PaperK2Hierarchy();
  LabelArena labels = ComputeLabelsTopDown(h);
  QueryEngine engine(&h, LabelProvider(&labels));
  using namespace testing;

  // Example 6: dist(c, i) = 3, found by the bi-Dijkstra (labels of c and i
  // do not intersect).
  Distance d;
  QueryStats stats;
  ASSERT_TRUE(engine.Query(kC, kI, &d, &stats).ok());
  EXPECT_EQ(d, 3u);
  EXPECT_TRUE(stats.used_search);
  EXPECT_EQ(stats.intersection_size, 0u);

  // Example 4's answers must also hold on the k=2 hierarchy.
  ASSERT_TRUE(engine.Query(kH, kE, &d, &stats).ok());
  EXPECT_EQ(d, 3u);
  ASSERT_TRUE(engine.Query(kA, kG, &d, &stats).ok());
  EXPECT_EQ(d, 3u);

  // Exhaustive check of the example graph against Dijkstra.
  Graph g = PaperFigure1Graph();
  for (VertexId s = 0; s < 9; ++s) {
    SsspResult sssp = DijkstraSssp(g, s);
    for (VertexId t = 0; t < 9; ++t) {
      ASSERT_TRUE(engine.Query(s, t, &d).ok());
      ASSERT_EQ(d, sssp.dist[t]) << "(" << s << "," << t << ")";
    }
  }
}

TEST(PaperExample, FullHierarchyQueriesExhaustive) {
  VertexHierarchy h = testing::PaperFullHierarchy();
  LabelArena labels = ComputeLabelsTopDown(h);
  QueryEngine engine(&h, LabelProvider(&labels));
  Graph g = testing::PaperFigure1Graph();
  Distance d;
  for (VertexId s = 0; s < 9; ++s) {
    SsspResult sssp = DijkstraSssp(g, s);
    for (VertexId t = 0; t < 9; ++t) {
      ASSERT_TRUE(engine.Query(s, t, &d).ok());
      ASSERT_EQ(d, sssp.dist[t]) << "(" << s << "," << t << ")";
    }
  }
}

TEST(PaperExample, AutoBuiltIndexAnswersExactly) {
  // Independent of the hand-chosen hierarchy, the real pipeline must be
  // exact on the example graph.
  Graph g = testing::PaperFigure1Graph();
  auto built = ISLabelIndex::Build(g, IndexOptions{});
  ASSERT_TRUE(built.ok());
  ISLabelIndex index = std::move(built).value();
  Distance d;
  for (VertexId s = 0; s < 9; ++s) {
    SsspResult sssp = DijkstraSssp(g, s);
    for (VertexId t = 0; t < 9; ++t) {
      ASSERT_TRUE(index.Query(s, t, &d).ok());
      ASSERT_EQ(d, sssp.dist[t]);
    }
  }
}

// ---------- Ablation hook stays exact ----------

TEST(Query, DisabledMuPruningStillExact) {
  Graph g = MakeTestGraph(Family::kRMat, 200, true, 23);
  auto built = ISLabelIndex::Build(g, IndexOptions{});
  ASSERT_TRUE(built.ok());
  ISLabelIndex index = std::move(built).value();
  QueryEngine engine(&index.hierarchy(), LabelProvider(&index.labels()));
  engine.set_disable_mu_pruning(true);
  for (auto [s, t] : SampleQueryPairs(g, 120, 31)) {
    Distance got = 0;
    ASSERT_TRUE(engine.Query(s, t, &got).ok());
    ASSERT_EQ(got, DijkstraP2P(g, s, t)) << "(" << s << "," << t << ")";
  }
}

// The tie-order counterexample behind the tentative-distance fix
// (DESIGN.md §7.1): query (c, f) on the paper's k=2 hierarchy must return
// 5 (c-b-e-f) regardless of extraction tie-breaking.
TEST(PaperExample, MuUpdateCounterexampleCF) {
  VertexHierarchy h = testing::PaperK2Hierarchy();
  LabelArena labels = ComputeLabelsTopDown(h);
  QueryEngine engine(&h, LabelProvider(&labels));
  Distance d = 0;
  ASSERT_TRUE(engine.Query(testing::kC, testing::kF, &d).ok());
  EXPECT_EQ(d, 5u);
  ASSERT_TRUE(engine.Query(testing::kF, testing::kC, &d).ok());
  EXPECT_EQ(d, 5u);
}

// ---------- Disk-resident labels answer identically ----------

TEST(Query, DiskModeMatchesMemoryMode) {
  Graph g = MakeTestGraph(Family::kRMat, 256, true, 13);
  auto built = ISLabelIndex::Build(g, IndexOptions{});
  ASSERT_TRUE(built.ok());
  ISLabelIndex mem_index = std::move(built).value();

  std::string dir = ::testing::TempDir() + "islabel_query_disk";
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(mem_index.Save(dir).ok());
  auto loaded = ISLabelIndex::Load(dir, /*labels_in_memory=*/false);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ISLabelIndex disk_index = std::move(loaded).value();
  ASSERT_TRUE(disk_index.labels_on_disk());

  // Sampled pairs, plus a core-core and a core-below pair picked as
  // Query.LocationTypesReported picks them, so every Table 5 type shows.
  auto pairs = SampleQueryPairs(g, 120, 17);
  VertexId core1 = kInvalidVertex, core2 = kInvalidVertex;
  VertexId low = kInvalidVertex;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (disk_index.InCore(v)) {
      (core1 == kInvalidVertex ? core1 : core2) = v;
    } else if (low == kInvalidVertex) {
      low = v;
    }
  }
  ASSERT_NE(core2, kInvalidVertex);
  ASSERT_NE(low, kInvalidVertex);
  pairs.emplace_back(core1, core2);
  pairs.emplace_back(core1, low);
  pairs.emplace_back(low, core2);

  // Table 5's type by the number of below-core endpoints.
  const LocationType kType[3] = {LocationType::kBothInCore,
                                 LocationType::kOneInCore,
                                 LocationType::kNoneInCore};
  std::uint64_t seen[3] = {0, 0, 0};
  for (auto [s, t] : pairs) {
    Distance dm = 0, dd = 0;
    QueryStats stats;
    ASSERT_TRUE(mem_index.Query(s, t, &dm).ok());
    ASSERT_TRUE(disk_index.Query(s, t, &dd, &stats).ok());
    ASSERT_EQ(dm, dd);
    if (s == t) continue;
    // Disk mode reads the store once per below-core endpoint, and a core
    // endpoint's trivial label costs no read.
    const unsigned below = (disk_index.InCore(s) ? 0u : 1u) +
                           (disk_index.InCore(t) ? 0u : 1u);
    EXPECT_EQ(stats.label_ios, below) << "(" << s << "," << t << ")";
    EXPECT_EQ(stats.location, kType[below]) << "(" << s << "," << t << ")";
    ++seen[below];
  }
  EXPECT_GT(seen[0], 0u);
  EXPECT_GT(seen[1], 0u);
  EXPECT_GT(seen[2], 0u);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

// ---------- Epoch wrap across a vertex-count resize ----------

// The per-vertex search state is epoch-stamped and never cleared in bulk;
// correctness across the 32-bit epoch wrap relies on EnsureScratch fully
// rewriting the state on any resize (grown regions must never carry old
// stamps once the counter cycles back over their values). This forces the
// counter to wrap right after InsertVertex grows the vertex count, on an
// engine that survives the growth.
TEST(EpochWrap, QueriesStayExactAcrossInsertAndWrap) {
  Graph g = MakeTestGraph(Family::kBarabasiAlbert, 150, true, 9);
  auto built = ISLabelIndex::Build(g, IndexOptions{});
  ASSERT_TRUE(built.ok());
  ISLabelIndex index = std::move(built).value();

  // An engine of our own that lives across the update, as every engine in
  // the index's pool does (ConcurrencyTest.PoolOutlivesUpdates).
  QueryEngine engine(&index.hierarchy(), LabelProvider(&index.labels()));
  engine.SetEpochForTesting(std::numeric_limits<std::uint32_t>::max() - 3);

  // Stamp search state near the wrap at the pre-insert size.
  auto pairs = SampleQueryPairs(g, 8, 77);
  for (auto [s, t] : pairs) {
    Distance d = 0;
    ASSERT_TRUE(engine.Query(s, t, &d).ok());
    ASSERT_EQ(d, DijkstraP2P(g, s, t));
  }

  // Grow the vertex count; the engine's scratch resizes at its next query
  // and the epoch counter wraps within the following few queries.
  const VertexId v = index.NumVertices();
  ASSERT_TRUE(index.InsertVertex(v, {{3, 2}, {10, 5}}).ok());
  EdgeList updated = g.ToEdgeList();
  updated.EnsureVertices(v + 1);
  updated.Add(v, 3, 2);
  updated.Add(v, 10, 5);
  Graph g2 = Graph::FromEdgeList(std::move(updated));

  for (std::uint64_t round = 0; round < 12; ++round) {
    for (auto [s, t] : SampleQueryPairs(g2, 6, 101 + round)) {
      Distance d = 0;
      ASSERT_TRUE(engine.Query(s, t, &d).ok());
      ASSERT_EQ(d, DijkstraP2P(g2, s, t)) << "(" << s << "," << t << ")";
    }
    Distance d = 0;
    ASSERT_TRUE(engine.Query(0, v, &d).ok());
    ASSERT_EQ(d, DijkstraP2P(g2, 0, v));
  }

  // The one-to-many path reserves one epoch per target; a batch larger
  // than the remaining epoch space must trigger the reset, not reuse
  // stamps.
  engine.SetEpochForTesting(std::numeric_limits<std::uint32_t>::max() - 2);
  std::vector<VertexId> targets;
  for (VertexId t = 0; t < g2.NumVertices(); t += 7) targets.push_back(t);
  std::vector<Distance> out;
  ASSERT_TRUE(engine.QueryOneToMany(5, targets, &out).ok());
  SsspResult sssp = DijkstraSssp(g2, 5);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    ASSERT_EQ(out[i], sssp.dist[targets[i]]) << "t=" << targets[i];
  }
}

// ---------- The landmark bound saves edges, not answers ----------

// A pair search starts at µ = min(Equation 1, B), B the landmark bound
// (DESIGN §7.6). Against a copy of the hierarchy whose table is emptied,
// which starts at Equation 1 alone, on uniform pairs (where Equation 1
// almost never bounds µ): every answer is the same and Dijkstra's, fewer
// edges are read, because each relax loop can stop from the first settle,
// and as many vertices settle, give or take the expansion order's count
// of skipped edges.
TEST(Query, LandmarkBoundSavesEdgesNotAnswers) {
  for (const Family family :
       {Family::kCliqueCommunity, Family::kBarabasiAlbert}) {
    SCOPED_TRACE(testing::FamilyName(family));
    const Graph g = MakeTestGraph(family, 4000, true, 71);
    auto built = ISLabelIndex::Build(g, IndexOptions{});
    ASSERT_TRUE(built.ok());
    const ISLabelIndex index = std::move(built).value();
    ASSERT_FALSE(index.hierarchy().landmarks.empty());
    VertexHierarchy unbounded = index.hierarchy();
    unbounded.landmarks.clear();
    QueryEngine engines[2] = {
        QueryEngine(&index.hierarchy(), LabelProvider(&index.labels())),
        QueryEngine(&unbounded, LabelProvider(&index.labels()))};

    Rng rng(5);
    const VertexId n = g.NumVertices();
    std::uint64_t settled[2] = {0, 0}, relaxed[2] = {0, 0};
    for (int i = 0; i < 600; ++i) {
      const VertexId s = static_cast<VertexId>(rng.Uniform(n));
      const VertexId t = static_cast<VertexId>(rng.Uniform(n));
      const Distance want = DijkstraP2P(g, s, t);
      for (int e = 0; e < 2; ++e) {
        Distance d = 0;
        QueryStats stats;
        ASSERT_TRUE(engines[e].Query(s, t, &d, &stats).ok());
        ASSERT_EQ(d, want) << "query (" << s << "," << t << "), "
                           << (e == 0 ? "with" : "without") << " the table";
        settled[e] += stats.settled;
        relaxed[e] += stats.relaxed;
      }
    }
    EXPECT_LT(relaxed[0], relaxed[1]) << "edges read with / without";
    EXPECT_NEAR(static_cast<double>(settled[0]),
                static_cast<double>(settled[1]), 0.02 * settled[1])
        << "vertices settled with / without";
  }
}

// ---------- One-to-many matches the single-query engine ----------

// The warm forward ball is exact only with the seed-time µ check of
// DESIGN §10.1, and only if it keeps every push (§7.5). Without that check
// the grid input answers wrong; the R-MAT and Barabási-Albert inputs do
// not show it.
TEST(Query, OneToManyMatchesSingleQueries) {
  for (const Family family : {Family::kRMat, Family::kBarabasiAlbert,
                              Family::kGrid, Family::kCliqueCommunity}) {
    SCOPED_TRACE(testing::FamilyName(family));
    Graph g = MakeTestGraph(family, 256, true, 57);
    auto built = ISLabelIndex::Build(g, IndexOptions{});
    ASSERT_TRUE(built.ok());
    ISLabelIndex index = std::move(built).value();
    QueryEngine engine(&index.hierarchy(), LabelProvider(&index.labels()));
    Rng rng(3);
    const VertexId n = index.NumVertices();
    for (int round = 0; round < 8; ++round) {
      const VertexId s = static_cast<VertexId>(rng.Uniform(n));
      std::vector<VertexId> targets;
      for (int j = 0; j < 50; ++j) {
        targets.push_back(static_cast<VertexId>(rng.Uniform(n)));
      }
      std::vector<Distance> got;
      ASSERT_TRUE(engine.QueryOneToMany(s, targets, &got).ok());
      for (std::size_t j = 0; j < targets.size(); ++j) {
        ASSERT_EQ(got[j], DijkstraP2P(g, s, targets[j]))
            << "s=" << s << " t=" << targets[j];
      }
    }
  }
}

// ---------- The G_k search expands the smaller frontier ----------

// synth-skitter's recipe at 4,000 vertices. The two sides' seeds start at
// different label depths, and expanding the side with the smaller heap
// minimum let the near side flood G_k until its radius caught up: on these
// pairs the p99 query settled 1,839 of the 2,056 core vertices. Expanding
// the side with fewer heap entries settles 171 at p99 and 213 at most
// (DESIGN §7.4).
TEST(Query, SeededSearchDoesNotFloodTheCore) {
  Rng gen(2013);
  const Graph g = ExtractLargestComponent(
                      Graph::FromEdgeList(GenerateCliqueCommunity(
                          4000, 14, 0.5, 0.10, 24.0, &gen)))
                      .graph;
  auto built = ISLabelIndex::Build(g, IndexOptions{});
  ASSERT_TRUE(built.ok());
  ISLabelIndex index = std::move(built).value();
  const std::size_t core = index.hierarchy().core_vertex.size();
  ASSERT_GE(core, 1000u) << "the recipe no longer leaves a large G_k";

  Rng rng(19);
  const VertexId n = g.NumVertices();
  int over = 0;
  QueryStats worst;
  for (int i = 0; i < 500; ++i) {
    const VertexId s = static_cast<VertexId>(rng.Uniform(n));
    const VertexId t = static_cast<VertexId>(rng.Uniform(n));
    Distance d = 0;
    QueryStats stats;
    ASSERT_TRUE(index.Query(s, t, &d, &stats).ok());
    ASSERT_EQ(d, DijkstraP2P(g, s, t)) << "query (" << s << "," << t << ")";
    if (stats.settled > core / 4) ++over;
    if (stats.settled > worst.settled) worst = stats;
  }
  EXPECT_EQ(over, 0) << "queries settled more than a quarter of |G_k| = "
                     << core << "; the worst, of Type "
                     << static_cast<int>(worst.location) << ", settled "
                     << worst.settled;
}

}  // namespace
}  // namespace islabel
