// Directed IS-LABEL (§8.2): distance and reachability against directed
// Dijkstra ground truth.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "baseline/dijkstra.h"
#include "core/directed.h"
#include "graph/digraph.h"
#include "util/random.h"

namespace islabel {
namespace {

DiGraph RandomDiGraph(VertexId n, std::uint64_t arcs, bool weighted,
                      std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Arc> list;
  list.reserve(arcs);
  for (std::uint64_t i = 0; i < arcs; ++i) {
    VertexId u = static_cast<VertexId>(rng.Uniform(n));
    VertexId v = static_cast<VertexId>(rng.Uniform(n));
    Weight w = weighted ? static_cast<Weight>(1 + rng.Uniform(8)) : 1;
    list.emplace_back(u, v, w);
  }
  return DiGraph::FromArcs(std::move(list), n);
}

/// A DAG-ish layered digraph: mostly forward arcs, some back arcs.
DiGraph LayeredDiGraph(VertexId n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Arc> list;
  for (VertexId v = 0; v + 1 < n; ++v) {
    list.emplace_back(v, v + 1, static_cast<Weight>(1 + rng.Uniform(4)));
    if (rng.Bernoulli(0.3)) {
      VertexId u = static_cast<VertexId>(rng.Uniform(n));
      list.emplace_back(v, u, static_cast<Weight>(1 + rng.Uniform(4)));
    }
  }
  return DiGraph::FromArcs(std::move(list), n);
}

void ExpectMatchesDirectedDijkstra(const DiGraph& g,
                                   const IndexOptions& opts) {
  auto built = DirectedISLabel::Build(g, opts);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  DirectedISLabel index = std::move(built).value();
  // A forced k past the peel's depth is the full hierarchy: it stops
  // where G_k is empty, below forced_k.
  if (opts.forced_k != 0) {
    ASSERT_LE(index.k(), opts.forced_k);
  }

  for (VertexId s = 0; s < std::min<VertexId>(g.NumVertices(), 15); ++s) {
    SsspResult sssp = DijkstraSssp(g, s);
    for (VertexId t = 0; t < g.NumVertices(); ++t) {
      Distance got = 0;
      ASSERT_TRUE(index.Query(s, t, &got).ok());
      ASSERT_EQ(got, sssp.dist[t]) << "(" << s << "->" << t << ")";
    }
  }
}

class DirectedTest
    : public ::testing::TestWithParam<std::tuple<bool, bool, int>> {};

TEST_P(DirectedTest, MatchesDirectedDijkstra) {
  const auto [weighted, full, seed] = GetParam();
  IndexOptions opts;
  if (full) opts.forced_k = UINT32_MAX;
  ExpectMatchesDirectedDijkstra(RandomDiGraph(120, 400, weighted, seed),
                                opts);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, DirectedTest,
    ::testing::Combine(::testing::Bool(), ::testing::Bool(),
                       ::testing::Values(1, 2, 3)),
    ([](const auto& info) {
      const auto [weighted, full, seed] = info.param;
      return std::string(weighted ? "W" : "U") + (full ? "_Full" : "_Klevel") +
             "_s" + std::to_string(seed);
    }));

// The third hierarchy shape, over DirectedTest's six graphs: at k = 1
// nothing is peeled, every out- and in-label is {(v, 0)}, and a query is a
// bidirectional Dijkstra on the digraph itself.
TEST(Directed, KOneMatchesDirectedDijkstra) {
  IndexOptions opts;
  opts.forced_k = 1;
  for (const bool weighted : {false, true}) {
    for (const int seed : {1, 2, 3}) {
      SCOPED_TRACE(std::string(weighted ? "W" : "U") + "_s" +
                   std::to_string(seed));
      ExpectMatchesDirectedDijkstra(RandomDiGraph(120, 400, weighted, seed),
                                    opts);
    }
  }
}

TEST(Directed, AsymmetricDistances) {
  // 0 -> 1 -> 2, and 2 -> 0: dist(0,2)=2 but dist(2,1)=3 via 0.
  std::vector<Arc> arcs = {{0, 1, 1}, {1, 2, 1}, {2, 0, 1}};
  DiGraph g = DiGraph::FromArcs(arcs);
  auto built = DirectedISLabel::Build(g, IndexOptions{});
  ASSERT_TRUE(built.ok());
  DirectedISLabel index = std::move(built).value();
  Distance d;
  ASSERT_TRUE(index.Query(0, 2, &d).ok());
  EXPECT_EQ(d, 2u);
  ASSERT_TRUE(index.Query(2, 1, &d).ok());
  EXPECT_EQ(d, 2u);  // 2->0->1
  ASSERT_TRUE(index.Query(1, 0, &d).ok());
  EXPECT_EQ(d, 2u);  // 1->2->0
}

TEST(Directed, OneWayUnreachable) {
  std::vector<Arc> arcs = {{0, 1, 5}};
  DiGraph g = DiGraph::FromArcs(arcs);
  auto built = DirectedISLabel::Build(g, IndexOptions{});
  ASSERT_TRUE(built.ok());
  DirectedISLabel index = std::move(built).value();
  Distance d;
  ASSERT_TRUE(index.Query(0, 1, &d).ok());
  EXPECT_EQ(d, 5u);
  ASSERT_TRUE(index.Query(1, 0, &d).ok());
  EXPECT_EQ(d, kInfDistance);
}

TEST(Directed, ReachabilityMatchesDistance) {
  DiGraph g = LayeredDiGraph(100, 5);
  auto built = DirectedISLabel::Build(g, IndexOptions{});
  ASSERT_TRUE(built.ok());
  DirectedISLabel index = std::move(built).value();
  for (VertexId s = 0; s < 10; ++s) {
    SsspResult sssp = DijkstraSssp(g, s);
    for (VertexId t = 0; t < g.NumVertices(); ++t) {
      bool reachable = false;
      ASSERT_TRUE(index.Reachable(s, t, &reachable).ok());
      EXPECT_EQ(reachable, sssp.dist[t] != kInfDistance);
    }
  }
}

TEST(Directed, SameVertexZero) {
  DiGraph g = RandomDiGraph(50, 100, true, 9);
  auto built = DirectedISLabel::Build(g, IndexOptions{});
  ASSERT_TRUE(built.ok());
  DirectedISLabel index = std::move(built).value();
  Distance d;
  ASSERT_TRUE(index.Query(7, 7, &d).ok());
  EXPECT_EQ(d, 0u);
}

TEST(Directed, OutOfRangeRejected) {
  DiGraph g = RandomDiGraph(10, 20, false, 1);
  auto built = DirectedISLabel::Build(g, IndexOptions{});
  ASSERT_TRUE(built.ok());
  DirectedISLabel index = std::move(built).value();
  Distance d;
  EXPECT_TRUE(index.Query(0, 99, &d).IsOutOfRange());
}

TEST(Directed, LabelsCoverBothDirections) {
  DiGraph g = LayeredDiGraph(200, 8);
  auto built = DirectedISLabel::Build(g, IndexOptions{});
  ASSERT_TRUE(built.ok());
  DirectedISLabel index = std::move(built).value();
  // Each family has one label per vertex; self entry present.
  ASSERT_EQ(index.out_labels().size(), g.NumVertices());
  ASSERT_EQ(index.in_labels().size(), g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    bool self_out = false, self_in = false;
    for (const auto& e : index.out_labels()[v]) self_out |= (e.node == v);
    for (const auto& e : index.in_labels()[v]) self_in |= (e.node == v);
    EXPECT_TRUE(self_out);
    EXPECT_TRUE(self_in);
  }
  EXPECT_GT(index.TotalLabelEntries(), 2u * g.NumVertices() - 1);
}

TEST(Directed, StronglyConnectedCycleExact) {
  std::vector<Arc> arcs;
  const VertexId n = 60;
  for (VertexId v = 0; v < n; ++v) arcs.emplace_back(v, (v + 1) % n, 1);
  DiGraph g = DiGraph::FromArcs(std::move(arcs), n);
  auto built = DirectedISLabel::Build(g, IndexOptions{});
  ASSERT_TRUE(built.ok());
  DirectedISLabel index = std::move(built).value();
  Distance d;
  ASSERT_TRUE(index.Query(0, 30, &d).ok());
  EXPECT_EQ(d, 30u);
  ASSERT_TRUE(index.Query(30, 0, &d).ok());
  EXPECT_EQ(d, 30u);
  ASSERT_TRUE(index.Query(0, 59, &d).ok());
  EXPECT_EQ(d, 59u);
}

TEST(Directed, ConcurrentQueriesMatchDirectedDijkstra) {
  // One index, four threads: every query leases its own engine, so the
  // threads share nothing mutable (the TSan job runs this test).
  DiGraph g = RandomDiGraph(300, 1000, true, 4);
  auto built = DirectedISLabel::Build(g, IndexOptions{});
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const DirectedISLabel index = std::move(built).value();
  std::vector<SsspResult> sssp;
  for (VertexId s = 0; s < 24; ++s) sssp.push_back(DijkstraSssp(g, s));

  constexpr unsigned kThreads = 4;
  std::vector<std::thread> pool;
  for (unsigned w = 0; w < kThreads; ++w) {
    pool.emplace_back([&, w] {
      // Each thread walks every source, starting at a different one.
      for (std::size_t i = 0; i < sssp.size(); ++i) {
        const VertexId s =
            static_cast<VertexId>((i + w * sssp.size() / kThreads) %
                                  sssp.size());
        for (VertexId t = 0; t < g.NumVertices(); ++t) {
          Distance got = 0;
          ASSERT_TRUE(index.Query(s, t, &got).ok());
          ASSERT_EQ(got, sssp[s].dist[t]) << "(" << s << "->" << t << ")";
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
}

TEST(Directed, UnbuiltIndexRejectsQueries) {
  Distance d = 0;
  bool reachable = false;
  const DirectedISLabel unbuilt;
  EXPECT_TRUE(unbuilt.Query(0, 1, &d).IsFailedPrecondition());
  EXPECT_TRUE(unbuilt.Reachable(0, 1, &reachable).IsFailedPrecondition());

  auto built = DirectedISLabel::Build(RandomDiGraph(20, 40, false, 2),
                                      IndexOptions{});
  ASSERT_TRUE(built.ok());
  DirectedISLabel index = std::move(built).value();
  const DirectedISLabel moved = std::move(index);
  EXPECT_TRUE(moved.Query(0, 1, &d).ok());
  // A moved-from index holds nothing, like a default-constructed one.
  EXPECT_TRUE(index.Query(0, 1, &d).IsFailedPrecondition());  // NOLINT
  EXPECT_TRUE(index.Reachable(0, 1, &reachable).IsFailedPrecondition());
}

}  // namespace
}  // namespace islabel
