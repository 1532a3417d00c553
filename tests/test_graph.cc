// Unit tests for the graph substrate: edge lists, CSR graphs, directed
// graphs, generators, components, stats.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <utility>

#include "graph/components.h"
#include "graph/digraph.h"
#include "graph/edge_list.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/stats.h"
#include "core/hierarchy.h"
#include "tests/test_common.h"

namespace islabel {
namespace {

using testing::Family;
using testing::MakeTestGraph;

// ---------- EdgeList ----------

TEST(EdgeList, NormalizeDropsSelfLoops) {
  EdgeList el;
  el.Add(1, 1, 5);
  el.Add(0, 1, 2);
  el.Normalize();
  ASSERT_EQ(el.size(), 1u);
  EXPECT_EQ(el.edges()[0].u, 0u);
  EXPECT_EQ(el.edges()[0].v, 1u);
}

TEST(EdgeList, NormalizeMergesParallelKeepingMinWeight) {
  EdgeList el;
  el.Add(2, 1, 9);
  el.Add(1, 2, 4, /*via=*/7);
  el.Add(2, 1, 6);
  el.Normalize();
  ASSERT_EQ(el.size(), 1u);
  EXPECT_EQ(el.edges()[0].w, 4u);
  EXPECT_EQ(el.edges()[0].via, 7u);  // the min-weight copy's via survives
}

TEST(EdgeList, NormalizeOrientsAndSorts) {
  EdgeList el;
  el.Add(5, 3);
  el.Add(2, 4);
  el.Add(1, 0);
  el.Normalize();
  ASSERT_EQ(el.size(), 3u);
  EXPECT_EQ(el.edges()[0].u, 0u);
  EXPECT_EQ(el.edges()[1].u, 2u);
  EXPECT_EQ(el.edges()[2].u, 3u);
}

TEST(EdgeList, TracksVertexCount) {
  EdgeList el;
  el.Add(3, 9);
  EXPECT_EQ(el.num_vertices(), 10u);
  el.EnsureVertices(20);
  EXPECT_EQ(el.num_vertices(), 20u);
  el.EnsureVertices(5);  // never shrinks
  EXPECT_EQ(el.num_vertices(), 20u);
}

// ---------- Graph (CSR) ----------

TEST(Graph, EmptyGraph) {
  Graph g = Graph::FromEdgeList(EdgeList(0));
  EXPECT_EQ(g.NumVertices(), 0u);
  EXPECT_EQ(g.NumEdges(), 0u);
}

TEST(Graph, IsolatedVertices) {
  Graph g = Graph::FromEdgeList(EdgeList(5));
  EXPECT_EQ(g.NumVertices(), 5u);
  EXPECT_EQ(g.NumEdges(), 0u);
  EXPECT_EQ(g.Degree(3), 0u);
}

TEST(Graph, AdjacencyIsSymmetricAndSorted) {
  Rng rng(3);
  EdgeList el = GenerateErdosRenyi(200, 600, &rng);
  Graph g = Graph::FromEdgeList(el);
  std::uint64_t degree_sum = 0;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    auto nbrs = g.Neighbors(v);
    degree_sum += nbrs.size();
    EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
    for (VertexId u : nbrs) {
      EXPECT_TRUE(g.HasEdge(u, v)) << "missing reverse edge";
      EXPECT_NE(u, v) << "self loop survived";
    }
  }
  EXPECT_EQ(degree_sum, 2 * g.NumEdges());
}

TEST(Graph, EdgeWeightLookup) {
  EdgeList el(4);
  el.Add(0, 1, 7);
  el.Add(1, 2, 3);
  Graph g = Graph::FromEdgeList(el);
  EXPECT_EQ(g.EdgeWeight(0, 1), 7u);
  EXPECT_EQ(g.EdgeWeight(1, 0), 7u);
  EXPECT_EQ(g.EdgeWeight(1, 2), 3u);
  EXPECT_EQ(g.EdgeWeight(0, 2), kInfDistance);
  EXPECT_FALSE(g.HasEdge(0, 3));
}

TEST(Graph, ToEdgeListRoundTrip) {
  Rng rng(5);
  EdgeList el = GenerateBarabasiAlbert(100, 3, &rng);
  AssignUniformWeights(&el, 1, 9, &rng);
  Graph g = Graph::FromEdgeList(el);
  Graph g2 = Graph::FromEdgeList(g.ToEdgeList());
  ASSERT_EQ(g.NumVertices(), g2.NumVertices());
  ASSERT_EQ(g.NumEdges(), g2.NumEdges());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    auto a = g.Neighbors(v);
    auto b = g2.Neighbors(v);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i], b[i]);
      EXPECT_EQ(g.NeighborWeights(v)[i], g2.NeighborWeights(v)[i]);
    }
  }
}

TEST(Graph, ViasPreserved) {
  EdgeList el(3);
  el.Add(0, 1, 2, /*via=*/2);
  Graph g = Graph::FromEdgeList(el, /*keep_vias=*/true);
  ASSERT_TRUE(g.has_vias());
  EXPECT_EQ(g.NeighborVias(0)[0], 2u);
  EXPECT_EQ(g.NeighborVias(1)[0], 2u);
}

// Renumbering into a larger id space and back is the identity, and the
// renumbered lists stay sorted with weights and vias moving along.
TEST(Graph, RenumberedRoundTrip) {
  Rng rng(11);
  EdgeList el = GenerateErdosRenyi(60, 150, &rng);
  AssignUniformWeights(&el, 1, 9, &rng);
  for (Edge& e : el.edges()) e.via = e.u + e.v;
  el.EnsureVertices(64);  // isolated tail vertices
  Graph g = Graph::FromEdgeList(el, /*keep_vias=*/true);
  std::vector<VertexId> to_new(g.NumVertices()), to_old(200, kInvalidVertex);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    to_new[v] = 3 * (g.NumVertices() - 1 - v);  // order-reversing, spread
    to_old[to_new[v]] = v;
  }
  Graph renamed = g.Renumbered(to_new, to_old);
  ASSERT_EQ(renamed.NumVertices(), 200u);
  ASSERT_EQ(renamed.NumEdges(), g.NumEdges());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    ASSERT_EQ(renamed.Degree(to_new[v]), g.Degree(v));
    auto nbrs = renamed.Neighbors(to_new[v]);
    ASSERT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId u = to_old[nbrs[i]];
      EXPECT_EQ(renamed.NeighborWeights(to_new[v])[i], g.EdgeWeight(v, u));
      EXPECT_EQ(renamed.NeighborVias(to_new[v])[i], v + u);
    }
  }
  Graph back = renamed.Renumbered(to_old, to_new);
  const EdgeList a = g.ToEdgeList(), b = back.ToEdgeList();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.edges()[i].u, b.edges()[i].u);
    EXPECT_EQ(a.edges()[i].v, b.edges()[i].v);
    EXPECT_EQ(a.edges()[i].w, b.edges()[i].w);
    EXPECT_EQ(a.edges()[i].via, b.edges()[i].via);
  }
}

TEST(Graph, SizeVEMatchesDefinition) {
  Graph g = MakeTestGraph(Family::kGrid, 100, false, 1);
  EXPECT_EQ(g.SizeVE(), g.NumVertices() + g.NumEdges());
}

// ---------- DiGraph ----------

TEST(DiGraph, OutAndInAdjacency) {
  std::vector<Arc> arcs = {{0, 1, 5}, {1, 2, 3}, {2, 0, 1}, {0, 2, 9}};
  DiGraph g = DiGraph::FromArcs(arcs);
  EXPECT_EQ(g.NumVertices(), 3u);
  EXPECT_EQ(g.NumArcs(), 4u);
  EXPECT_EQ(g.OutDegree(0), 2u);
  EXPECT_EQ(g.InDegree(0), 1u);
  EXPECT_EQ(g.ArcWeight(0, 1), 5u);
  EXPECT_EQ(g.ArcWeight(1, 0), kInfDistance);  // directed!
  // In-neighbors of 2: 0 and 1.
  auto in2 = g.InNeighbors(2);
  ASSERT_EQ(in2.size(), 2u);
  EXPECT_EQ(in2[0], 0u);
  EXPECT_EQ(in2[1], 1u);
}

TEST(DiGraph, ParallelArcsMergedMinWeight) {
  std::vector<Arc> arcs = {{0, 1, 5}, {0, 1, 2}, {0, 1, 8}};
  DiGraph g = DiGraph::FromArcs(arcs);
  EXPECT_EQ(g.NumArcs(), 1u);
  EXPECT_EQ(g.ArcWeight(0, 1), 2u);
}

TEST(DiGraph, SelfLoopsDropped) {
  std::vector<Arc> arcs = {{0, 0, 1}, {0, 1, 1}};
  DiGraph g = DiGraph::FromArcs(arcs);
  EXPECT_EQ(g.NumArcs(), 1u);
}

TEST(DiGraph, RandomArcsAppearOnceInTheirHeadsInList) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    Rng rng(seed);
    const VertexId n = 60;
    std::vector<Arc> arcs;
    for (int i = 0; i < 400; ++i) {
      arcs.emplace_back(static_cast<VertexId>(rng.Uniform(n)),
                        static_cast<VertexId>(rng.Uniform(n)),
                        static_cast<Weight>(1 + rng.Uniform(9)));
    }
    const DiGraph g = DiGraph::FromArcs(arcs, n);
    // Expected arcs: self-loops dropped, parallel arcs at their min weight.
    std::map<std::pair<VertexId, VertexId>, Weight> expect;
    for (const Arc& a : arcs) {
      if (a.from == a.to) continue;
      const auto [it, fresh] = expect.emplace(std::pair(a.from, a.to), a.w);
      if (!fresh) it->second = std::min(it->second, a.w);
    }
    ASSERT_EQ(g.NumVertices(), n);
    ASSERT_EQ(g.NumArcs(), expect.size());
    ASSERT_EQ(g.in().NumArcs(), expect.size());
    for (VertexId v = 0; v < n; ++v) {
      for (const Csr* lists : {&g.out(), &g.in()}) {
        const auto ids = lists->Neighbors(v);
        EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end(),
                                     std::greater_equal<VertexId>()),
                  ids.end())
            << "list of " << v << " is not strictly sorted by id";
      }
    }
    for (const auto& [arc, w] : expect) {
      const auto [u, v] = arc;
      EXPECT_EQ(g.ArcWeight(u, v), w);
      const auto tails = g.in().Neighbors(v);
      ASSERT_EQ(std::count(tails.begin(), tails.end(), u), 1)
          << u << " -> " << v << " in " << v << "'s in-list";
      const auto at = std::find(tails.begin(), tails.end(), u) - tails.begin();
      EXPECT_EQ(g.in().NeighborWeights(v)[static_cast<std::size_t>(at)], w);
    }
  }
}

// ---------- Generators ----------

TEST(Generators, ErdosRenyiHasRequestedEdges) {
  Rng rng(1);
  EdgeList el = GenerateErdosRenyi(100, 300, &rng);
  el.Normalize();
  EXPECT_EQ(el.size(), 300u);
}

TEST(Generators, ErdosRenyiCapsAtCompleteGraph) {
  Rng rng(1);
  EdgeList el = GenerateErdosRenyi(5, 1000, &rng);
  el.Normalize();
  EXPECT_EQ(el.size(), 10u);  // C(5,2)
}

TEST(Generators, BarabasiAlbertPowerLaw) {
  Rng rng(2);
  Graph g = Graph::FromEdgeList(GenerateBarabasiAlbert(2000, 3, &rng));
  GraphStats s = ComputeStats(g);
  // Preferential attachment: hubs far above the mean degree.
  EXPECT_GT(s.max_degree, 8 * s.avg_degree);
  // Connected by construction.
  EXPECT_EQ(FindComponents(g).num_components, 1u);
}

TEST(Generators, RMatProducesHubs) {
  Rng rng(3);
  Graph g = Graph::FromEdgeList(
      GenerateRMat(12, 3 * (1 << 12), 0.57, 0.19, 0.19, &rng));
  GraphStats s = ComputeStats(g);
  EXPECT_GT(s.max_degree, 5 * s.avg_degree);
}

TEST(Generators, Grid2DStructure) {
  Graph g = Graph::FromEdgeList(GenerateGrid2D(4, 5));
  EXPECT_EQ(g.NumVertices(), 20u);
  // 4x5 grid: 4*(5-1) horizontal + (4-1)*5 vertical = 16 + 15.
  EXPECT_EQ(g.NumEdges(), 31u);
  EXPECT_EQ(g.Degree(0), 2u);   // corner
  EXPECT_EQ(g.Degree(6), 4u);   // interior
}

TEST(Generators, DeterministicShapes) {
  EXPECT_EQ(Graph::FromEdgeList(GeneratePath(10)).NumEdges(), 9u);
  EXPECT_EQ(Graph::FromEdgeList(GenerateCycle(10)).NumEdges(), 10u);
  EXPECT_EQ(Graph::FromEdgeList(GenerateStar(10)).Degree(0), 9u);
  EXPECT_EQ(Graph::FromEdgeList(GenerateClique(6)).NumEdges(), 15u);
  Graph tree = Graph::FromEdgeList(GenerateCompleteBinaryTree(15));
  EXPECT_EQ(tree.NumEdges(), 14u);
  EXPECT_EQ(FindComponents(tree).num_components, 1u);
}

TEST(Generators, WattsStrogatzDegreeSum) {
  Rng rng(4);
  Graph g = Graph::FromEdgeList(GenerateWattsStrogatz(500, 3, 0.2, &rng));
  // Ring lattice gives 3 edges per vertex before rewiring/dedup.
  EXPECT_LE(g.NumEdges(), 1500u);
  EXPECT_GT(g.NumEdges(), 1200u);
}

TEST(Generators, CliqueCommunityStructure) {
  Rng rng(9);
  EdgeList el = GenerateCliqueCommunity(1600, 16, 0.0, 0.0, 0.0, &rng);
  Graph g = Graph::FromEdgeList(el);
  // Pure cliques: every vertex has degree exactly clique_size - 1.
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_EQ(g.Degree(v), 15u);
  }
  EXPECT_EQ(FindComponents(g).num_components, 100u);
}

TEST(Generators, CliqueCommunityExternalLinksConnect) {
  Rng rng(9);
  Graph g = Graph::FromEdgeList(
      GenerateCliqueCommunity(2000, 10, 0.8, 0.0, 0.0, &rng));
  // Dense external links join most cliques into one large component.
  ComponentsResult comps = FindComponents(g);
  EXPECT_GT(comps.largest_size, g.NumVertices() / 2);
}

TEST(Generators, CliqueCommunityChainPeriphery) {
  Rng rng(9);
  Graph g = Graph::FromEdgeList(
      GenerateCliqueCommunity(1000, 10, 0.2, 0.5, 16.0, &rng));
  // Half the vertices live in chains: many degree-1/2 vertices.
  std::size_t low_degree = 0;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    low_degree += (g.Degree(v) <= 2);
  }
  EXPECT_GT(low_degree, g.NumVertices() / 4);
}

TEST(Generators, CliqueCommunityEnablesDeepHierarchies) {
  // The property the generator exists for (DESIGN.md §3): clustered
  // neighborhoods keep the sigma criterion shrinking level after level.
  Rng rng(1);
  Graph g = Graph::FromEdgeList(
      GenerateCliqueCommunity(4000, 16, 0.25, 0.0, 0.0, &rng));
  auto h = BuildHierarchy(g, IndexOptions{});
  ASSERT_TRUE(h.ok());
  EXPECT_GE(h->k, 6u) << "clique communities must peel deeply";
}

TEST(Generators, UniformWeightsInRange) {
  Rng rng(5);
  EdgeList el = GeneratePath(1000);
  AssignUniformWeights(&el, 3, 7, &rng);
  std::set<Weight> seen;
  for (const Edge& e : el.edges()) {
    EXPECT_GE(e.w, 3u);
    EXPECT_LE(e.w, 7u);
    seen.insert(e.w);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Generators, SameSeedSameGraph) {
  Rng r1(42), r2(42);
  EdgeList a = GenerateRMat(8, 700, 0.57, 0.19, 0.19, &r1);
  EdgeList b = GenerateRMat(8, 700, 0.57, 0.19, 0.19, &r2);
  a.Normalize();
  b.Normalize();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.edges()[i], b.edges()[i]);
  }
}

// ---------- Components ----------

TEST(Components, SingleComponent) {
  Graph g = Graph::FromEdgeList(GeneratePath(50));
  ComponentsResult r = FindComponents(g);
  EXPECT_EQ(r.num_components, 1u);
  EXPECT_EQ(r.largest_size, 50u);
}

TEST(Components, CountsIsolatedVertices) {
  EdgeList el(5);
  el.Add(0, 1);
  Graph g = Graph::FromEdgeList(el);
  ComponentsResult r = FindComponents(g);
  EXPECT_EQ(r.num_components, 4u);  // {0,1}, {2}, {3}, {4}
  EXPECT_EQ(r.largest_size, 2u);
}

TEST(Components, ExtractLargestRemapsDensely) {
  EdgeList el(10);
  el.Add(0, 1);
  el.Add(1, 2);
  el.Add(5, 6);  // smaller component
  Graph g = Graph::FromEdgeList(el);
  LargestComponent lcc = ExtractLargestComponent(g);
  EXPECT_EQ(lcc.graph.NumVertices(), 3u);
  EXPECT_EQ(lcc.graph.NumEdges(), 2u);
  // Mapping is a bijection between LCC vertices and new ids.
  for (VertexId nv = 0; nv < 3u; ++nv) {
    EXPECT_EQ(lcc.old_to_new[lcc.new_to_old[nv]], nv);
  }
  EXPECT_EQ(lcc.old_to_new[5], kInvalidVertex);
}

// The partitioner of src/catalog/ routes every query through the
// components scan, so its degenerate shapes are load-bearing.

TEST(Components, EmptyGraph) {
  Graph g;
  ComponentsResult r = FindComponents(g);
  EXPECT_EQ(r.num_components, 0u);
  EXPECT_EQ(r.largest_size, 0u);
  EXPECT_TRUE(r.component.empty());
  LargestComponent lcc = ExtractLargestComponent(g);
  EXPECT_EQ(lcc.graph.NumVertices(), 0u);
  EXPECT_TRUE(lcc.old_to_new.empty());
  EXPECT_TRUE(lcc.new_to_old.empty());
}

TEST(Components, AllIsolatedVertices) {
  EdgeList el;
  el.EnsureVertices(7);
  Graph g = Graph::FromEdgeList(el);
  ComponentsResult r = FindComponents(g);
  EXPECT_EQ(r.num_components, 7u);
  EXPECT_EQ(r.largest_size, 1u);
  // Every vertex is its own component, numbered in id order.
  for (VertexId v = 0; v < 7u; ++v) {
    EXPECT_EQ(r.component[v], v);
  }
  LargestComponent lcc = ExtractLargestComponent(g);
  EXPECT_EQ(lcc.graph.NumVertices(), 1u);
  EXPECT_EQ(lcc.new_to_old[0], 0u);  // ties break toward component 0
}

TEST(Components, SelfLoopsDoNotConnect) {
  // Self-loops are dropped by CSR normalization, so a vertex with only a
  // self-loop is still isolated.
  EdgeList el(4);
  el.Add(0, 0, 5);
  el.Add(1, 2, 1);
  el.Add(3, 3, 2);
  Graph g = Graph::FromEdgeList(el);
  ComponentsResult r = FindComponents(g);
  EXPECT_EQ(r.num_components, 3u);  // {0}, {1,2}, {3}
  EXPECT_EQ(r.largest_size, 2u);
  EXPECT_EQ(r.component[1], r.component[2]);
  EXPECT_NE(r.component[0], r.component[3]);
}

TEST(Components, SingleGiantComponent) {
  Graph g = MakeTestGraph(Family::kBarabasiAlbert, 500, /*weighted=*/true, 3);
  ComponentsResult r = FindComponents(g);
  ASSERT_EQ(r.num_components, 1u);
  EXPECT_EQ(r.largest, 0u);
  EXPECT_EQ(r.largest_size, g.NumVertices());
  // Extraction of the only component is the identity mapping.
  LargestComponent lcc = ExtractLargestComponent(g);
  ASSERT_EQ(lcc.graph.NumVertices(), g.NumVertices());
  EXPECT_EQ(lcc.graph.NumEdges(), g.NumEdges());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_EQ(lcc.old_to_new[v], v);
    EXPECT_EQ(lcc.new_to_old[v], v);
  }
}

TEST(Components, LargestComponentPreservesWeights) {
  EdgeList el(6);
  el.Add(0, 1, 9);
  el.Add(1, 2, 4);
  el.Add(4, 5, 1);
  Graph g = Graph::FromEdgeList(el);
  LargestComponent lcc = ExtractLargestComponent(g);
  EXPECT_EQ(lcc.graph.EdgeWeight(lcc.old_to_new[0], lcc.old_to_new[1]), 9u);
}

// ---------- Stats ----------

TEST(Stats, ComputesTable2Columns) {
  Graph g = Graph::FromEdgeList(GenerateStar(101));
  GraphStats s = ComputeStats(g);
  EXPECT_EQ(s.num_vertices, 101u);
  EXPECT_EQ(s.num_edges, 100u);
  EXPECT_EQ(s.max_degree, 100u);
  EXPECT_NEAR(s.avg_degree, 200.0 / 101.0, 1e-9);
  EXPECT_GT(s.disk_size_bytes, 0u);
}

TEST(Stats, HumanFormatting) {
  EXPECT_EQ(HumanCount(950), "950");
  EXPECT_EQ(HumanCount(1500), "1.5K");
  EXPECT_EQ(HumanCount(2200000), "2.2M");
  EXPECT_EQ(HumanCount(3100000000ULL), "3.1B");
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(2048), "2.0 KB");
  EXPECT_EQ(HumanBytes(5ULL << 20), "5.0 MB");
  EXPECT_EQ(HumanBytes(3ULL << 30), "3.0 GB");
}

}  // namespace
}  // namespace islabel
