#include "perf/datasets.h"

#include <cstdio>
#include <cstdlib>

#include "graph/components.h"
#include "graph/generators.h"
#include "util/random.h"

namespace islabel {
namespace perf {

namespace {

Graph Lcc(EdgeList edges) {
  Graph full = Graph::FromEdgeList(std::move(edges));
  return ExtractLargestComponent(full).graph;
}

}  // namespace

Graph MakeDataset(const std::string& name, double scale) {
  Rng rng(2013);
  if (name == "synth-btc") {
    // Sparse, hub-dominated semantic graph: a preferential-attachment tree
    // plus ~10% random extra edges (huge independent sets, tiny G_k).
    const VertexId n = static_cast<VertexId>(250000 * scale);
    EdgeList el = GenerateBarabasiAlbert(n, 1, &rng);
    for (VertexId i = 0; i < n / 10; ++i) {
      el.Add(static_cast<VertexId>(rng.Uniform(n)),
             static_cast<VertexId>(rng.Uniform(n)), 1);
    }
    return Lcc(std::move(el));
  }
  if (name == "synth-web") {
    // Clustered web graph with weights in {1, 2}: clique communities keep
    // the hierarchy shrinking level after level (deep k).
    const VertexId n = static_cast<VertexId>(30000 * scale);
    EdgeList el = GenerateCliqueCommunity(n, 18, 0.25, 0.10, 48.0, &rng);
    AssignUniformWeights(&el, 1, 2, &rng);
    return Lcc(std::move(el));
  }
  if (name == "synth-skitter") {
    // Internet topology: clustered AS neighbourhoods, sparse long links.
    const VertexId n = static_cast<VertexId>(40000 * scale);
    return Lcc(GenerateCliqueCommunity(n, 14, 0.5, 0.10, 24.0, &rng));
  }
  if (name == "synth-wiki") {
    // Sparse communication graph with one dominant hub (vertex 0).
    const VertexId n = static_cast<VertexId>(65000 * scale);
    EdgeList el = GenerateCliqueCommunity(n, 5, 0.3, 0.30, 16.0, &rng);
    for (VertexId i = 0; i < n / 25; ++i) {
      el.Add(0, static_cast<VertexId>(rng.Uniform(n)), 1);
    }
    return Lcc(std::move(el));
  }
  if (name == "synth-google") {
    // Moderate power-law web crawl with smaller link blocks.
    const VertexId n = static_cast<VertexId>(45000 * scale);
    return Lcc(GenerateCliqueCommunity(n, 11, 0.4, 0.10, 24.0, &rng));
  }
  std::fprintf(stderr, "unknown dataset %s\n", name.c_str());
  std::abort();
}

Graph TwoCopies(const Graph& g) {
  EdgeList edges = g.ToEdgeList();
  const VertexId half = g.NumVertices();
  const std::size_t original = edges.size();
  for (std::size_t e = 0; e < original; ++e) {
    const Edge copy = edges.edges()[e];
    edges.Add(copy.u + half, copy.v + half, copy.w);
  }
  return Graph::FromEdgeList(std::move(edges));
}

std::uint64_t EdgeChecksum(const Graph& g) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  mix(g.NumVertices());
  const EdgeList edges = g.ToEdgeList();
  for (const Edge& e : edges.edges()) {
    mix(e.u);
    mix(e.v);
    mix(e.w);
  }
  return h;
}

}  // namespace perf
}  // namespace islabel
