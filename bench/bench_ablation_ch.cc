// Ablation: Contraction Hierarchies on road-like vs power-law graphs —
// the paper's §3 argument quantified. CH (the road-network state of the
// art it cites as [14]) relies on low highway dimension: on a grid it
// needs few shortcuts and answers with tiny searches, while on
// hub-dominated graphs contraction fills in densely and the advantage
// evaporates; IS-LABEL behaves consistently on both.

#include <cstdio>

#include "baseline/contraction_hierarchy.h"
#include "bench/bench_common.h"
#include "core/index.h"
#include "graph/components.h"
#include "graph/generators.h"
#include "graph/stats.h"
#include "util/random.h"
#include "util/timer.h"

using namespace islabel;
using namespace islabel::bench;

int main() {
  const double scale = ScaleFromEnv();
  const std::size_t num_queries = QueriesFromEnv();
  PrintHeader("Ablation: Contraction Hierarchies vs IS-LABEL across graph "
              "classes (paper §3)",
              "CH = road-network method [14]; expected to degrade off "
              "road-like topology");
  std::printf("%-16s %-9s %10s %12s %12s %14s\n", "graph", "method",
              "Build(s)", "Query(us)", "IndexDeg", "settled/query");

  struct Case {
    const char* name;
    Graph graph;
  };
  Rng rng(3);
  // Sizes kept modest: CH preprocessing on the power-law graph is the
  // degeneration being measured and scales super-linearly.
  const VertexId side = static_cast<VertexId>(80 * scale) + 20;
  EdgeList grid = GenerateGrid2D(side, side);
  AssignUniformWeights(&grid, 1, 9, &rng);
  std::vector<Case> cases;
  cases.push_back({"grid(road-like)", Graph::FromEdgeList(std::move(grid))});
  cases.push_back(
      {"power-law(BA)",
       ExtractLargestComponent(
           Graph::FromEdgeList(GenerateBarabasiAlbert(
               static_cast<VertexId>(1500 * scale), 3, &rng)))
           .graph});

  for (Case& c : cases) {
    auto queries = MakeQueries(c.graph, num_queries, 9);
    {
      WallTimer t;
      auto ch = ContractionHierarchy::Build(c.graph);
      const double build_s = t.ElapsedSeconds();
      if (ch.ok()) {
        ContractionHierarchy::Scratch scratch;
        std::uint64_t settled = 0;
        WallTimer qt;
        for (auto [s, u] : queries) {
          std::uint64_t st = 0;
          (void)ch->Query(s, u, &scratch, &st);
          settled += st;
        }
        std::printf("%-16s %-9s %10.2f %12.1f %12.2f %14.1f\n", c.name, "CH",
                    build_s, qt.ElapsedMicros() * 1.0 / num_queries,
                    ch->MeanUpDegree(),
                    static_cast<double>(settled) / num_queries);
      }
    }
    {
      WallTimer t;
      auto idx = ISLabelIndex::Build(c.graph, IndexOptions{});
      const double build_s = t.ElapsedSeconds();
      if (idx.ok()) {
        std::uint64_t settled = 0;
        WallTimer qt;
        for (auto [s, u] : queries) {
          Distance d = 0;
          QueryStats stats;
          (void)idx->Query(s, u, &d, &stats);
          settled += stats.settled;
        }
        const double mean_label =
            static_cast<double>(idx->build_stats().label_entries) /
            c.graph.NumVertices();
        std::printf("%-16s %-9s %10.2f %12.1f %12.2f %14.1f\n", c.name,
                    "IS-LABEL", build_s,
                    qt.ElapsedMicros() * 1.0 / num_queries, mean_label,
                    static_cast<double>(settled) / num_queries);
      }
    }
  }
  std::printf("\nShape check: on the grid CH builds fast with small upward "
              "degree and tiny searches;\non the power-law graph CH's "
              "build/degree blow up while IS-LABEL stays consistent —\nthe "
              "reason the paper develops a method that does not rely on "
              "road-network structure.\n");
  return 0;
}
