// Micro-benchmarks (google-benchmark) for the data-structure choices the
// paper's §6.2 mentions and DESIGN.md §2.1 calls out:
//   * binary heap with decrease-key vs monotone radix heap inside Dijkstra,
//   * sorted-merge label intersection (the on-disk label order) vs a hash
//     set intersection,
//   * the greedy independent-set scan,
//   * varint label coding,
//   * the obs::Histogram record path with 1–8 threads recording into one
//     series (DESIGN.md §16.1: per-thread cells).

#include <benchmark/benchmark.h>

#include <unordered_map>

#include "baseline/dijkstra.h"
#include "core/independent_set.h"
#include "core/label.h"
#include "core/level_graph.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "util/indexed_heap.h"
#include "util/radix_heap.h"
#include "util/random.h"
#include "util/varint.h"

namespace islabel {
namespace {

Graph BenchGraph() {
  static Graph g = [] {
    Rng rng(1);
    EdgeList el = GenerateBarabasiAlbert(20000, 5, &rng);
    AssignUniformWeights(&el, 1, 16, &rng);
    return Graph::FromEdgeList(std::move(el));
  }();
  return g;
}

void BM_DijkstraIndexedHeap(benchmark::State& state) {
  Graph g = BenchGraph();
  Rng rng(2);
  for (auto _ : state) {
    VertexId s = static_cast<VertexId>(rng.Uniform(g.NumVertices()));
    VertexId t = static_cast<VertexId>(rng.Uniform(g.NumVertices()));
    benchmark::DoNotOptimize(DijkstraP2P(g, s, t));
  }
}
BENCHMARK(BM_DijkstraIndexedHeap);

// Same P2P Dijkstra but with the monotone radix heap + lazy deletion.
Distance RadixDijkstra(const Graph& g, VertexId s, VertexId t) {
  if (s == t) return 0;
  std::vector<Distance> dist(g.NumVertices(), kInfDistance);
  RadixHeap heap;
  dist[s] = 0;
  heap.Push(s, 0);
  while (!heap.Empty()) {
    auto [v, d] = heap.PopMin();
    if (d != dist[v]) continue;  // stale
    if (v == t) return d;
    auto nbrs = g.Neighbors(v);
    auto ws = g.NeighborWeights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const Distance nd = d + ws[i];
      if (nd < dist[nbrs[i]]) {
        dist[nbrs[i]] = nd;
        heap.Push(nbrs[i], nd);
      }
    }
  }
  return kInfDistance;
}

void BM_DijkstraRadixHeap(benchmark::State& state) {
  Graph g = BenchGraph();
  Rng rng(2);
  for (auto _ : state) {
    VertexId s = static_cast<VertexId>(rng.Uniform(g.NumVertices()));
    VertexId t = static_cast<VertexId>(rng.Uniform(g.NumVertices()));
    benchmark::DoNotOptimize(RadixDijkstra(g, s, t));
  }
}
BENCHMARK(BM_DijkstraRadixHeap);

std::vector<LabelEntry> SyntheticLabel(std::size_t len, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<LabelEntry> label;
  VertexId node = 0;
  for (std::size_t i = 0; i < len; ++i) {
    node += 1 + static_cast<VertexId>(rng.Uniform(8));
    label.emplace_back(node, rng.Uniform(1000));
  }
  return label;
}

void BM_Eq1MergeIntersect(benchmark::State& state) {
  auto a = SyntheticLabel(static_cast<std::size_t>(state.range(0)), 3);
  auto b = SyntheticLabel(static_cast<std::size_t>(state.range(0)), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EvaluateEq1(a, b));
  }
}
BENCHMARK(BM_Eq1MergeIntersect)->Arg(16)->Arg(128)->Arg(1024);

void BM_Eq1HashIntersect(benchmark::State& state) {
  auto a = SyntheticLabel(static_cast<std::size_t>(state.range(0)), 3);
  auto b = SyntheticLabel(static_cast<std::size_t>(state.range(0)), 4);
  for (auto _ : state) {
    std::unordered_map<VertexId, Distance> map;
    map.reserve(a.size());
    for (const LabelEntry& e : a) map.emplace(e.node, e.dist);
    Distance best = kInfDistance;
    for (const LabelEntry& e : b) {
      auto it = map.find(e.node);
      if (it != map.end()) best = std::min(best, it->second + e.dist);
    }
    benchmark::DoNotOptimize(best);
  }
}
BENCHMARK(BM_Eq1HashIntersect)->Arg(16)->Arg(128)->Arg(1024);

void BM_IndependentSet(benchmark::State& state) {
  Graph g = BenchGraph();
  Rng rng(9);
  for (auto _ : state) {
    LevelGraph lg = LevelGraph::FromGraph(g);
    benchmark::DoNotOptimize(
        ComputeIndependentSet({&lg}, IsOrder::kMinDegree, &rng));
  }
}
BENCHMARK(BM_IndependentSet);

void BM_VarintEncodeDecode(benchmark::State& state) {
  Rng rng(5);
  std::vector<std::uint64_t> values(1024);
  for (auto& v : values) v = rng.Uniform(1u << 20);
  for (auto _ : state) {
    std::string buf;
    for (std::uint64_t v : values) PutVarint64(&buf, v);
    Decoder dec(buf);
    std::uint64_t sum = 0, v = 0;
    while (dec.GetVarint64(&v)) sum += v;
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_VarintEncodeDecode);

void BM_HeapPushPop(benchmark::State& state) {
  Rng rng(6);
  for (auto _ : state) {
    IndexedHeap heap(4096);
    for (std::uint32_t i = 0; i < 4096; ++i) {
      heap.Push(i, rng.Uniform(1u << 20));
    }
    std::uint64_t sum = 0;
    while (!heap.Empty()) sum += heap.PopMin().second;
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_HeapPushPop);

// Every thread records into the same series, as a TCP server's workers
// do. Each of the first Histogram::ThreadCells() threads writes its own
// cell; threads past that share one cell through fetch_add.
void BM_HistogramRecord(benchmark::State& state) {
  static obs::Histogram histogram;
  benchmark::DoNotOptimize(&histogram);
  const std::uint64_t ns =
      700 + static_cast<std::uint64_t>(state.thread_index());
  for (auto _ : state) {
    histogram.RecordNanos(ns);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_HistogramRecord)->ThreadRange(1, 8)->UseRealTime();

}  // namespace
}  // namespace islabel

BENCHMARK_MAIN();
