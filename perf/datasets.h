// The benchmark's own copies of the synthetic dataset recipes.
//
// These mirror bench/bench_common.cc at the commit that introduced the
// benchmark, but are deliberately not linked from there: later edits to
// the table benches must not be able to change this benchmark's inputs.
// Every recipe is deterministic (fixed generator seed); the workload seed
// only drives the request streams.

#ifndef ISLABEL_PERF_DATASETS_H_
#define ISLABEL_PERF_DATASETS_H_

#include <cstdint>
#include <string>

#include "graph/graph.h"

namespace islabel {
namespace perf {

/// Largest connected component of the named stand-in ("synth-btc",
/// "synth-web", "synth-skitter", "synth-wiki", "synth-google") at `scale`.
Graph MakeDataset(const std::string& name, double scale);

/// Two disjoint copies of `g` (vertex v and v + |V|): a graph with two
/// components, so a partitioned build produces several parts and half of
/// the uniform pairs cross components.
Graph TwoCopies(const Graph& g);

/// Order-sensitive FNV-1a checksum over the normalized edge list
/// (u, v, w per edge): the input fingerprint records carry.
std::uint64_t EdgeChecksum(const Graph& g);

}  // namespace perf
}  // namespace islabel

#endif  // ISLABEL_PERF_DATASETS_H_
