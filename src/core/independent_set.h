// Algorithm 2: greedy independent set of the current level graph.
//
// The paper maximizes |L_i| greedily by considering vertices in ascending
// degree order [16]: a small-degree vertex excludes few others. The scan
// keeps an exclusion set L' (vertices adjacent to an already-selected
// vertex); a vertex is selected iff it is not yet excluded. The result is a
// *maximal* independent set of G_i.
//
// One scan serves every in-memory hierarchy. It reads G_i as the level
// graphs that share one vertex set: the undirected G_i is one graph, and a
// directed G_i (§8.2) is its out- and in-graph, so that the set is
// independent over both arc directions.

#ifndef ISLABEL_CORE_INDEPENDENT_SET_H_
#define ISLABEL_CORE_INDEPENDENT_SET_H_

#include <initializer_list>
#include <vector>

#include "core/level_graph.h"
#include "core/options.h"
#include "util/random.h"

namespace islabel {

/// Computes a maximal independent set of the alive vertices of `graphs`,
/// level graphs over one vertex set (alive bits are read from the first).
/// A vertex's degree is the sum of its list lengths, and selecting it
/// excludes every vertex on any of its lists. Vertices are considered in
/// the order implied by `order` (ties broken by vertex id so results are
/// deterministic). Returns the selected vertices sorted by id.
std::vector<VertexId> ComputeIndependentSet(
    std::initializer_list<const LevelGraph*> graphs, IsOrder order, Rng* rng);

}  // namespace islabel

#endif  // ISLABEL_CORE_INDEPENDENT_SET_H_
