// Algorithm 3: build G_{i+1} from G_i by removing an independent set and
// adding augmenting edges.
//
// For every removed vertex v, every in-arc u → v and every out-arc v → w
// with u ≠ w, the 2-path <u, v, w> is preserved by the augmenting arc
// u → w of weight ω(u,v) + ω(v,w) with intermediate vertex v; if u → w
// already exists the smaller weight wins (Lemma 2). Because L_i is
// independent, 2-hop self-joins on the removed adjacency lists suffice —
// the property that keeps the external variant to sequential scans and one
// sort.
//
// The algorithm is three steps, each written once and shared by every
// in-memory hierarchy: DropVertices, EmitAugmentingArcs and
// MergeAugmentingArcs. An undirected G_i is one LevelGraph whose lists are
// both v's in- and out-arcs (AugmentInPlace composes the steps over it).
// The directed index (§8.2) holds G_i as an out-graph and an in-graph over
// one vertex set, and merges the EA records into the first and the
// reversed records into the second.

#ifndef ISLABEL_CORE_AUGMENT_H_
#define ISLABEL_CORE_AUGMENT_H_

#include <cstdint>
#include <vector>

#include "core/level_graph.h"
#include "util/result.h"

namespace islabel {

/// One augmenting arc src → dst, the 2-path src → via → dst over a removed
/// vertex via: a record of Algorithm 3's EA array.
struct EaRecord {
  VertexId src;
  VertexId dst;
  Weight w;
  VertexId via;
};

/// Outcome counters for one merge of EA records.
struct AugmentStats {
  std::uint64_t edges_inserted = 0;   // new edges in G_{i+1}
  std::uint64_t weights_lowered = 0;  // existing edges whose weight dropped
};

/// Line 2: removes the vertices of `removed` from `*g`, clearing their
/// lists and alive bits, and drops them from the lists that name them.
/// `named_by[v]` holds, for each removed v, the vertices whose lists in
/// `g` name v: its neighbors in an undirected graph, its in-neighbors in
/// an out-graph. FailedPrecondition if a removed vertex is dead or is
/// named by another removed vertex (the set is not independent).
Status DropVertices(LevelGraph* g, const std::vector<VertexId>& removed,
                    const std::vector<std::vector<HierEdge>>& named_by);

/// Lines 3-6: appends to `*ea` one arc u → w with weight ω(u,v) + ω(v,w)
/// and via v for every removed v, in-arc u → v in `in[v]` and out-arc
/// v → w in `out[v]` with u ≠ w. OutOfRange if a weight would overflow
/// the Weight type.
Status EmitAugmentingArcs(const std::vector<VertexId>& removed,
                          const std::vector<std::vector<HierEdge>>& in,
                          const std::vector<std::vector<HierEdge>>& out,
                          std::vector<EaRecord>* ea);

/// Lines 7-8: sorts `*records` by (src, dst), keeps the lightest record of
/// each pair (ties by via), and merges them into the id-ordered lists of
/// `*g`, src's list gaining dst, the smaller weight winning. Counts arcs.
AugmentStats MergeAugmentingArcs(std::vector<EaRecord>* records,
                                 LevelGraph* g);

/// The three steps over an undirected `*g`: removes the (independent)
/// vertex set `removed` and inserts the augmenting edges. `removed_adj[v]`
/// must already hold adj_{G_i}(v) for each removed v (the caller snapshots
/// it; Algorithm 2's ADJ(L_i) output). Counts edges.
Result<AugmentStats> AugmentInPlace(
    LevelGraph* g, const std::vector<VertexId>& removed,
    const std::vector<std::vector<HierEdge>>& removed_adj);

}  // namespace islabel

#endif  // ISLABEL_CORE_AUGMENT_H_
