// Directed IS-LABEL (§8.2).
//
// The hierarchy runs the undirected index's Algorithms 2 and 3
// (core/independent_set.h, core/augment.h) over G_i's out- and in-lists:
// the independent set ignores edge direction, and augmenting arcs are
// created only for directed 2-paths u→v→w over a removed vertex v.
// Every vertex carries two labels: the out-label (ancestors reached by
// arcs from lower to higher level) and the in-label (the symmetric
// construction on reversed arcs). A query s→t evaluates Equation 1 over
// LABEL_out(s) ∩ LABEL_in(t), falling back to the label-seeded
// bidirectional Dijkstra on G_k of the undirected index: a QueryEngine
// (core/query.h) whose forward side reads the out-labels and out-arcs and
// whose reverse side reads the in-labels and in-arcs. The core is numbered
// by the undirected index's BFS rule over its out-lists
// (VertexHierarchy::NumberCore). Reachability — the paper's closing
// remark — is dist < ∞.
//
// Queries are thread-safe: each leases an engine from the index's pool,
// so any number of threads may query one index.

#ifndef ISLABEL_CORE_DIRECTED_H_
#define ISLABEL_CORE_DIRECTED_H_

#include <cstdint>
#include <memory>

#include "core/engine_pool.h"
#include "core/hierarchy.h"
#include "core/label_arena.h"
#include "core/options.h"
#include "core/query.h"
#include "graph/digraph.h"
#include "util/result.h"

namespace islabel {

/// Exact point-to-point distance/reachability index for directed graphs.
/// In-memory only (the paper details persistence for the undirected case;
/// the directed extension shares the same storage layout if needed).
class DirectedISLabel {
 public:
  DirectedISLabel() = default;
  DirectedISLabel(DirectedISLabel&&) = default;
  DirectedISLabel& operator=(DirectedISLabel&&) = default;

  static Result<DirectedISLabel> Build(const DiGraph& g,
                                       const IndexOptions& options = {});

  /// Exact directed distance s → t (kInfDistance if t unreachable).
  /// FailedPrecondition on an index that was never built or was moved from.
  Status Query(VertexId s, VertexId t, Distance* out) const;

  /// Directed reachability s → t.
  Status Reachable(VertexId s, VertexId t, bool* out) const;

  VertexId NumVertices() const { return hierarchy_->NumVertices(); }
  std::uint32_t k() const { return hierarchy_->k; }
  std::uint32_t LevelOf(VertexId v) const { return hierarchy_->level[v]; }
  bool InCore(VertexId v) const { return hierarchy_->InCore(v); }
  /// Levels and dense core ids; g_k and the landmark table stay empty.
  const VertexHierarchy& hierarchy() const { return *hierarchy_; }
  const LabelArena& out_labels() const { return *out_labels_; }
  const LabelArena& in_labels() const { return *in_labels_; }

  /// Σ over both label families.
  std::uint64_t TotalLabelEntries() const;

 private:
  // On the heap because the pool's engines point into them and the index
  // moves. The hierarchy keeps each vertex's level and the dense core ids,
  // not the ancestor DAG (released after labeling); its g_k stays empty,
  // the core being `core_`, over dense ids, its out- and in-lists sorted
  // by weight as g_k's are. With g_k its landmark table stays empty, so
  // the search starts at Equation 1's µ (DESIGN §7.6).
  std::unique_ptr<VertexHierarchy> hierarchy_;
  std::unique_ptr<DiGraph> core_;
  std::unique_ptr<LabelArena> out_labels_;
  std::unique_ptr<LabelArena> in_labels_;
  std::unique_ptr<QueryEnginePool> pool_;
};

}  // namespace islabel

#endif  // ISLABEL_CORE_DIRECTED_H_
