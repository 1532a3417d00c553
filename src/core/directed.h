// Directed IS-LABEL (§8.2).
//
// The independent set ignores edge direction; augmenting arcs are created
// only for directed 2-paths u→v→w over a removed vertex v. Every vertex
// carries two labels: the out-label (ancestors reached by arcs from lower
// to higher level) and the in-label (the symmetric construction on
// reversed arcs). A query s→t evaluates Equation 1 over
// LABEL_out(s) ∩ LABEL_in(t), falling back to a directed label-seeded
// bidirectional Dijkstra on G_k (forward over out-arcs, backward over
// in-arcs). Reachability — the paper's closing remark — is dist < ∞.

#ifndef ISLABEL_CORE_DIRECTED_H_
#define ISLABEL_CORE_DIRECTED_H_

#include <cstdint>
#include <vector>

#include "core/hierarchy.h"
#include "core/label_arena.h"
#include "core/label_entry.h"
#include "core/labeling.h"
#include "core/options.h"
#include "graph/digraph.h"
#include "util/radix_heap.h"
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
  Status Query(VertexId s, VertexId t, Distance* out);

  /// Directed reachability s → t.
  Status Reachable(VertexId s, VertexId t, bool* out);

  VertexId NumVertices() const {
    return static_cast<VertexId>(level_.size());
  }
  std::uint32_t k() const { return k_; }
  std::uint32_t LevelOf(VertexId v) const { return level_[v]; }
  bool InCore(VertexId v) const { return level_[v] == k_; }
  const DiGraph& CoreGraph() const { return gk_; }
  const LabelArena& out_labels() const { return out_labels_; }
  const LabelArena& in_labels() const { return in_labels_; }

  /// Σ over both label families.
  std::uint64_t TotalLabelEntries() const;

 private:
  /// Algorithm 1 stage 2 over the engine-owned seeds_[01]_ buffers.
  Distance BiDijkstra(Distance mu);
  void EnsureScratch();

  std::vector<std::uint32_t> level_;
  std::uint32_t k_ = 0;
  DiGraph gk_;
  LabelArena out_labels_;
  LabelArena in_labels_;

  // Epoch-stamped bidirectional search scratch (0 = forward, 1 = backward),
  // packed per vertex for cache locality. A heap entry is live exactly when
  // its key equals the vertex's stamped distance: pushes are strict
  // improvements and each side pops in order (DESIGN §7.2).
  struct NodeState {
    Distance dist = kInfDistance;
    std::uint32_t stamp = 0;
  };
  std::vector<NodeState> sides_[2];
  std::uint32_t epoch_ = 0;
  // Reusable query buffers — seeds and monotone radix heaps; no allocation
  // on the hot path after warmup.
  std::vector<LabelEntry> seeds_[2];
  RadixHeap pq_[2];
};

}  // namespace islabel

#endif  // ISLABEL_CORE_DIRECTED_H_
