// Contraction Hierarchies (Geisberger et al., WEA 2008) — the road-network
// speedup technique the paper's related work discusses (§3, [14]).
//
// Originally included as an extension baseline to reproduce the paper's
// argument that road-network methods rely on low highway dimension: on
// grids CH queries are extremely fast with few shortcuts, while on
// power-law graphs contraction degenerates (dense shortcut fill-in around
// hubs) — see bench_ablation_ch. Promoted to a full serving backend
// (backends/ch_index.h wraps it behind DistanceIndex): every shortcut
// records its contracted middle vertex, queries run on caller-owned
// scratch from any number of threads, and path queries unpack shortcuts
// back to original-graph vertices.
//
// Implementation notes: nodes are contracted in lazy edge-difference order;
// witness searches are hop- and settle-bounded (a missed witness only adds
// a redundant shortcut, never breaks correctness); queries run a
// bidirectional upward Dijkstra over the order.

#ifndef ISLABEL_BASELINE_CONTRACTION_HIERARCHY_H_
#define ISLABEL_BASELINE_CONTRACTION_HIERARCHY_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "util/result.h"

namespace islabel {

/// Exact P2P distance index via node contraction.
class ContractionHierarchy {
 public:
  /// One upward edge. Shortcuts carry the contracted middle vertex in
  /// `via` (kInvalidVertex for original graph edges), which is what lets
  /// Path() unpack a shortcut back into original edges.
  struct UpEdge {
    VertexId to = kInvalidVertex;
    Weight w = 0;
    VertexId via = kInvalidVertex;
  };

  /// Caller-owned query state. The hierarchy itself is immutable after
  /// Build, so any number of threads may query concurrently as long as
  /// each brings its own Scratch (CHIndex leases these from an
  /// EnginePool). Every buffer keeps its capacity across queries, so a
  /// warm Scratch makes a query allocate nothing.
  struct Scratch {
    struct Side {
      std::vector<Distance> dist;
      std::vector<std::uint32_t> stamp;
      std::vector<VertexId> parent;  // predecessor in the upward search
      // Min-heap of (distance, vertex) under std::push_heap / pop_heap
      // with std::greater: std::priority_queue's algorithm, on storage
      // that outlives the query.
      std::vector<std::pair<Distance, VertexId>> heap;
    };
    Side sides[2];
    std::uint32_t epoch = 0;
  };

  ContractionHierarchy() = default;
  ContractionHierarchy(ContractionHierarchy&&) = default;
  ContractionHierarchy& operator=(ContractionHierarchy&&) = default;

  static Result<ContractionHierarchy> Build(const Graph& g);

  /// Rebuilds a hierarchy from persisted parts (backends/ch_index.cc).
  /// `order` must be a permutation of [0, n) and every up list upward-only;
  /// the caller is expected to have validated both.
  static ContractionHierarchy FromParts(std::vector<std::uint32_t> order,
                                        std::vector<std::vector<UpEdge>> up,
                                        std::uint64_t num_shortcuts);

  /// Exact distance (kInfDistance if disconnected) on caller-owned
  /// scratch. Thread-safe (const; all mutable state lives in *scratch).
  Distance Query(VertexId s, VertexId t, Scratch* scratch,
                 std::uint64_t* settled = nullptr) const;

  /// Exact shortest path in original-graph vertices (s first, t last;
  /// empty when disconnected, {s} when s == t). Runs the bidirectional
  /// search on *scratch, then unpacks shortcuts via their recorded middle
  /// vertices. Thread-safe.
  Distance Path(VertexId s, VertexId t, Scratch* scratch,
                std::vector<VertexId>* path) const;

  VertexId NumVertices() const {
    return static_cast<VertexId>(order_.size());
  }
  std::uint64_t num_shortcuts() const { return num_shortcuts_; }
  /// Total upward edges (original + shortcuts) across all vertices.
  std::uint64_t NumUpEdges() const;
  /// Upward edges per vertex, mean — the density CH's performance hinges on.
  double MeanUpDegree() const;

  /// Raw structure, for persistence (backends/ch_index.cc).
  const std::vector<std::uint32_t>& order() const { return order_; }
  const std::vector<std::vector<UpEdge>>& up() const { return up_; }

 private:
  /// The bidirectional upward search; records the best meet vertex when
  /// meet_out is non-null. Assumes s != t and both in range.
  Distance Search(VertexId s, VertexId t, Scratch* scratch,
                  std::uint64_t* settled_out, VertexId* meet_out) const;

  /// The up edge (a, b) lives in the up list of the lower-ranked
  /// endpoint; returns nullptr if absent (corrupt hierarchy).
  const UpEdge* FindUpEdge(VertexId a, VertexId b) const;

  /// Appends the original-graph expansion of up edge (u, v) to *out —
  /// everything after u up to and including v. Iterative (explicit
  /// stack); vias strictly descend in rank, so it terminates.
  bool AppendUnpacked(VertexId u, VertexId v,
                      std::vector<VertexId>* out) const;

  // order_[v] = contraction rank; upward adjacency only (to higher ranks).
  std::vector<std::uint32_t> order_;
  std::vector<std::vector<UpEdge>> up_;
  std::uint64_t num_shortcuts_ = 0;
};

}  // namespace islabel

#endif  // ISLABEL_BASELINE_CONTRACTION_HIERARCHY_H_
