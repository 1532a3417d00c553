// Shortest-path reconstruction (§8.1).
//
// Augmenting edges and label entries carry an intermediate ("via") vertex:
// an augmenting edge (u,w) created over v represents the 2-path <u,v,w>,
// and a transitive label entry records the ancestor it was derived through.
// A path query therefore unfolds recursively: each segment whose connecting
// edge/entry has a via vertex x splits into the sub-queries (a,x) and
// (x,b) — each answered by the index itself — until only original edges of
// G remain. The I/O cost is O(|SP(s,t)|), as the paper states.

#ifndef ISLABEL_CORE_PATH_H_
#define ISLABEL_CORE_PATH_H_

#include <vector>

#include "core/query.h"
#include "util/status.h"

namespace islabel {

class ISLabelIndex;

/// Stateless helper that expands PathCaptures into vertex sequences by
/// issuing recursive distance queries against the same engine.
class PathReconstructor {
 public:
  explicit PathReconstructor(QueryEngine* engine) : engine_(engine) {}

  /// Appends the full vertex sequence of a shortest s→t path to *out
  /// (starting with s). Fails (Internal) if the capture is inconsistent,
  /// e.g. when the index was built without vias.
  Status Reconstruct(VertexId s, VertexId t, const PathCapture& capture,
                     std::vector<VertexId>* out);

 private:
  /// Emits the path a → ... → b described by `capture` (omitting `a`,
  /// which *out already ends with). Both the top-level query and every
  /// recursive sub-query expand through here, so each gets the same
  /// chain-continuity checks.
  Status EmitCapture(VertexId a, VertexId b, const PathCapture& capture,
                     int depth, std::vector<VertexId>* out);

  /// Emits the path a → ... → b (omitting `a` itself) given that dist(a,b)
  /// decomposes at `via` (kInvalidVertex = original edge a-b).
  Status EmitSegment(VertexId a, VertexId b, VertexId via, int depth,
                     std::vector<VertexId>* out);

  /// Emits a → ... → entry.node (omitting `a`): the label-entry expansion.
  Status EmitEntry(VertexId a, const LabelEntry& entry, int depth,
                   std::vector<VertexId>* out);

  /// Re-queries (a, b) and expands the resulting capture. Recursion depth
  /// is bounded: every sub-segment is strictly shorter.
  Status EmitQuery(VertexId a, VertexId b, int depth,
                   std::vector<VertexId>* out);

  QueryEngine* engine_;
};

}  // namespace islabel

#endif  // ISLABEL_CORE_PATH_H_
