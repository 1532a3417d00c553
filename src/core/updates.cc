// Update maintenance (§8.3): vertex insertion and deletion.
//
// Insertion. The paper adds the new vertex u to G_k, inserts (u, ω(u,v))
// into label(v) for each non-core neighbor v, and patches v's descendants.
// That lazy patch alone is not exact: a shortest path may dip below the
// core through v from a vertex w that is *not* a descendant of v (w and v
// merely share an ancestor). Re-running the construction conceptually
// shows what full maintenance requires: u becomes adjacent, level by
// level, to every ancestor x ∈ V[label(v)] at cost d(v,x) + ω(v,u), so
//   * every core ancestor x of v gains the G_k bridge edge (x, u), and
//   * every vertex w whose label intersects label(v) gains the entry
//     (u, Eq1(w, v) + ω(v,u)) — the descendant tree of §8.3 is exactly the
//     subset of these w with v itself as the witness.
// With the closure, insertion is exact (tests validate against Dijkstra on
// the updated graph); its cost is one Equation-1 evaluation per vertex per
// non-core neighbor — the price of exactness that the paper's lazy variant
// trades away.
//
// Deletion follows the paper: remove u's entries everywhere and its core
// edges. This is exact for core vertices (label-path distances never route
// through core vertices, whose labels are trivial); for below-core
// vertices stale distances may remain until a rebuild — the paper's
// "rebuild the index periodically".

// Both operations patch labels through the LabelArena's overflow
// side-table: the slab stays immutable, the first mutation of a label
// copies it out, and queries transparently see the patched copy.

#include <limits>
#include <vector>

#include "core/index.h"
#include "core/label.h"

namespace islabel {

Status ISLabelIndex::InsertVertex(
    VertexId v, const std::vector<std::pair<VertexId, Weight>>& adj) {
  if (hierarchy_ == nullptr) {
    return Status::FailedPrecondition("index not built");
  }
  if (store_ != nullptr) {
    return Status::FailedPrecondition(
        "updates require in-memory labels (load with labels_in_memory)");
  }
  const VertexId n = hierarchy_->NumVertices();
  if (v != n) {
    return Status::InvalidArgument(
        "inserted vertex id must equal NumVertices()");
  }
  for (const auto& [nbr, w] : adj) {
    if (nbr == v) return Status::InvalidArgument("self-loops not allowed");
    if (nbr >= n) return Status::OutOfRange("neighbor id out of range");
    if (IsDeleted(nbr)) return Status::InvalidArgument("neighbor is deleted");
    if (w == 0) return Status::InvalidArgument("weights must be positive");
  }

  // G_k's new edges: v's own core edges, and core bridges — v is
  // reachable from every core ancestor of each below-core neighbor. They
  // are all read from pre-insert labels, so every bridge weight is checked
  // before the first write: a failed insert leaves the index unchanged.
  EdgeList core = hierarchy_->GlobalCore().ToEdgeList();
  core.EnsureVertices(n + 1);
  for (const auto& [nbr, w] : adj) {
    if (hierarchy_->InCore(nbr)) {
      core.Add(v, nbr, w);
      continue;
    }
    for (const LabelEntry& e : labels_->View(nbr)) {
      if (!hierarchy_->InCore(e.node)) continue;
      const Distance bridge = e.dist + w;
      if (bridge > std::numeric_limits<Weight>::max()) {
        return Status::OutOfRange(
            "bridge edge weight overflows the Weight type");
      }
      core.Add(e.node, v, static_cast<Weight>(bridge), nbr);
    }
  }

  // The new vertex lives in G_k with the highest level number; its own
  // label is the trivial {(v, 0)}, appended to the side-table.
  hierarchy_->level.push_back(hierarchy_->k);
  labels_->AppendLabel(v, {LabelEntry(v, 0)});
  deleted_.Resize(n + 1);

  for (const auto& [nbr, w] : adj) {
    if (hierarchy_->InCore(nbr)) continue;
    // Snapshot label(nbr) before patching so the closure is computed
    // against the pre-insert state.
    const std::vector<LabelEntry> anchor = labels_->View(nbr).ToVector();
    // Label closure: every vertex sharing an ancestor with nbr can route
    // to u below the core. The via vertex must be a strict intermediate:
    // for nbr's own entry the edge (nbr, v) is direct.
    for (VertexId target = 0; target < n; ++target) {
      if (IsDeleted(target) || hierarchy_->InCore(target)) continue;
      const Eq1Result r = EvaluateEq1(labels_->View(target), anchor);
      if (r.dist == kInfDistance) continue;
      const VertexId via = (target == nbr) ? kInvalidVertex : nbr;
      labels_->UpsertEntry(target, LabelEntry(v, r.dist + w, via));
    }
  }

  // Rebuild even without new core edges: v joined the core, and the CSR
  // must span the grown id space.
  RebuildCore(std::move(core));
  BumpCacheGeneration();
  return Status::OK();
}

Status ISLabelIndex::DeleteVertex(VertexId v) {
  if (hierarchy_ == nullptr) {
    return Status::FailedPrecondition("index not built");
  }
  if (store_ != nullptr) {
    return Status::FailedPrecondition(
        "updates require in-memory labels (load with labels_in_memory)");
  }
  const VertexId n = hierarchy_->NumVertices();
  if (v >= n) return Status::OutOfRange("vertex id out of range");
  if (IsDeleted(v)) return Status::InvalidArgument("vertex already deleted");

  // Remove v's entries from every label that references it (v's
  // descendants). When v is a core vertex appearing in no label, this loop
  // is a no-op and the deletion is exact (§8.3). EraseEntry only copies a
  // label to the side-table when it actually contains v.
  for (VertexId w = 0; w < n; ++w) {
    if (w == v) continue;
    labels_->EraseEntry(w, v);
  }
  labels_->ClearLabel(v);
  deleted_.Set(v);

  if (hierarchy_->InCore(v)) {
    EdgeList old = hierarchy_->GlobalCore().ToEdgeList();
    EdgeList rebuilt(hierarchy_->NumVertices());
    for (const Edge& e : old.edges()) {
      if (e.u != v && e.v != v) rebuilt.Add(e.u, e.v, e.w, e.via);
    }
    RebuildCore(std::move(rebuilt));
  }
  BumpCacheGeneration();
  return Status::OK();
}

}  // namespace islabel
