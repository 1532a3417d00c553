// CHIndex: the contraction-hierarchy serving backend.
//
// Wraps baseline/contraction_hierarchy behind the DistanceIndex
// interface so the catalog and server can host CH indexes next to
// IS-LABEL ones — the right family per graph class (CH wins on road-like
// inputs, IS-LABEL on scale-free ones; see backends/registry.h for the
// auto heuristic and bench_backends for the numbers).
//
// Concurrency: the hierarchy is immutable after Build/Load, and each
// query leases a ContractionHierarchy::Scratch from the index's
// EnginePool (core/engine_pool.h, the pool IS-LABEL's engines come from
// too), so any number of threads may query one CHIndex concurrently. A
// lease's wait is the trace's pool_wait stage, as for IS-LABEL; CH
// registers no pool instruments.
//
// Persistence: Save() writes `<dir>/ch.islc` (magic-tagged, versioned,
// varint-encoded order + up lists). The file is self-identifying, which
// is how the registry distinguishes a CH directory from an IS-LABEL one.
// labels_in_memory has no meaning here: a CH is always memory-resident
// (documented in DESIGN.md §13).
//
// Update semantics: rebuild-only. The contraction order bakes the whole
// graph into the shortcut set; there is no counterpart to the paper's
// §8.3 lazy label maintenance. Mutating a CH dataset means rebuilding its
// directory and issuing `reload`.

#ifndef ISLABEL_BACKENDS_CH_INDEX_H_
#define ISLABEL_BACKENDS_CH_INDEX_H_

#include <memory>
#include <string>
#include <vector>

#include "baseline/contraction_hierarchy.h"
#include "core/distance_index.h"
#include "core/engine_pool.h"
#include "graph/graph.h"
#include "util/result.h"

namespace islabel {

/// Exact P2P distance backend over a contraction hierarchy. Movable, not
/// copyable; all query entry points are thread-safe.
class CHIndex : public DistanceIndex {
 public:
  CHIndex();
  CHIndex(CHIndex&&) = default;
  CHIndex& operator=(CHIndex&&) = default;

  /// Contracts `g`. Fails (OutOfRange) if a shortcut weight would
  /// overflow Weight.
  static Result<CHIndex> Build(const Graph& g);

  /// Loads `<dir>/ch.islc`; corrupt or truncated files yield Corruption.
  static Result<CHIndex> Load(const std::string& dir);

  /// Writes `<dir>/ch.islc`.
  Status Save(const std::string& dir) const override;

  /// CH always records shortcut middles, so paths are always available.
  Status ShortestPath(VertexId s, VertexId t, std::vector<VertexId>* path,
                      Distance* dist) override;

  VertexId NumVertices() const override { return ch_.NumVertices(); }
  bool has_vias() const override { return true; }
  DistanceIndexInfo Info() const override;

  std::uint64_t num_shortcuts() const { return ch_.num_shortcuts(); }
  const ContractionHierarchy& hierarchy() const { return ch_; }
  double build_seconds() const { return build_seconds_; }

 protected:
  Status QueryUncached(VertexId s, VertexId t, Distance* out) override;

 private:
  ContractionHierarchy ch_;
  // Heap-held so CHIndex stays movable despite the pool's mutex.
  std::unique_ptr<EnginePool<ContractionHierarchy::Scratch>> pool_;
  double build_seconds_ = 0.0;
};

}  // namespace islabel

#endif  // ISLABEL_BACKENDS_CH_INDEX_H_
