// DistanceCache: the core-side seam for query-result caching.
//
// ISLabelIndex::Query can optionally consult a cache of (s, t) → distance
// before leasing an engine (see set_distance_cache). The core only knows
// this minimal interface; the production implementation — a sharded LRU
// with generation-based invalidation — lives one layer up in
// server/query_cache.h, so the core library never depends on the serving
// subsystem.
//
// Invalidation contract: the index calls BumpGeneration() at the end of
// every update (InsertVertex, DeleteVertex); a reload installs a new
// index, and the catalog bumps its dataset's cache. An implementation
// must never serve an entry inserted before the latest bump. All methods
// must be thread-safe: they are called concurrently from every thread
// driving Query.

#ifndef ISLABEL_CORE_DISTANCE_CACHE_H_
#define ISLABEL_CORE_DISTANCE_CACHE_H_

#include "graph/graph_defs.h"

namespace islabel {

class DistanceCache {
 public:
  virtual ~DistanceCache() = default;

  /// The current generation. Callers snapshot it BEFORE computing an
  /// answer and pass it back to Insert, so an update that lands between
  /// compute and insert cannot stamp a pre-update answer as current.
  virtual std::uint64_t generation() const = 0;

  /// Returns true and sets *out iff a current-generation entry for the
  /// pair exists. Implementations canonicalize (s, t) as they see fit
  /// (the undirected index shares (s, t) and (t, s)).
  virtual bool Lookup(VertexId s, VertexId t, Distance* out) = 0;

  /// Records d(s, t) computed under `generation` (a prior snapshot of
  /// generation()). Implementations must drop the insert if the
  /// generation has moved on since the snapshot.
  virtual void Insert(VertexId s, VertexId t, Distance d,
                      std::uint64_t generation) = 0;

  /// Invalidates every entry inserted so far.
  virtual void BumpGeneration() = 0;
};

}  // namespace islabel

#endif  // ISLABEL_CORE_DISTANCE_CACHE_H_
